"""Workload definitions, the task runner and the output checks.

A workload is a set of workspaces (one per field) and a fixed task list.
A task is one in-process call of the `entwine` command line with
`--format json`, or, where the command line has no command, one library
call whose result is reduced to a small JSON-able answer.  Expected
answers are basis-invariant (statuses, dimensions, solution-space sizes),
so the same table checks every seed; every FOUND witness is re-verified
with the independent evaluators of the test suite.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass

from entwine import cli, comodcat, contracat, measuring
from entwine.exactlin import Mat

import components
import oracles
import instances
from expected import EXPECTED

DECIDE = "decide"
STRUCTURE = "structure"
_DECIDE_COMMANDS = ("separability", "cointegral", "frobenius", "maschke-probe")


@dataclass(frozen=True)
class Task:
    """One request: a CLI command on a workspace, or a library call."""

    ws: str          # workspace key (field spec)
    command: str     # CLI command, or hom / contra-hom / adjunction-co / adjunction-contra
    args: tuple = ()

    @property
    def family(self) -> str:
        return DECIDE if self.command in _DECIDE_COMMANDS else STRUCTURE

    @property
    def label(self) -> str:
        return " ".join((self.command, self.ws) + self.args)


@dataclass(frozen=True)
class Workload:
    name: str
    workspaces: dict   # field spec -> {entwining name: (kind, size)}
    tasks: tuple
    layers: tuple      # span groups the traced run must see at least once


def _ladder_tasks(ws, plan):
    tasks = [Task(ws, "check")]
    for name, commands in plan:
        tasks.extend(Task(ws, cmd, (name,)) for cmd in commands)
    return tasks


_SCF = ("separability", "cointegral", "frobenius")
_COMMON_LAYERS = ("exactlin.matmul", "exactlin.kron", "exactlin.elementwise",
                  "exactlin.rref", "exactlin.kernel_basis", "exactlin.solve_affine",
                  "exactlin.affine_matrix_system", "exactlin.mat_solution_basis",
                  "report.eq_check", "algstruct.check", "entwining.check_entwining",
                  "cli.parse_workspace", "cli.command")
_LADDER_LAYERS = _COMMON_LAYERS + ("criteria.separability", "criteria.cointegral",
                                   "criteria.frobenius")

# Every task is short (at most about three seconds here), so a run holds
# several samples of each and a task's median is robust to bursts of
# machine noise.

# Deciders over Q: Fraction kron/matmul composites and their affine solves
# dominate.  Frobenius over Q has no exhaustive rung: on the triangular
# algebra it ends UNKNOWN, on kZ2 an earlier rung finds a witness.
LADDER_Q = Workload(
    "ladder-q",
    {"Q": {"dk3": ("dk", 3), "tp4": ("trivial-trunc", 4), "m2": ("trivial-matrix", 2),
           "ut": ("trivial-triangular", 3), "dk2": ("dk", 2)}},
    tuple(_ladder_tasks("Q", [("dk3", _SCF[:2]), ("tp4", _SCF[:2]), ("m2", _SCF[:2]),
                              ("ut", _SCF[2:]), ("dk2", _SCF[2:])])),
    _LADDER_LAYERS,
)

# The same deciders over F_p: small-int arithmetic is cheap and the Frobenius
# sweep re-assembles its system per candidate.  The bypass for Q-only changes.
LADDER_FP = Workload(
    "ladder-fp",
    {"F5": {"dk4": ("dk", 4), "dk3": ("dk", 3)},
     "F2": {"dk4": ("dk", 4), "tg4": ("trivial-group", 4),
            "ut": ("trivial-triangular", 3)}},
    tuple(_ladder_tasks("F5", [("dk4", _SCF[:2]), ("dk3", _SCF[2:])])
          + _ladder_tasks("F2", [("dk4", _SCF[1:2]), ("tg4", _SCF[1:2]),
                                 ("ut", _SCF[2:])])),
    _LADDER_LAYERS,
)

# Structure checks, induced functors, hom spaces and measuring adjunctions
# over Q on kZ3 reach exactlin through kernels, cokernels and restrictions,
# not the affine decider ladder: the bypass for changes to the ladders.  The
# Maschke probe runs on kZ2, where it takes 0.2 s instead of 5 s.
FUNCTORS_Q = Workload(
    "functors-q",
    {"Q": {"E": ("functors", 3), "E2": ("dk", 2)}},
    (Task("Q", "check"), Task("Q", "measuring", ("I",)), Task("Q", "galois", ("G",)),
     Task("Q", "cotensor", ("I", "X")), Task("Q", "hattensor", ("I", "Y")),
     Task("Q", "cohom", ("I", "U")), Task("Q", "homtilde", ("I", "V")),
     Task("Q", "hom", ("X", "Y")), Task("Q", "contra-hom", ("U", "V")),
     Task("Q", "adjunction-co", ("I", "X", "Y")),
     Task("Q", "adjunction-contra", ("I", "U", "V")),
     Task("Q", "maschke-probe", ("E2",))),
    _COMMON_LAYERS + ("exactlin.cokernel", "exactlin.restrict_map",
                      "comodcat.hom_space", "comodcat.induce",
                      "contracat.contra_hom_space", "contracat.induce",
                      "measuring.functors", "measuring.adjunction",
                      "measuring.galois", "criteria.cointegral",
                      "criteria.semisimplicity_probe"),
)

WORKLOADS = {w.name: w for w in (LADDER_Q, LADDER_FP, FUNCTORS_Q)}


# -- set-up -----------------------------------------------------------


class Instance:
    """The generated workspace files of one workload and their first parse."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.workload = workload
        self.paths = {}
        self.parsed = {}
        rng = random.Random(seed)
        for spec, content in sorted(workload.workspaces.items()):
            ws = instances.build_workspace(instances.field_of(spec), content, rng)
            path = os.path.join(workdir, "ws-%s.json" % spec)
            instances.write_workspace(ws, path)
            self.paths[spec] = path
            self.parsed[spec] = cli.parse_workspace(path)

    # -- running ------------------------------------------------------

    def run(self, task: Task, main=cli.main) -> str:
        """Perform the task; return its answer as one line of JSON."""
        if is_library(task):
            return json.dumps(_LIBRARY[task.command](self.parsed[task.ws], *task.args),
                              sort_keys=True, separators=(",", ":"))
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main([task.command, self.paths[task.ws], *task.args,
                         "--format", "json"])
        out = buf.getvalue().strip()
        if code == 3 or not out:
            raise RuntimeError("%s: exit %d without a report" % (task.label, code))
        return out


def _hom(ws, x, y):
    return {"dim": comodcat.hom_space(ws.modules[x], ws.modules[y]).dim}


def _contra_hom(ws, x, y):
    return {"dim": contracat.contra_hom_space(ws.contramodules[x],
                                              ws.contramodules[y]).dim}


def _adjunction(table):
    def run(ws, meas, x, y):
        t = getattr(ws, table)
        return measuring.adjunction_check_measuring(ws.measurings[meas], t[x],
                                                  t[y]).as_dict()
    return run


_LIBRARY = {"hom": _hom, "contra-hom": _contra_hom,
            "adjunction-co": _adjunction("modules"),
            "adjunction-contra": _adjunction("contramodules")}


def is_library(task: Task) -> bool:
    return task.command in _LIBRARY


# -- checking answers -------------------------------------------------
#
# Statuses and sizes are compared with expected.py; each FOUND witness is
# substituted into the independent evaluators of the test suite.

def _matrix(field, rows):
    return Mat.from_rows(field, rows)


def _separability_ok(e, key, w) -> bool:
    F = e.field
    for m in (1, 2):
        if key == "co_t":
            res = components.sigma_equations_co(e, _matrix(F, w["e"]), m)
        elif key == "contra_t":
            res = components.sigma_equations_contra(e, _matrix(F, w["e"]).t, m)
        elif key == "co_f":
            res = components.rho_equations_co(e, _matrix(F, w["theta"]), m)
        else:
            res = components.rho_equations_contra(e, _matrix(F, w["theta"]), m)
        if not all(r.is_zero() for r in res):
            return False
    return True


def _frobenius_ok(e, key, w) -> bool:
    # Memberships and the two couplings define the pair; the separability
    # normalizations are not part of it.
    s, th = _matrix(e.field, w["e"]), _matrix(e.field, w["theta"])
    for m in (1, 2):
        if key == "contra":
            res = (components.sigma_equations_contra(e, s.t, m)[:1]
                   + components.rho_equations_contra(e, th, m)[:2]
                   + components.frobenius_equations_contra(e, s.t, th, m))
        else:
            res = (components.sigma_equations_co(e, s, m)[:1]
                   + components.rho_equations_co(e, th, m)[:2]
                   + components.frobenius_equations_co(e, s, th, m))
        if not all(r.is_zero() for r in res):
            return False
    return True


def _cointegral_ok(e, key, w) -> bool:
    return oracles.cointegral_conditions_oracle(e, _matrix(e.field, w["phi"]))


_DECIDERS = {"separability": _separability_ok, "frobenius": _frobenius_ok,
             "cointegral": _cointegral_ok}


def _verdict_problems(label, key, v, want, e, witness_ok) -> list:
    status, data = want
    problems = []
    if status == "FOUND/UNKNOWN":
        if v["status"] == "UNKNOWN" and "needs a prime field" not in v["log"][-1]:
            problems.append("%s %s: UNKNOWN before the last rung" % (label, key))
        status = v["status"] if v["status"] in ("FOUND", "UNKNOWN") else status
    if v["status"] != status:
        problems.append("%s %s: status %s, expected %s" % (label, key, v["status"], status))
    if v["data"] != data:
        problems.append("%s %s: data %r, expected %r" % (label, key, v["data"], data))
    if v["status"] == "FOUND" and not problems and not witness_ok(e, key, v["witness"]):
        problems.append("%s %s: witness fails re-verification" % (label, key))
    return problems


def check_answer(inst: Instance, task: Task, out: str) -> list:
    """Problems with one answer; an empty list means it is correct."""
    doc = json.loads(out)
    want = EXPECTED[inst.workload.name].get(task.label)
    if want is None:
        return ["%s: no expected answer" % task.label]
    if task.command not in _DECIDERS:
        got = summarize(task.command, doc)
        if got != want:
            return ["%s: answer %r, expected %r" % (task.label, got, want)]
        if not is_library(task) and doc["exit"] != 0:
            return ["%s: exit %d" % (task.label, doc["exit"])]
        return []
    ws = inst.parsed[task.ws]
    e = ws.entwinings[task.args[0]]
    verdicts = doc["verdicts"] if "verdicts" in doc else {"verdict": doc["verdict"]}
    if sorted(verdicts) != sorted(want):
        return ["%s: verdict keys %r" % (task.label, sorted(verdicts))]
    problems = []
    for key, v in sorted(verdicts.items()):
        problems += _verdict_problems(task.label, key, v, want[key], e,
                                      _DECIDERS[task.command])
    statuses = [v["status"] for v in verdicts.values()]
    code = 1 if "NONE" in statuses else 2 if "UNKNOWN" in statuses else 0
    if doc["exit"] != code:
        problems.append("%s: exit %d, expected %d" % (task.label, doc["exit"], code))
    return problems


def summarize(cmd: str, doc: dict) -> dict:
    """The basis-invariant part of a non-decider answer."""
    if cmd == "check":
        return {"passed": all(r["report"]["passed"] for r in doc["reports"]),
                "subjects": len(doc["reports"])}
    if cmd == "measuring":
        return {"passed": doc["report"]["passed"], "checks": len(doc["report"]["checks"])}
    if cmd == "galois":
        return doc["galois"]
    if cmd in ("cotensor", "hattensor", "cohom", "homtilde"):
        return doc[cmd]
    if cmd in ("hom", "contra-hom"):
        return doc
    if cmd.startswith("adjunction"):
        return {"passed": doc["passed"], "checks": len(doc["checks"])}
    if cmd == "maschke-probe":
        return {"cointegral": doc["cointegral_status"], "passed": doc["report"]["passed"],
                "checks": len(doc["report"]["checks"])}
    raise ValueError("no summary for %s" % cmd)
