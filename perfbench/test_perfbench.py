"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Counting wrappers must give exact counts, the seeded change of basis must
keep every axiom and verdict, tracing must not change any answer, and a
timed call must be scaled by the chunks run around and inside it.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _p in (HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from entwine import cli, exactlin  # noqa: E402
from entwine.exactlin import Field, Mat  # noqa: E402
from entwine.algstruct import check_algebra, check_coalgebra  # noqa: E402
from entwine.entwining import check_entwining  # noqa: E402
from entwine.criteria import (  # noqa: E402
    decide_sep_co_f, decide_sep_contra_t, find_cointegral,
)

import bench  # noqa: E402
import instances  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

Q = Field.rational()
F5 = Field.prime(5)


def _traced(fn):
    # Library names are looked up on their module at call time, as the
    # package's own callers do, so the installed wrappers see the calls.
    tracer = spans.Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.summary()


def test_counters_are_exact_on_hand_sized_matrices():
    a = Mat.from_rows(Q, [[1, 0, 2], [0, 0, 3]])       # column nnz 1, 0, 2
    b = Mat.from_rows(Q, [[1, 1], [5, 0], [0, "1/2"]])  # row nnz 2, 1, 1
    m = Mat.from_rows(Q, [[2, 4], [1, 3]])

    def work():
        a * b                      # one matmul
        exactlin.kron(a, m)        # 3 * 4 nonzeros in 2*3*2*2 = 24 entries
        exactlin.rref(m)           # identity: entries of at most 1 bit
        exactlin.solve_affine(Mat.zeros(Q, 1, 1), Mat.identity(Q, 1))  # infeasible

    s = _traced(work)
    mm = s["exactlin.matmul"]
    assert mm["calls"] == 1
    assert mm["scanned"] == 3 * 2            # nnz(a) * cols(b)
    assert mm["useful"] == 1 * 2 + 0 * 1 + 2 * 1
    kr = s["exactlin.kron"]
    assert (kr["calls"], kr["entries"], kr["nonzero"]) == (1, 24, 12)
    rr = s["exactlin.rref"]
    assert rr["calls"] == 2                  # rref(m) and the one in solve_affine
    assert rr["cells"] == 4 + 2
    assert rr["max_bits"] == 1
    assert s["exactlin.solve_affine"]["infeasible"] == 1
    # Self time excludes children: the solve's rref and kernel are its children.
    assert s["exactlin.solve_affine"]["self_s"] <= s["exactlin.solve_affine"]["s"]


def test_max_bits_reads_numerators_and_denominators():
    m = Mat.from_rows(Q, [["-255/2", "1/1024"]])
    assert spans._max_bits(m) == 11
    assert spans._max_bits(Mat.from_rows(F5, [[4, 1]])) == 3


def test_system_counters():
    def residual(x):
        return x - Mat.identity(Q, 2)

    def work():
        exactlin.affine_matrix_system(Q, 2, 2, residual)
        exactlin.mat_solution_basis(Q, 2, 3, [lambda x: x, lambda x: x])

    s = _traced(work)
    assert s["exactlin.affine_matrix_system"]["unit_evals"] == 4 + 1
    assert s["exactlin.mat_solution_basis"]["unit_evals"] == 6 * 2


def test_uninstall_restores_every_original():
    before = (Mat._matmul, Mat.__dict__["t"], cli.decide_sep_co_f, dict(cli._COMMANDS),
              [c.cell_contents for c in cli._COMMANDS["cotensor"].__closure__])
    _traced(lambda: None)
    after = (Mat._matmul, Mat.__dict__["t"], cli.decide_sep_co_f, dict(cli._COMMANDS),
             [c.cell_contents for c in cli._COMMANDS["cotensor"].__closure__])
    assert before == after


def _statuses(e):
    return (decide_sep_co_f(e).status, decide_sep_contra_t(e).status,
            find_cointegral(e).status)


def test_basis_change_keeps_axioms_and_verdicts():
    cases = [("dk", 2, Q), ("dk", 3, F5), ("trivial-trunc", 3, Q),
             ("trivial-group", 2, Field.prime(2))]
    for kind, n, field in cases:
        e0 = instances.ENTWININGS[kind](n, field)
        want = _statuses(e0)
        for seed in (1, 2):
            rng = random.Random(seed)
            bc = instances.BasisChange(field, e0.alg.dim, e0.coalg.dim, rng)
            e = bc.entwining(e0)
            for rep in (check_algebra(e.alg), check_coalgebra(e.coalg),
                        check_entwining(e)):
                assert rep.passed, (kind, n, seed, rep.title)
            assert _statuses(e) == want, (kind, n, seed)


def test_functor_workspace_round_trips_and_checks(tmp_path):
    ws = instances.build_workspace(Q, {"E": ("functors", 2)}, random.Random(3))
    path = str(tmp_path / "ws.json")
    instances.write_workspace(ws, path)
    assert cli.serialize_workspace(cli.parse_workspace(path)) == open(path).read()


MINI = workloads.Workload(
    "mini",
    {"Q": {"dk2": ("dk", 2), "tp3": ("trivial-trunc", 3)},
     "F3": {"dk2": ("dk", 2)}},
    (workloads.Task("Q", "check"), workloads.Task("Q", "separability", ("dk2",)),
     workloads.Task("Q", "cointegral", ("tp3",)),
     workloads.Task("Q", "frobenius", ("dk2",)),
     workloads.Task("F3", "frobenius", ("dk2",)),
     workloads.Task("F3", "cointegral", ("dk2",))),
    ())


def test_traced_pass_gives_the_untraced_answers(tmp_path):
    import instances as inst_module
    inst = workloads.Instance(MINI, 5, str(tmp_path))
    plain = bench.Pass(inst, MINI.tasks, cli.main)
    tracer = spans.Tracer(extra_namespaces=(inst_module, workloads))
    tracer.install()
    try:
        traced = bench.Pass(inst, MINI.tasks, tracer.wrap("cli.main", cli.main))
    finally:
        tracer.uninstall()
    assert not plain.errors and not traced.errors
    assert plain.outs == traced.outs
    summary = tracer.summary()
    for group in ("cli.main", "cli.command", "cli.parse_workspace",
                  "criteria.separability", "criteria.frobenius", "exactlin.matmul"):
        assert summary[group]["calls"] >= 1, group
    assert summary["cli.main"]["calls"] == len(MINI.tasks)
    assert summary["criteria.frobenius"]["solves"] >= 1
    for out in plain.outs:
        assert json.loads(out)["command"]


def test_expected_table_covers_every_task():
    for wl in workloads.WORKLOADS.values():
        labels = [t.label for t in wl.tasks]
        assert len(set(labels)) == len(labels)
        assert set(labels) == set(workloads.EXPECTED[wl.name]), wl.name


def test_wrong_answer_is_reported(tmp_path):
    wl = workloads.WORKLOADS["ladder-fp"]
    inst = workloads.Instance(wl, 1, str(tmp_path))
    task = workloads.Task("F2", "cointegral", ("tg4",))
    out = json.loads(inst.run(task))
    assert workloads.check_answer(inst, task, json.dumps(out)) == []
    out["verdict"]["status"] = "FOUND"
    assert workloads.check_answer(inst, task, json.dumps(out))


def test_sample_scales_cpu_time_by_chunks_around_and_inside_the_call():
    handler = signal.getsignal(signal.SIGUSR1)
    sample = bench.Sample(lambda: sum(i * i for i in range(400000)))
    assert sample.result == sum(i * i for i in range(400000))
    assert sample.cpu > 0 and sample.speed > 0
    assert sample.scaled == sample.cpu * sample.speed
    assert signal.getsignal(signal.SIGUSR1) is handler
    failed = bench.Sample(lambda: 1 // 0)
    assert isinstance(failed.result, ZeroDivisionError)
