"""Set-up, passes, checks and metrics of one benchmark run (see run.py)."""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

from entwine import cli

import instances
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
_PROBE = [Fraction(i % 7, 3) for i in range(2000)]


def _probe_seconds(cpu: int) -> float:
    os.sched_setaffinity(0, {cpu})
    zero = Fraction(0)
    t0 = time.perf_counter()
    for _ in range(3):
        for x in _PROBE:
            x != zero
    return time.perf_counter() - t0


_CAL_A = [Fraction(i % 11 - 5, i % 7 + 1) for i in range(300)]
_CAL_B = [Fraction(i % 5 - 2, i % 3 + 1) for i in range(300)]
# CPU seconds of one calibration chunk on the baseline machine when it is
# lightly loaded (see README), so that a scaled time reads as seconds there.
REF_CHUNK_S = 0.00125
EDGE_CHUNKS = 8         # chunks run just before and just after a timed call
CHUNK_EVERY_S = 0.025   # wall seconds between two chunks inside a call


def calibration_chunk() -> float:
    """CPU seconds of a fixed loop of the arithmetic the package spends its
    time in: Fraction products, sums and zero tests, and residues mod 5."""
    zero = Fraction(0)
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.thread_time()
    acc = zero
    for a, b in zip(_CAL_A, _CAL_B):
        p = a * b
        if p != zero:
            acc = acc + p
    r = 0
    for i in range(3000):
        r = (r * 3 + i) % 5
    t = time.thread_time() - t0
    if collecting:
        gc.enable()
    return t


class _InCallChunks:
    """Runs a calibration chunk in the main thread every CHUNK_EVERY_S
    seconds while a call runs there: a helper thread sends it SIGUSR1, and
    the handler runs the chunk and keeps its time.  (An interval timer on
    the process's CPU time would make that clock tick-grained while armed.)
    """

    available = hasattr(signal, "pthread_kill")

    def __init__(self):
        self.chunks, self.spent = [], 0.0
        self.done = threading.Event()

    def _handler(self, signum, frame):
        t0 = time.thread_time()
        self.chunks.append(calibration_chunk())
        self.spent += time.thread_time() - t0

    def _tick(self):
        while not self.done.wait(CHUNK_EVERY_S):
            signal.pthread_kill(self.main, signal.SIGUSR1)

    def start(self):
        self.main = threading.get_ident()
        self.previous = signal.signal(signal.SIGUSR1, self._handler)
        self.thread = threading.Thread(target=self._tick, daemon=True)
        self.thread.start()

    def stop(self):
        # The helper has sent its last signal once join() returns, and a
        # signal reaches this thread by the end of that system call, so
        # none arrives after the previous handler is back.
        self.done.set()
        self.thread.join()
        signal.signal(signal.SIGUSR1, self.previous)


def pin_fastest_cpu() -> None:
    """Pin this process to the CPU on which a short Fraction loop runs fastest.

    On a shared host the CPUs of one machine run the same loop at speeds
    that differ by up to 2x and swap within seconds, with the load of other
    tenants.  Choosing the fastest CPU before each timed step, outside the
    timed region, keeps some of that noise out; when every CPU is slow it
    cannot help, which is what the scaling in Sample is for.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {min(CPUS, key=_probe_seconds)})


def process_cpu() -> float:
    """CPU seconds of every thread of this process and of its ended children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + usage.ru_utime + usage.ru_stime


class Sample:
    """One timed call: its result (or the exception it raised), its CPU and
    wall seconds, the machine's speed while it ran, and its scaled seconds.

    CPU time (process_cpu) leaves out the time the host takes the vCPU away
    (steal time), which wall time includes; but the share of the host's
    cores and caches this machine gets still moves CPU time by up to 2x,
    from one second to the next.  So a calibration chunk of fixed work runs
    EDGE_CHUNKS times just before and just after the call, on the same CPU,
    and (with `in_call`) once every CHUNK_EVERY_S seconds inside it; their
    CPU time is taken out of the call's.  `speed` is the mean of REF_CHUNK_S /
    chunk seconds, and the scaled time is CPU seconds × speed: the call's
    CPU seconds at the speed the baseline machine has when it is lightly
    loaded.  A change to the package moves the call's CPU time and leaves
    the chunks alone.
    """

    def __init__(self, fn, in_call=True):
        pin_fastest_cpu()
        chunks = [calibration_chunk() for _ in range(EDGE_CHUNKS)]
        inside = _InCallChunks() if in_call and _InCallChunks.available else None
        w0, t0 = time.perf_counter(), process_cpu()
        if inside:
            inside.start()
        try:
            self.result = fn()
        except Exception as ex:  # a failed task is counted; the run goes on
            self.result = ex
        finally:
            if inside:
                inside.stop()
        self.cpu, self.wall = process_cpu() - t0, time.perf_counter() - w0
        if inside:
            self.cpu -= inside.spent
            chunks += inside.chunks
        chunks += [calibration_chunk() for _ in range(EDGE_CHUNKS)]
        self.speed = statistics.fmean(REF_CHUNK_S / c for c in chunks)
        self.scaled = self.cpu * self.speed


def _startup() -> Sample:
    """Interpreter start-up plus package import, in a fresh process.  No
    chunks run during the call: they would compete with the child."""
    code = "import sys; sys.path.insert(0, %r); import entwine.cli" % SRC
    sample = Sample(lambda: subprocess.run(
        [sys.executable, "-c", code], check=True, cwd=ROOT,
        stdin=subprocess.DEVNULL, timeout=60), in_call=False)
    if isinstance(sample.result, Exception):
        raise sample.result
    return sample


class Pass:
    """Answers and per-task seconds of one pass over the task list:
    `times` scaled, `cpus` CPU, `walls` wall-clock, `speeds` the speed each
    time was scaled by (see Sample)."""

    def __init__(self, inst, tasks, main, in_call=True):
        self.outs, self.errors = [], {}
        self.times, self.cpus, self.walls, self.speeds = [], [], [], []
        gc.collect()
        w0 = time.perf_counter()
        for i, task in enumerate(tasks):
            sample = Sample(lambda: inst.run(task, main), in_call=in_call)
            out = sample.result
            if isinstance(out, Exception):
                self.errors[i] = "%s: %s: %s" % (task.label, type(out).__name__, out)
                out = None
            self.outs.append(out)
            self.times.append(sample.scaled)
            self.cpus.append(sample.cpu)
            self.walls.append(sample.wall)
            self.speeds.append(sample.speed)
        self.span = time.perf_counter() - w0  # calibration and pinning included
        self.scaled, self.wall = sum(self.times), sum(self.walls)


def _failures(inst, tasks, passes) -> dict:
    """{(pass number, task index): problem} over every pass.  The first pass
    is checked against the expected answers; later ones must repeat its
    answers byte for byte."""
    failed = {}
    first = passes[0]
    for i, task in enumerate(tasks):
        if first.outs[i] is None:
            failed[1, i] = first.errors[i]
            continue
        found = workloads.check_answer(inst, task, first.outs[i])
        if found:
            failed[1, i] = "; ".join(found)
    for n, later in enumerate(passes[1:], start=2):
        for i, task in enumerate(tasks):
            if later.outs[i] is None:
                failed[n, i] = later.errors[i]
            elif later.outs[i] != first.outs[i]:
                failed[n, i] = "%s: answer differs from pass 1" % task.label
            elif (1, i) in failed:
                failed[n, i] = "%s: repeats a wrong answer" % task.label
    return failed


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(wl, seed, seconds, workdir):
    startup = [_startup() for _ in range(SETUP_REPEATS)]
    builds = [Sample(lambda: workloads.Instance(wl, seed, workdir))
              for _ in range(SETUP_REPEATS)]
    for b in builds:
        if isinstance(b.result, Exception):
            raise b.result
    inst = builds[-1].result
    tasks = wl.tasks
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + max(p.span for p in passes) <= seconds):
        passes.append(Pass(inst, tasks, cli.main))
    problems = _failures(inst, tasks, passes)

    med = statistics.median
    # A pass is timed as the sum of its tasks' medians over the passes, so
    # a burst of machine noise in one pass moves only the tasks it hit.
    task_s = [med([p.times[i] for p in passes]) for i in range(len(tasks))]

    def family_s(family):
        return sum(t for t, task in zip(task_s, tasks) if task.family == family)

    metrics = {
        "pass_ref_s": _metric(sum(task_s), "s"),
        "setup_s": _metric(med([x.scaled for x in startup])
                           + med([x.scaled for x in builds]), "s"),
        "peak_rss_mib": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    detail = {
        "passes": len(passes),
        "pass_cpu_s": [sum(p.cpus) for p in passes],
        "pass_wall_s": [p.wall for p in passes],
        "task_cpu_s": [p.cpus for p in passes],
        "task_speed": [p.speeds for p in passes],
        "setup_samples": {"startup_ref_s": [x.scaled for x in startup],
                          "build_ref_s": [x.scaled for x in builds],
                          "startup_cpu_s": [x.cpu for x in startup],
                          "build_cpu_s": [x.cpu for x in builds]},
        "decide_s": family_s(workloads.DECIDE),
        "structure_s": family_s(workloads.STRUCTURE),
        "task_median_s": {task.label: t for task, t in zip(tasks, task_s)},
    }
    return metrics, detail, problems, len(tasks) * len(passes)


def run_traced(wl, seed, workdir):
    tracer = spans.Tracer(extra_namespaces=(instances, workloads))
    tracer.install()
    t0 = time.perf_counter()
    try:
        inst = workloads.Instance(wl, seed, workdir)
    finally:
        tracer.uninstall()
    traced_setup = time.perf_counter() - t0
    tasks = wl.tasks
    # No chunks inside the calls here: their time would land in the spans.
    plain = Pass(inst, tasks, cli.main, in_call=False)
    tracer.install()
    try:
        traced = Pass(inst, tasks, tracer.wrap("cli.main", cli.main), in_call=False)
    finally:
        tracer.uninstall()
    problems = _failures(inst, tasks, [plain, traced])
    metrics, missing = layer_metrics(tracer.summary(), wl, inst, tasks, traced,
                                     traced_setup + traced.wall)
    metrics["cli.report_bytes"] = _metric(
        sum(len(o) for o, t in zip(traced.outs, tasks)
            if o is not None and not workloads.is_library(t)), "bytes")
    metrics["trace.overhead_frac"] = _metric(traced.scaled / plain.scaled - 1.0,
                                             "frac")
    for group in missing:
        problems["layer", group] = "traced run saw no call in layer %s" % group
    os.makedirs(WORK, exist_ok=True)
    tracer.dump(os.path.join(WORK, "trace-%s.jsonl" % wl.name))
    cli_tasks = [t.label for t in tasks if not workloads.is_library(t)]
    detail = {"untraced_wall_s": plain.wall, "traced_wall_s": traced.wall,
              "traced_setup_s": traced_setup, "spans": len(tracer.spans),
              "decider_call_s": {label: calls for label, calls in zip(
                  cli_tasks, tracer.per_call("cli.main", "criteria.")) if calls}}
    return metrics, detail, problems, 2 * len(tasks)


def _frobenius_candidates(outs, tasks, inst):
    """(candidates swept, enumeration hits) read off the Frobenius verdict logs."""
    candidates = hits = 0
    for out, task in zip(outs, tasks):
        if task.command != "frobenius" or out is None:
            continue
        p = inst.parsed[task.ws].field.p
        for v in json.loads(out)["verdicts"].values():
            last = v["log"][-1]
            if last.startswith("strategy 3: enumeration hit"):
                coeffs = json.loads("[" + last.split("(", 1)[1].rstrip(")").rstrip(",") + "]")
                index = 0
                for c in coeffs:
                    index = index * p + c
                candidates += index + 1
                hits += 1
            elif last.startswith("strategy 3: all"):
                candidates += int(last.split()[3])
    return candidates, hits


def layer_metrics(summary, wl, inst, tasks, traced, traced_s):
    def g(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("exactlin.matmul", "exactlin.kron", "exactlin.rref",
                 "exactlin.affine_matrix_system", "exactlin.mat_solution_basis",
                 "exactlin.solve_affine", "exactlin.cokernel",
                 "exactlin.restrict_map", "report.eq_check"):
        m[name + ".calls"] = _metric(g(name)["calls"], "count")
    for name in ("exactlin.matmul", "exactlin.kron", "exactlin.elementwise",
                 "exactlin.rref", "exactlin.affine_matrix_system",
                 "exactlin.mat_solution_basis", "exactlin.kernel_basis",
                 "exactlin.solve_affine", "report.eq_check", "algstruct.check",
                 "entwining.check_entwining"):
        m[name + ".self_s"] = _metric(g(name)["self_s"], "s")
    mm, kr, rr = g("exactlin.matmul"), g("exactlin.kron"), g("exactlin.rref")
    m["exactlin.matmul.scanned"] = _metric(mm.get("scanned", 0), "count")
    m["exactlin.matmul.useful"] = _metric(mm.get("useful", 0), "count")
    m["exactlin.matmul.useful_frac"] = _metric(
        ratio(mm.get("useful", 0), mm.get("scanned", 0)), "frac")
    m["exactlin.kron.entries"] = _metric(kr.get("entries", 0), "count")
    m["exactlin.kron.fill"] = _metric(ratio(kr.get("nonzero", 0), kr.get("entries", 0)),
                                      "frac")
    m["exactlin.rref.cells"] = _metric(rr.get("cells", 0), "count")
    m["exactlin.rref.max_bits"] = _metric(rr.get("max_bits", 0), "bits")
    for name in ("exactlin.affine_matrix_system", "exactlin.mat_solution_basis"):
        m[name + ".unit_evals"] = _metric(g(name).get("unit_evals", 0), "count")
    m["exactlin.solve_affine.infeasible"] = _metric(
        g("exactlin.solve_affine").get("infeasible", 0), "count")
    # Layers that only some workloads reach: share of the traced time.
    for name in ("exactlin.cokernel", "exactlin.restrict_map",
                 "comodcat.hom_space", "comodcat.induce",
                 "contracat.contra_hom_space", "contracat.induce",
                 "measuring.functors", "measuring.adjunction", "measuring.galois",
                 "criteria.separability", "criteria.cointegral",
                 "criteria.frobenius", "criteria.semisimplicity_probe"):
        m[name + ".share"] = _metric(ratio(g(name)["s"], traced_s), "frac")
    candidates, hits = _frobenius_candidates(traced.outs, tasks, inst)
    m["criteria.frobenius.solves"] = _metric(g("criteria.frobenius").get("solves", 0),
                                             "count")
    m["criteria.frobenius.candidates"] = _metric(candidates, "count")
    m["criteria.frobenius.hit_frac"] = _metric(ratio(hits, candidates), "frac")
    unknown = 0
    for out, task in zip(traced.outs, tasks):
        if out is not None and task.command in ("separability", "cointegral", "frobenius"):
            doc = json.loads(out)
            verdicts = doc["verdicts"].values() if "verdicts" in doc else [doc["verdict"]]
            unknown += sum(v["status"] == "UNKNOWN" for v in verdicts)
    m["criteria.unknown"] = _metric(unknown, "count")
    m["cli.parse_workspace.s"] = _metric(g("cli.parse_workspace")["s"], "s")
    m["cli.overhead_s"] = _metric(g("cli.main")["s"] - g("cli.command")["s"], "s")
    missing = [name for name in wl.layers if g(name)["calls"] == 0]
    return m, missing


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = workloads.WORKLOADS.get(name)
    if wl is None:
        print("error: unknown workload %r (have %s)"
              % (name, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, "%s-%d-%d" % (wl.name, seed, os.getpid()))
    os.makedirs(workdir)
    try:
        if trace:
            metrics, detail, problems, attempted = run_traced(wl, seed, workdir)
        else:
            metrics, detail, problems, attempted = run_untraced(wl, seed, seconds,
                                                                workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if CPUS:
            os.sched_setaffinity(0, CPUS)
    for line in problems.values():
        print("problem: %s" % line, file=sys.stderr)
    failed = sum(1 for key in problems if key[0] != "layer")
    detail["workload"], detail["seed"] = wl.name, seed
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
