"""quditmbqc benchmark runner.

    python3 perfbench/run.py --workload compile_prime --seed 1 --seconds 20 --trace 0

Runs one workload in this process on one thread.  The seed fixes every
input.  With --trace 0 it makes a fixed number of whole passes over the op
list, round(--seconds / the workload's pass_s), scales every time to the
reference pace of the host (ops.Pace), takes each op at its median pass,
and reports the end-to-end metrics; with --trace 1 it runs the list
traced, untraced and traced again, and reports per-layer self times and
counters, the tracing overhead, and whether the counters of the two traced
passes agree.  Human-readable lines come first; the last line of standard
output is one JSON object.

The package is imported from src/ of the checkout this file sits in; the
run fails (exit 1, no result line) when that source tree is missing.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

from ops import PROBE_REF_S, Pace, Stages, Stopwatch, WrongAnswer  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# builds of the op list per run: one before the passes, the rest spread
# over them, so set-up meets the host's slow and fast spells as the ops do
SETUP_BUILDS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END = [  # (name, unit)
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [  # (name, unit)
    ("compiler.compile_general_prime.self_s", "s"),
    ("compiler.compile_odd_ring.self_s", "s"),
    ("compiler.verify.self_s", "s"),
    ("engine.MbqcPlan.init.self_s", "s"),
    ("engine.MbqcPlan.save.self_s", "s"),
    ("engine.MbqcPlan.load.self_s", "s"),
    ("engine.extract_output_function.calls", "count"),
    ("engine.extract_output_function.self_s", "s"),
    ("engine.is_deterministic.self_s", "s"),
    ("weyl.conjugate_weyl.calls", "count"),
    ("weyl.conjugate_weyl.self_s", "s"),
    ("states.eigenphase_of.calls", "count"),
    ("states.eigenphase_of.self_s", "s"),
    ("states.MonomialOp.compose.calls", "count"),
    ("engine.run.calls", "count"),
    ("engine.run.self_s", "s"),
    ("engine.site_observable.calls", "count"),
    ("states.measurement_distribution.calls", "count"),
    ("states.measurement_distribution.self_s", "s"),
    ("states.support_in.max", "count"),
    ("states.support_in.sum", "count"),
    ("states.branch_yield", "ratio"),
    ("phases.PhaseSum.calls", "count"),
    ("engine.output_distribution.calls", "count"),
    ("engine.output_distribution.self_s", "s"),
    ("engine.empirical_success.self_s", "s"),
    ("fields.interpolate.self_s", "s"),
    ("fields.closure_generate.self_s", "s"),
    ("fields.is_polynomial_over_ring.self_s", "s"),
    ("witnesses.ncva_search.calls", "count"),
    ("witnesses.ncva_search.self_s", "s"),
    ("witnesses.nu_distance.self_s", "s"),
    ("witnesses.degree_witness.calls", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
]


def import_program():
    """Import quditmbqc from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "quditmbqc", "__init__.py")):
        sys.exit(f"perfbench: no package sources at {os.path.relpath(SRC)}/quditmbqc")
    sys.path.insert(0, SRC)
    import quditmbqc
    if not os.path.abspath(quditmbqc.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: quditmbqc was imported from outside this checkout")


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def execute(op, limit_s, stages, tracer=None):
    """Run one op under its limit; returns (seconds, status, detail)."""
    checkpoint = tracer.checkpoint() if tracer else None
    status, detail = "ok", ""
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    t0 = time.perf_counter()
    try:
        op.fn(stages)
    except OpTimeout:
        status, detail = "timeout", f"reached the {limit_s:g} s limit"
    except WrongAnswer as exc:
        status, detail = "wrong", str(exc)
    except Exception as exc:  # an op that ends in a traceback has failed
        status, detail = "exception", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0
    if status == "timeout" and tracer:
        # partial work before the limit depends on machine speed
        tracer.rollback(checkpoint)
    return dt, status, detail


class Result:
    """Outcome of executing passes over an op list."""

    def __init__(self, n_ops: int):
        # seconds per execution, scaled to the reference pace
        self.per_op: list[list[float]] = [[] for _ in range(n_ops)]
        self.raw_s = 0.0  # summed op time as measured
        self.failures: list[tuple[str, str, str, bool]] = []  # kind, status, detail, known
        self.stages = Stages()
        self.wall_s = 0.0

    @property
    def attempted(self) -> int:
        return sum(map(len, self.per_op))

    @property
    def op_s(self) -> float:
        return sum(map(sum, self.per_op))

    @property
    def unexpected(self):
        return [f for f in self.failures if not f[3]]

    def absorb(self, other: "Result") -> None:
        """Count the executions and failures of another result as this one's."""
        self.per_op += other.per_op
        self.failures += other.failures


def run_ops(ops, limit_s, pace, passes=1, tracer=None, rebuild=None, rebuilds=0) -> Result:
    """Execute `passes` whole passes over ops, and call rebuild() `rebuilds`
    times at evenly spaced points between the executions, the last after
    them.  Whole passes keep the mix of op kinds the same however fast the
    program is.  Each op time is scaled by the pace probed around it."""
    res = Result(len(ops))
    schedule = [k for _ in range(passes) for k in range(len(ops))]
    due = [len(schedule) * j // rebuilds for j in range(1, rebuilds + 1)]
    opened = []  # per execution: (op index, seconds, probe that opened it)
    start = time.perf_counter()
    for pos, k in enumerate(schedule):
        while due and due[0] <= pos:
            due.pop(0)
            rebuild()
        op = ops[k]
        mark = pace.mark()
        dt, status, detail = execute(op, limit_s, res.stages, tracer)
        opened.append((k, dt, mark))
        if status != "ok":
            known = status != "wrong" and op.known_defect == (
                "timeout" if status == "timeout" else "exception")
            res.failures.append((op.kind, status, detail, known))
    pace.probe()
    for _ in due:
        rebuild()
    res.wall_s = time.perf_counter() - start
    for k, dt, mark in opened:
        res.per_op[k].append(dt * pace.scale(mark))
        res.raw_s += dt
    return res


def tail(samples):
    """Highest order statistic with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * idx / len(ordered)


def split_late(ops):
    """Measured ops, and the known-defect ops that run into their limit.
    The latter run once after the measurement: their time and memory are
    set by the limit, not by the program."""
    late = [op for op in ops if op.known_defect == "timeout"]
    return [op for op in ops if op.known_defect != "timeout"], late


def untraced(workload, seed, seconds, workdir):
    pace = Pace()
    setup_times = []

    def build():
        pace.probe()
        program = Stopwatch()
        ops = workload.setup(seed, workdir, program)
        pace.probe()
        setup_times.append(program.total * pace.scale(len(pace.marks) - 2))
        return ops

    ops, late = split_late(build())
    passes = max(1, round(seconds / workload.pass_s))
    res = run_ops(ops, workload.op_limit_s, pace, passes,
                  rebuild=build, rebuilds=SETUP_BUILDS - 1)
    # each op at its median over the passes, in seconds at the reference pace
    per_op = [statistics.median(times) for times in res.per_op]
    n = len(per_op)
    tail_s, tail_pct = tail(per_op)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n / sum(per_op),
        "op_s.p50": statistics.median(per_op),
        "op_s.tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    res.absorb(run_ops(late, workload.op_limit_s, pace))
    attempted = res.attempted
    probes = [s for _, s in pace.marks]
    lines = [f"setup: median over {len(setup_times)} builds of the op list of the time "
             f"spent in the package; builds {min(setup_times):.4f}..{max(setup_times):.4f} s",
             f"ops: {n} in the list, {passes} pass(es) in {res.wall_s:.3f} s; "
             f"timings are each op's median pass at the reference pace",
             f"pace: {len(probes)} probes, median {statistics.median(probes) * 1e3:.3f} ms "
             f"(reference {PROBE_REF_S * 1e3:g} ms), range {min(probes) * 1e3:.3f}.."
             f"{max(probes) * 1e3:.3f} ms; ops took {res.raw_s:.3f} s as measured, "
             f"{res.op_s:.3f} s at the reference pace",
             f"op_s.tail is p{tail_pct:.1f} of {n} ops ({TAIL_BEYOND} beyond it)",
             f"ops_failed_share {len(res.failures) / attempted:.6f} "
             f"({len(res.failures)} of {attempted}, {len(late)} op(s) run once "
             "after the measurement)"]
    by_kind = defaultdict(list)
    for op, t in zip(ops, per_op):
        by_kind[op.kind].append(t)
    for kind, vals in sorted(by_kind.items()):
        lines.append(f"  {kind:<28} {len(vals):4d} ops  {sum(vals):9.4f} s  "
                     f"median {statistics.median(vals):.5f} s")
    for stage, vals in res.stages.samples.items():
        if stage == "plan_bytes":
            lines.append(f"plan_bytes {statistics.mean(vals):.1f} bytes (mean of {len(vals)} files)")
        else:
            lines.append(f"{stage}.p50 {statistics.median(vals):.6f} s ({len(vals)} samples, "
                         "as measured)")
    return metrics, res, lines


def traced(workload, seed, workdir):
    ops, late = split_late(workload.setup(seed, workdir, Stopwatch()))
    pace = Pace()

    def traced_pass():
        tracer = Tracer()
        tracer.install()
        try:
            return tracer, run_ops(ops, workload.op_limit_s, pace, tracer=tracer)
        finally:
            tracer.uninstall()

    # traced, untraced, traced: the mean of the two traced passes sits at
    # the same time as the untraced one, so a steady drift of the host cancels
    tracer1, res1 = traced_pass()
    base = run_ops(ops, workload.op_limit_s, pace)
    tracer, res = traced_pass()
    traced_s = (res1.op_s + res.op_s) / 2
    untraced_s = base.op_s
    counts, selfs = tracer.call_counts(), tracer.self_times()
    fingerprint = [(t.call_counts(), r.stages.samples.get("plan_bytes"), len(r.failures))
                   for t, r in ((tracer1, res1), (tracer, res))]
    repeat_ok = fingerprint[0] == fingerprint[1]
    metrics = {}
    for name, unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = counts.get(layer, 0)
        elif field == "self_s":
            metrics[name] = selfs.get(layer, 0.0)
    metrics["states.support_in.max"] = counts.get("states.support_in.max", 0)
    metrics["states.support_in.sum"] = counts.get("states.support_in.sum", 0)
    slots = counts.get("states.branch_slots", 0)
    metrics["states.branch_yield"] = counts.get("states.branches", 0) / slots if slots else 0.0
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    res.absorb(run_ops(late, workload.op_limit_s, pace))
    lines = [f"{len(ops)} ops at the reference pace: {traced_s:.3f} s traced (mean of two "
             f"passes), {untraced_s:.3f} s untraced; as measured {res.raw_s:.3f} s in the "
             f"last traced pass, {len(tracer.spans)} spans",
             "counters repeat across the two traced passes: " + ("yes" if repeat_ok else "NO")]
    loads = [end - start for name, start, end, *_ in tracer.spans
             if name == "engine.MbqcPlan.load"]
    if loads:
        lines.append(f"load_s.p50 {statistics.median(loads):.6f} s "
                     f"({len(loads)} MbqcPlan.load spans, as measured)")
    return metrics, [res1, base, res], lines, repeat_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_program()
    import numpy
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    # a terminated run still removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.trace:
            metrics, passes, lines, repeat_ok = traced(workload, args.seed, workdir)
            units = dict(PER_LAYER)
        else:
            metrics, res, lines = untraced(workload, args.seed, args.seconds, workdir)
            passes, repeat_ok, units = [res], True, dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(WORK)

    main_pass = passes[-1]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"environment: python {platform.python_version()}, numpy {numpy.__version__}, "
          f"cpus {os.cpu_count()}")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    unexpected = [f for p in passes for f in p.unexpected]
    for (kind, status, detail, known), count in Counter(main_pass.failures).items():
        print(f"failed op {kind} x{count}: {status} ({detail[:120]})"
              + ("  [known defect]" if known else ""))
    for (kind, status, detail, _), count in Counter(unexpected).items():
        print(f"UNEXPECTED failure {kind} x{count}: {status} ({detail[:120]})")
    result = {
        "correct": not unexpected and repeat_ok,
        "attempted": main_pass.attempted,
        "failed": len(main_pass.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
