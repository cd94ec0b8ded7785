"""The three workloads: seeded op lists with their correctness checks.

setup(seed, workdir, program) builds one fixed op list; the same seed gives
the same list.  The calls into the package that set-up makes (compiling and
building plans) run inside `with program:`; generating inputs and computing
references stay outside, so set-up time is the program's only.

Each op is a closure that calls only public functions of the package
(through their module attributes, so the tracer's rebinding applies),
records stage timings, and raises WrongAnswer when a result disagrees with
the reference computed during setup.  The order is shuffled, so a slow
spell of the host falls on a mix of op kinds rather than on one.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

from quditmbqc import cli, compiler, engine, fields, witnesses

import reference as ref
from ops import Op, Stages, Stopwatch, Workload, clock, expect


# -- compile_prime -----------------------------------------------------------

# (constructor, d, copies per list).  The dear sizes, where sparse T
# (ROADMAP item 4) pays most, are the 13 slowest of the 33 ops (p=13, p=11,
# d=27 x2, d=21 x9), so op_s.tail, the 11th slowest, is a d=21 compile and
# the dearer ones weigh on ops_per_s; the median is the middle one of the
# eight p=7 compiles.  Neither percentile sits on the border between two
# sizes, where it would jump from seed to seed.  A pass takes about 15 s
# at the reference pace, so a run at --seconds 20 makes one.
COMPILE_MIX = [
    ("prime", 7, 8), ("prime", 11, 1), ("prime", 13, 1),
    ("odd", 15, 4), ("odd", 21, 9), ("odd", 27, 2),
]
MALFORMED_BASE_P = 7  # malformed files are mutations of a compiled p=7 plan

# mutation of the compiled base plan -> expected to exit 4
MALFORMED = {
    "non_triangular_T": lambda o: o["T"][0].__setitem__(1, 1),
    "d_zero": lambda o: o.__setitem__("d", 0),
    "short_z": lambda o: o.__setitem__("z", o["z"][:-1]),
    "ket_out_of_range": lambda o: o["resource"]["terms"][0]["ket"].__setitem__(0, o["d"]),
    "non_symplectic_C": lambda o: o["parties"][0].__setitem__(
        "control", {"C": [[1, 1], [1, 1]], "x": [0, 0], "tau_exp": 0}),
    "missing_Q": lambda o: o.pop("Q"),
}
# these end in a traceback today instead of exit 4 (ROADMAP item 5)
MALFORMED_KNOWN = {"non_triangular_T", "d_zero", "short_z", "ket_out_of_range",
                   "non_symplectic_C"}


def cli_analyze(path: str) -> tuple[int, dict | None]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["analyze", "--plan", path, "--json"])
    return code, (json.loads(out.getvalue()) if code == 0 else None)


def _compile_op(name: str, args: tuple, path: str, table: list[int],
                golden: bytes | None = None):
    def op(st: Stages):
        # looked up per call, so a traced run sees the rebound name
        report = st.time("compile_s", getattr(compiler, name), *args)
        expect(report.verified, "compiled plan not verified")
        st.time("write_s", report.plan.save, path)
        if golden is not None:
            with open(path, "rb") as fh:
                expect(fh.read() == golden, "plan file differs from the golden bytes")
        st.samples["plan_bytes"].append(os.path.getsize(path))
        code, out = st.time("analyze_s", cli_analyze, path)
        expect(code == 0, f"analyze exited {code}")
        expect(out["table"] == table, "analyzed table differs from the target")

    return op


def _malformed_op(path: str, text: str):
    def op(st: Stages):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, _ = cli_analyze(path)
        expect(code == 4, f"malformed plan exited {code}, expected 4")

    return op


def setup_compile_prime(seed: int, workdir: str, program: Stopwatch) -> list[Op]:
    rng = random.Random(seed)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "tests", "golden", "nand_plan.json"), "rb") as fh:
        golden = fh.read()
    ops = [Op("nand", _compile_op("compile_nand", (), os.path.join(workdir, "nand.json"),
                                  [1, 1, 1, 0], golden))]
    p = MALFORMED_BASE_P
    table = ref.random_table(rng, p)
    with program:
        base = compiler.compile_general_prime(table, p).plan.to_json()
    for case, mutate in MALFORMED.items():
        obj = json.loads(json.dumps(base))
        mutate(obj)
        path = os.path.join(workdir, f"malformed_{case}.json")
        ops.append(Op(f"malformed.{case}", _malformed_op(path, json.dumps(obj)),
                      "exception" if case in MALFORMED_KNOWN else None))
    path = os.path.join(workdir, "truncated.json")
    ops.append(Op("malformed.truncated_json", _malformed_op(path, json.dumps(base)[:-40])))
    for kind, d, copies in COMPILE_MIX:
        name = "compile_general_prime" if kind == "prime" else "compile_odd_ring"
        for c in range(copies):
            table = ref.random_table(rng, d)
            path = os.path.join(workdir, f"{kind}{d}_{c}.json")
            ops.append(Op(f"{kind}{d}", _compile_op(name, (table, d), path, table)))
    rng.shuffle(ops)
    return ops


# -- simulate ----------------------------------------------------------------

# (d, N, copies) of the random GHZ plans; each copy appears flat and ordered.
# With the counts in setup_simulate, the median op is a p=5 run and the tail
# a p=7 run on every seed: cost-stable blocks rather than random plans.
GHZ_GRID = [(2, 3, 3), (2, 4, 3), (2, 5, 3), (3, 3, 3), (3, 4, 3), (3, 5, 3),
            (5, 3, 4), (5, 4, 4)]


def _run_op(plan, i, seed: int, allowed: set[int]):
    def op(st: Stages):
        out = engine.run(plan, i, seed).output
        expect(out in allowed, f"output {out} outside the exact support {sorted(allowed)}")

    return op


def setup_simulate(seed: int, workdir: str, program: Stopwatch) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []

    def runs(kind, plan, table, count, known=None):
        inputs = sorted(table)
        for c in range(count):
            i = inputs[c % len(inputs)]
            ops.append(Op(kind, _run_op(plan, i, rng.randrange(2**32), {table[i]}), known))

    with program:
        nand, quadratic3 = compiler.compile_nand().plan, compiler.compile_quadratic(3).plan
    runs("nand", nand, ref.nand_table(), 4)
    runs("quadratic3", quadratic3, ref.quadratic_table(3), 12)
    for kind, build, d, count in [("prime5", compiler.compile_general_prime, 5, 24),
                                  ("prime7", compiler.compile_general_prime, 7, 16),
                                  ("odd15", compiler.compile_odd_ring, 15, 8)]:
        m = ref.random_table(rng, d)
        with program:
            plan = build(m, d).plan
        runs(kind, plan, {(x,): m[x] for x in range(d)}, count)
    # known defect: support grows to ~d^(N+1); today this run hits the limit.
    # run.py runs it once, after the measured passes.
    with program:
        quadratic5 = compiler.compile_quadratic(5).plan
    runs("quadratic5", quadratic5, ref.quadratic_table(5), 1, known="timeout")
    for d, N, copies in GHZ_GRID:
        for ordered in (False, True):
            for _ in range(copies):
                n = rng.choice([1, 2])
                with program:  # rng draws and plan construction
                    plan = ref.random_ghz_plan(rng, d, N, n, ordered)
                i = tuple(rng.randrange(d) for _ in range(n))
                support = set(ref.exact_output_distribution(plan, i))
                kind = f"ghz{d}.{N}.{'ordered' if ordered else 'flat'}"
                ops.append(Op(kind, _run_op(plan, i, rng.randrange(2**32), support)))
    rng.shuffle(ops)
    return ops


# -- analyze_small -----------------------------------------------------------

# (d, N, n, copies) of the random GHZ plans; half flat, half ordered.
# The mix is many quick checks of small tables and plans (ring tests,
# witness pipelines) and fewer dear ones (exact distributions, closures).
# The median is a witness run on a compiled p=3 plan and the tail a d=5
# closure, two kinds whose cost barely moves with the seed; the table
# witnesses and small distributions vary with the seed by up to 60 %, so
# the counts keep both percentiles away from them.
DIST_GRID = [
    (2, 3, 2, 5), (2, 4, 2, 5), (3, 3, 1, 10), (3, 3, 2, 10), (5, 2, 1, 12),
]


def _distribution_op(plan, dense: dict, use_success: bool):
    inputs = plan.inputs()
    target = {i: max(sorted(dense[i]), key=dense[i].get) for i in inputs}
    want = [dense[i].get(target[i], 0.0) for i in inputs]

    def op(st: Stages):
        if use_success:
            p_min, p_avg = st.time("exact_dist_s", engine.empirical_success, plan, target)
            expect(abs(float(p_min) - min(want)) < 1e-7
                   and abs(float(p_avg) - sum(want) / len(want)) < 1e-7,
                   "success probabilities differ from the dense reference")
        else:
            t0 = clock()
            dists = [engine.output_distribution(plan, i) for i in inputs]
            st.samples["exact_dist_s"].append(clock() - t0)
            expect(all(ref.same_distribution(p, dense[i]) for p, i in zip(dists, inputs)),
                   "output distribution differs from the dense reference")

    return op


def _check_polynomial(poly, table: dict, d: int) -> None:
    expect(all(ref.eval_poly(poly.coeffs, x, d) == v % d for x, v in table.items()),
           "polynomial does not reproduce the table")
    degree = max((sum(e) for e in poly.coeffs), default=0)
    verdict = witnesses.degree_witness(poly).verdict
    expect(verdict == ("strongly-nonlocal" if degree >= d else "inconclusive"),
           "degree witness disagrees with the combined degree")


def _check_threshold(p_worst, p_avg, nu: int, d: int, n: int) -> None:
    rep = witnesses.threshold_check(p_worst, p_avg, nu, d, n)
    threshold = 1 - Fraction(2 * nu, (d - 1) * d**n)
    expect(rep.threshold == threshold and rep.exceeded == (p_worst > threshold)
           and rep.ncf_bound == ((1 - p_avg) / nu if nu else None),
           "threshold arithmetic")


def _plan_witness_op(plan, table: dict):
    d, n = plan.d, plan.n
    nu = ref.min_cycle_distance(table, d, n) if d % 2 else None

    def op(st: Stages):
        t0 = clock()
        got, poly = engine.extract_output_function(plan)
        expect(got == {i: v % d for i, v in table.items()}, "extracted table")
        _check_polynomial(poly, table, d)
        expect(witnesses.temporal_degree_bound(plan)
               == (d - 1) ** ref.longest_temporal_path(plan), "temporal degree bound")
        w = witnesses.ncva_search(plan, got)
        if w.verdict == "ncva-found":
            expect(ref.assignment_matches(plan, got, w.assignment), "ncva certificate")
        if nu is not None:
            dist, _ = witnesses.nu_distance(got, d, n)
            expect(dist == nu, "nu distance")
            _check_threshold(Fraction(1), Fraction(1), dist, d, n)
        st.samples["witness_s"].append(clock() - t0)

    return op


def _table_witness_op(table: dict, d: int, n: int, p_worst: Fraction, p_avg: Fraction):
    nu = ref.min_cycle_distance(table, d, n)

    def op(st: Stages):
        t0 = clock()
        poly = fields.interpolate(fields.make_field(d), table)
        _check_polynomial(poly, table, d)
        dist, best = witnesses.nu_distance(table, d, n)
        expect(dist == nu and ref.cycle_distance(table, best.coeffs, d) == nu, "nu distance")
        _check_threshold(p_worst, p_avg, dist, d, n)
        st.samples["witness_s"].append(clock() - t0)

    return op


def _closure_op(g, d: int):
    def op(st: Stages):
        out = fields.closure_generate(g)
        size = len(out)
        while size % d == 0:
            size //= d
        expect(size == 1 and g in out, "closure is not a span containing g")
        consts = {p.coeffs.get((0,) * g.n, 0) for p in out
                  if max(map(sum, p.coeffs), default=0) == 0}
        expect(len(consts) == d, "closure misses the constants")

    return op


def _ring_op(table: dict, d: int):
    def op(st: Stages):
        poly = fields.is_polynomial_over_ring(table, d)
        expect(poly is not None and all(ref.eval_poly(poly.coeffs, x, d) == v
                                        for x, v in table.items()),
               "ring polynomial does not reproduce the table")

    return op


def setup_analyze_small(seed: int, workdir: str, program: Stopwatch) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for d, N, n, copies in DIST_GRID:
        for c in range(copies):
            with program:  # rng draws and plan construction
                plan = ref.random_ghz_plan(rng, d, N, n, ordered=c % 2 == 1)
            dense = {i: ref.exact_output_distribution(plan, i) for i in plan.inputs()}
            ops.append(Op(f"dist{d}.{N}.{n}", _distribution_op(plan, dense, c % 4 < 2)))
    with program:
        plans = [(compiler.compile_nand(), 4), (compiler.compile_quadratic(3), 4)]
    for _ in range(8):
        exponent = rng.choice([2, 3])
        with program:
            plans.append((compiler.compile_exponential(5, exponent), 1))
    for _ in range(40):
        table = ref.random_table(rng, 3)
        with program:
            plans.append((compiler.compile_general_prime(table, 3), 1))
    for report, copies in plans:
        for _ in range(copies):
            ops.append(Op(f"witness.{report.construction}",
                          _plan_witness_op(report.plan, report.target)))
    for d, n, copies in [(3, 2, 12), (5, 1, 12)]:
        for _ in range(copies):
            table = {x: rng.randrange(d) for x in fields.all_points(fields.make_field(d), n)}
            p_worst = Fraction(rng.randrange(1, 11), 10)
            p_avg = Fraction(rng.randrange(1, 11), 10)
            ops.append(Op(f"witness.table{d}", _table_witness_op(table, d, n, p_worst, p_avg)))
    for d, n, copies in [(3, 2, 1), (5, 1, 12)]:
        # a nonzero top-degree coefficient makes the span every function,
        # so each closure op enumerates the same number of polynomials
        mons = list(itertools.product(range(d), repeat=n))
        for _ in range(copies):
            coeffs = {e: rng.randrange(d) for e in mons}
            coeffs[mons[-1]] = rng.randrange(1, d)
            g = fields.MultiPoly(fields.make_field(d), n, coeffs)
            ops.append(Op(f"closure{d}", _closure_op(g, d)))
    for d in (9, 15):
        for _ in range(40):
            coeffs = {(e,): rng.randrange(d) for e in range(d)}
            table = {(x,): ref.eval_poly(coeffs, (x,), d) for x in range(d)}
            ops.append(Op(f"ring{d}", _ring_op(table, d)))
    rng.shuffle(ops)
    return ops


# (name, per-op limit s, seconds per pass on the parent commit, setup)
WORKLOADS = {
    "compile_prime": Workload("compile_prime", 60.0, 15.0, setup_compile_prime),
    "simulate": Workload("simulate", 1.0, 4.2, setup_simulate),
    "analyze_small": Workload("analyze_small", 30.0, 7.0, setup_analyze_small),
}
