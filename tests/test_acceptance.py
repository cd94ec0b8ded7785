"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every assertion is exact unless a numeric tolerance is stated.
"""

import itertools
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

from quditmbqc.compiler import (
    compile_exponential,
    compile_general_prime,
    compile_nand,
    compile_odd_ring,
    compile_quadratic,
)
from quditmbqc.engine import (
    MbqcPlan,
    TableResource,
    weighted_observable,
    empirical_success,
    extract_output_function,
    run,
    temporal_graph,
    longest_path,
)
from quditmbqc.errors import SizeGuardError
from quditmbqc.fields import (
    MultiPoly,
    closure_generate,
    combined_degree,
    enumerate_subspace,
    interpolate,
    make_field,
)
from quditmbqc.states import (
    MonomialOp,
    basis_state,
    clifford_unitary,
    dense_oracle,
    eigenphase_of,
)
from quditmbqc.weyl import CliffordSpec, WeylLabel, conjugate_weyl, named_clifford
from quditmbqc.witnesses import (
    NCVA_FOUND,
    STRONGLY_NONLOCAL,
    degree_witness_for_table,
    ncva_search,
    nu_distance,
    temporal_degree_bound,
    threshold_check,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def report(num, label):
    print(f"ACCEPTANCE {num:2d} PASS  {label}")


def test_criterion_01_nand_reproduction():
    rep = compile_nand()
    table, _ = extract_output_function(rep.plan)
    expect = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    assert table == expect
    for i in sorted(expect):
        for seed in range(100):
            assert run(rep.plan, i, seed).output == expect[i]
    report(1, "NAND table (1,1,1,0), analytic and 100 seeded runs per input")


def test_criterion_02_nand_strong_nonlocality():
    w = ncva_search(compile_nand().plan)
    assert w.verdict == STRONGLY_NONLOCAL
    assert w.searched == 64
    report(2, "NAND assignment search exhausts all 64 assignments")


def test_criterion_03_quadratic_examples():
    for d in (3, 5):
        rep = compile_quadratic(d)
        table, _ = extract_output_function(rep.plan)
        assert table == {(i,): (i * (i - 1) // 2) % d for i in range(d)}
    plan3 = compile_quadratic(3).plan
    for i in plan3.inputs():
        M = weighted_observable(plan3, i)
        assert eigenphase_of(M, plan3.resource) == dense_oracle(M, plan3.resource)
    report(3, "quadratic output i(i-1)/2 for d=3,5; d=3 dense backend agrees")


def test_criterion_04_exponential_example():
    rep = compile_exponential(5, 2)
    table, _ = extract_output_function(rep.plan)
    assert [table[(i,)] for i in range(5)] == [1, 3, 4, 2, 1]
    w = ncva_search(rep.plan, rep.target)
    assert w.verdict == NCVA_FOUND
    report(4, "exponential table (1,3,4,2,1) with a local assignment")


def test_criterion_05_exponent_table_byte_exact():
    proc = subprocess.run(
        [sys.executable, "-m", "quditmbqc", "table", "--appendix-b", "--p", "5"],
        capture_output=True, check=True,
        cwd=GOLDEN.parent.parent / "src",  # the child imports the package from the checkout
    )
    assert proc.stdout == (GOLDEN / "appendix_b_p5.txt").read_bytes()
    assert b"sigma_5 : 1 0 0 0 1" in proc.stdout
    report(5, "p=5 exponent table byte-exact incl. sigma_5 = (1,0,0,0,1)")


def test_criterion_06_local_universality():
    for m in itertools.product(range(3), repeat=3):
        assert compile_general_prime(list(m)).verified
    rng = random.Random(2024)
    for _ in range(50):
        m = [rng.randrange(5) for _ in range(5)]
        rep = compile_general_prime(m)
        assert rep.verified and rep.qudit_count == 80
    report(6, "all 27 tables compile for p=3; 50 random tables on 80 qudits for p=5")


def test_criterion_07_interpolation_round_trip():
    rng = random.Random(777)
    cases = 0
    for d in (2, 3, 5, 4):
        field = make_field(d)
        elems = field.elements()
        for _ in range(50):
            n = rng.choice((1, 2))
            points = list(itertools.product(elems, repeat=n))
            table = {x: rng.choice(elems) for x in points}
            poly = interpolate(field, table)
            assert all(poly.evaluate(x) == table[x] for x in points)
            assert all(max(e, default=0) <= d - 1 for e in poly.coeffs)
            cases += 1
    assert cases == 200
    report(7, "200 random tables round-trip exactly over Z_2, Z_3, Z_5, GF(4)")


def test_criterion_08_closure_law():
    f = make_field(3)
    x = MultiPoly.variable(f, 1, 0)
    x2 = MultiPoly(f, 1, {(2,): 1})
    got1 = closure_generate(x)
    got2 = closure_generate(x2)
    assert got1 == enumerate_subspace(f, 1, 1) and len(got1) == 9
    assert got2 == enumerate_subspace(f, 1, 2) and len(got2) == 27
    report(8, "closure of x and x^2 over Z_3 equals the degree-1 and degree-2 classes")


def test_criterion_09_degree_witness_consistency():
    reports = [
        compile_nand(), compile_quadratic(3), compile_quadratic(5),
        compile_exponential(3, 2), compile_exponential(5, 2),
        compile_general_prime([1, 0, 0]), compile_odd_ring([1, 0, 0]),
    ]
    for rep in reports:
        table, poly = extract_output_function(rep.plan)
        if rep.construction == "nand-ghz":
            continue  # the NAND plan is the intended non-classical exception
        if poly is not None:
            assert combined_degree(poly) <= rep.plan.d - 1
        try:
            assert ncva_search(rep.plan, table).verdict == NCVA_FOUND
        except SizeGuardError:
            pass
    mapping = {q: ((q[0] * q[1]) % 2, 0) for q in itertools.product(range(2), repeat=2)}
    plan = MbqcPlan(
        d=2, n=2, N=2, resource=TableResource.deterministic(2, mapping),
        parties=[(WeylLabel(2, (1, 0)), named_clifford(2, "weyl-displacement", x=(0, 0)))] * 2,
        Q=[[1, 0], [0, 1]], T=[[0, 0]] * 2, z=[1, 0], s0=0,
    )
    table, _ = extract_output_function(plan)
    assert degree_witness_for_table(table, 2).verdict == STRONGLY_NONLOCAL
    assert ncva_search(plan, table).verdict == STRONGLY_NONLOCAL
    report(9, "compiled plans stay below degree d with assignments; i1*i2 table flags non-local")


def test_criterion_10_temporal_bound():
    d = 3
    fid = WeylLabel(d, (1, 0))
    ident = named_clifford(d, "weyl-displacement", x=(0, 0))
    chained = MbqcPlan(d=d, n=1, N=2, resource=basis_state(d, (0, 0)),
                       parties=[(fid, ident)] * 2, Q=[[0]] * 2,
                       T=[[0, 0], [1, 0]], z=[1, 1], s0=0)
    assert longest_path(temporal_graph(chained)) == 2
    assert temporal_degree_bound(chained) == 4
    assert temporal_degree_bound(compile_nand().plan) == 1
    report(10, "chained |l|=2 at d=3 gives bound 4; flat qubit case gives bound 1")


def test_criterion_11_probabilistic_thresholds():
    # deterministic NAND: distance to the affine class computed by enumeration
    nand = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    best = min(
        sum(1 for (i1, i2), v in nand.items() if (a + b * i1 + c * i2) % 2 != v)
        for a in range(2) for b in range(2) for c in range(2)
    )
    assert best == 1
    rep = threshold_check(1, 1, best, 2, 2)
    assert rep.exceeded
    # pinned nu=2 instance over d=3, n=2 (brute-force golden)
    inputs = list(itertools.product(range(3), repeat=2))
    o_table = dict(zip(inputs, [1, 0, 0, 1, 0, 1, 1, 2, 0]))
    nu, _ = nu_distance(o_table, 3, 2)
    assert nu == 2
    behavior = {}
    for q in inputs:
        good = o_table[q]
        behavior[q] = [((good, 0), Fraction(9, 10)), (((good + 1) % 3, 0), Fraction(1, 10))]
    noisy = MbqcPlan(
        d=3, n=2, N=2, resource=TableResource(2, behavior),
        parties=[(WeylLabel(3, (1, 0)), named_clifford(3, "weyl-displacement", x=(0, 0)))] * 2,
        Q=[[1, 0], [0, 1]], T=[[0, 0]] * 2, z=[1, 0], s0=0,
    )
    p_min, p_avg = empirical_success(noisy, o_table)
    assert p_min == Fraction(9, 10) and p_avg == Fraction(9, 10)
    verdict = threshold_check(p_min, p_avg, nu, 3, 2)
    assert verdict.ncf_bound == Fraction(1, 20)
    assert float(verdict.ncf_bound) == 0.05
    report(11, "NAND case flagged; noisy 0.9-success instance bounds NCF by exactly 0.05")


def test_criterion_12_phase_formula_oracle():
    rng = random.Random(4096)
    checked = 0
    for d in (2, 3, 5):
        omega = np.exp(2j * np.pi / d)
        units = [u for u in range(1, d) if np.gcd(u, d) == 1]
        for _ in range(167):
            s = rng.choice(units)
            m = rng.randrange(d)
            sinv = pow(s, -1, d)
            spec = CliffordSpec(d, ((sinv, (sinv * m) % d), (0, s)),
                                (rng.randrange(d), rng.randrange(d)),
                                rng.randrange(2 * d) if d % 2 == 0 else rng.randrange(d))
            v = (rng.randrange(d), rng.randrange(d))
            f = rng.randrange(d)
            phase, label = conjugate_weyl(spec, v, f)
            V = clifford_unitary(spec).to_dense()
            W = MonomialOp.from_weyl(d, v).to_dense()
            lhs = np.linalg.matrix_power(V, f) @ W @ np.linalg.matrix_power(V.conj().T, f)
            rhs = omega**phase * MonomialOp.from_weyl(d, label).to_dense()
            assert np.max(np.abs(lhs - rhs)) < 1e-9
            checked += 1
    assert checked == 501
    report(12, "501 random (V, v, f) triples match dense conjugation within 1e-9")
