import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from quditmbqc.compiler import compile_general_prime
from quditmbqc.engine import MbqcPlan, TableResource, extract_output_function
from quditmbqc.errors import QuditMbqcError, SizeGuardError, UnsupportedWitnessError
from quditmbqc.fields import MultiPoly, combined_degree, interpolate, make_field
from quditmbqc.states import basis_state
from quditmbqc.weyl import WeylLabel, named_clifford
from quditmbqc.witnesses import (
    INCONCLUSIVE,
    NCVA_FOUND,
    STRONGLY_NONLOCAL,
    analyze_plan,
    degree_witness,
    degree_witness_for_table,
    delta_distance,
    ncva_search,
    ncva_search_raw,
    nu_distance,
    temporal_degree_bound,
    threshold_check,
)
from planlib import exponential_plan, ghz_chain, nand_plan, quadratic_plan


def _nu_referee(table, d, n):
    """The candidate-by-candidate search nu_distance replaced: every
    coefficient vector in itertools.product order, each scored point by
    point, keeping the first strict minimum."""
    mons = [e for e in itertools.product(range(d), repeat=n) if sum(e) <= d - 1]
    points = sorted(table)
    rows = [[math.prod(pow(c, a, d) for c, a in zip(x, e)) % d for e in mons] for x in points]
    best = best_coeffs = None
    for coeffs in itertools.product(range(d), repeat=len(mons)):
        dist = 0
        for row, x in zip(rows, points):
            diff = (table[x] - sum(c * r for c, r in zip(coeffs, row))) % d
            dist += min(diff, d - diff)
            if best is not None and dist >= best:
                break
        if best is None or dist < best:
            best, best_coeffs = dist, coeffs
            if best == 0:
                break
    return best, {e: c for e, c in zip(mons, best_coeffs) if c}


class TestDegreeWitness:
    def test_nand_poly(self):
        f = make_field(2)
        nand = MultiPoly(f, 2, {(0, 0): 1, (1, 1): 1})
        w = degree_witness(nand)
        assert w.verdict == STRONGLY_NONLOCAL
        assert w.monomial == (1, 1)

    def test_exponential_table_inconclusive(self):
        f = make_field(5)
        table = {(x,): pow(3, x, 5) for x in range(5)}
        w = degree_witness(interpolate(f, table))
        assert w.verdict == INCONCLUSIVE

    def test_constant_inconclusive(self):
        f = make_field(7)
        w = degree_witness(MultiPoly.constant(f, 2, 3))
        assert w.verdict == INCONCLUSIVE

    def test_composite_polynomial_table(self):
        table = {(x,): (x * x) % 9 for x in range(9)}
        w = degree_witness_for_table(table, 9)
        assert w.verdict == INCONCLUSIVE

    def test_composite_non_polynomial_rejected(self):
        table = {(0,): 1, (1,): 0, (2,): 0, (3,): 0}
        with pytest.raises(UnsupportedWitnessError):
            degree_witness_for_table(table, 4)

    @pytest.mark.parametrize("Q, s1, s2, degree", [
        ([[2, 3], [0, 3]], [0, 1, 1, 0], [1, 3, 2, 2], 3),
        # a local table whose least degree over Z_4 is still 4 = d
        ([[1, 1], [3, 1]], [2, 1, 1, 1], [3, 2, 0, 0], 4),
    ], ids=["least_degree_3", "least_degree_4"])
    def test_composite_local_table_not_certified(self, Q, s1, s2, degree):
        # party k outputs s_k(q_k): a classical plan, so a local model exists
        d = 4
        mapping = {(a, b): (s1[a], s2[b]) for a in range(d) for b in range(d)}
        plan = MbqcPlan(d=d, n=2, N=2, resource=TableResource.deterministic(2, mapping),
                        parties=[(WeylLabel(d, (1, 0)), named_clifford(d, "weyl-displacement",
                                                                       x=(0, 0)))] * 2,
                        Q=Q, T=[[0, 0]] * 2, z=[1, 1], s0=0)
        report = analyze_plan(plan)
        assert report["assignment_search"] == NCVA_FOUND
        assert report["combined_degree"] == degree
        assert report["degree_witness"] == INCONCLUSIVE
        table = dict(zip(map(tuple, report["inputs"]), report["table"]))
        w = degree_witness_for_table(table, d)
        assert w.verdict == INCONCLUSIVE and "Z_4" in w.detail


class TestNcvaSearch:
    def test_nand_strongly_nonlocal(self):
        w = ncva_search(nand_plan())
        assert w.verdict == STRONGLY_NONLOCAL
        assert w.searched == 64

    def test_exponential_ncva(self):
        w = ncva_search(exponential_plan(5, 2))
        assert w.verdict == NCVA_FOUND
        assert w.assignment == ((1, 3, 4, 2, 1),)  # s1(q) = 2^-q mod 5

    def test_constant_output_plan(self):
        d = 3
        plan = exponential_plan(d, 2)
        flat = MbqcPlan(d=d, n=1, N=1, resource=plan.resource, parties=plan.parties,
                        Q=plan.Q, T=plan.T, z=[0], s0=2)
        w = ncva_search(flat)
        assert w.verdict == NCVA_FOUND

    def test_quadratic_plan_has_assignment(self):
        w = ncva_search(quadratic_plan(3))
        assert w.verdict == NCVA_FOUND
        # verify the certificate reproduces the table
        table, _ = extract_output_function(quadratic_plan(3))
        for i in range(3):
            total = sum(w.assignment[k][i] for k in range(6)) % 3
            assert total == table[(i,)]

    def test_single_party_always_found(self):
        rng = random.Random(31)
        for d in (2, 3, 5):
            for _ in range(5):
                u = rng.choice([v for v in range(1, d) if __import__("math").gcd(v, d) == 1])
                w = ncva_search(exponential_plan(d, u, coeff=rng.randrange(1, d)))
                assert w.verdict == NCVA_FOUND

    def test_and_table_resource_nonlocal(self):
        mapping = {q: ((q[0] * q[1]) % 2, 0) for q in itertools.product(range(2), repeat=2)}
        res = TableResource.deterministic(2, mapping)
        plan = MbqcPlan(
            d=2, n=2, N=2, resource=res,
            parties=[(WeylLabel(2, (1, 0)), named_clifford(2, "weyl-displacement", x=(0, 0)))] * 2,
            Q=[[1, 0], [0, 1]], T=[[0, 0]] * 2, z=[1, 0], s0=0,
        )
        w = ncva_search(plan)
        assert w.verdict == STRONGLY_NONLOCAL
        table, _ = extract_output_function(plan)
        dw = degree_witness_for_table(table, 2)
        assert dw.verdict == STRONGLY_NONLOCAL

    def test_80_party_instance_exact(self):
        # 5^400 assignments: the linear solve decides it at once
        table = {(i,): (3 * i + 1) % 5 for i in range(5)}
        w = ncva_search_raw(5, 1, 80, [[1]] * 80, [1] * 80, 0, table)
        assert w.verdict == NCVA_FOUND and w.space == (5, 400) and w.searched == 5**400
        for (i,), want in table.items():
            assert sum(s[i] for s in w.assignment) % 5 == want
        # an input-independent party set cannot follow a non-constant table
        w = ncva_search_raw(5, 1, 80, [[0]] * 80, [1] * 80, 0, table)
        assert w.verdict == STRONGLY_NONLOCAL and w.space == (5, 80)

    def test_non_integer_target_value_error(self):
        # 1.5 used to come back as 0.0 inside an ncva-found certificate
        plan = compile_general_prime([1, 2, 0]).plan
        with pytest.raises(ValueError, match="table value 1.5 is not an integer"):
            ncva_search(plan, {(0,): 1.5, (1,): 2, (2,): 0})

    def test_missing_target_point_value_error(self):
        # this used to end in a bare KeyError
        plan = compile_general_prime([1, 2, 0]).plan
        with pytest.raises(ValueError, match="table needs 3 entries, got 1"):
            ncva_search(plan, {(0,): 1})
        with pytest.raises(ValueError, match=re.escape("table points have 2 coordinates, "
                                                       "expected n = 1")):
            ncva_search(plan, {(x, y): 0 for x in range(3) for y in range(3)})

    def test_int_keyed_target(self):
        # read as the one-variable table it names (it used to end in KeyError)
        w = ncva_search_raw(3, 1, 1, [[1]], [1], 0, {0: 1, 1: 2, 2: 0})
        assert w == ncva_search_raw(3, 1, 1, [[1]], [1], 0, {(0,): 1, (1,): 2, (2,): 0})
        assert w.verdict == NCVA_FOUND and w.assignment == ((1, 2, 0),)

    def test_raw_interface_matches_plan(self):
        plan = nand_plan()
        table, _ = extract_output_function(plan)
        w = ncva_search_raw(2, 2, 3, plan.Q, plan.z, plan.s0, table)
        assert w.verdict == STRONGLY_NONLOCAL

    def test_witness_text_stable(self):
        w = ncva_search(nand_plan())
        text = w.to_text()
        assert "verdict: strongly-nonlocal" in text
        assert "searched: 2^6 assignments" in text

    def test_certificate_lines(self):
        w = ncva_search_raw(3, 1, 2, [[1], [2]], [1, 1], 1, {(x,): x * x % 3 for x in range(3)})
        assert w.to_text() == ("verdict: ncva-found\n"
                               "assignment party 1: [2, 0, 0]\n"
                               "assignment party 2: [0, 0, 0]\n"
                               "searched: 3^6 assignments")
        w = degree_witness(MultiPoly.monomial(make_field(3), 2, (2, 1)))
        assert w.to_text() == ("verdict: strongly-nonlocal\n"
                               "certificate: monomial x1^2*x2 with combined degree 3\n"
                               "note: combined degree 3 >= d = 3")

    def test_ordered_plan_refused(self):
        with pytest.raises(QuditMbqcError, match="temporally flat"):
            ncva_search(ghz_chain(3, 3))

    def test_witness_golden_file(self):
        import pathlib

        golden = pathlib.Path(__file__).parent / "golden" / "nand_witness.txt"
        assert ncva_search(nand_plan()).to_text() + "\n" == golden.read_text()

    def test_verdicts_match_enumeration(self):
        # composite d and non-unit z included
        rng = random.Random(17)
        for _ in range(150):
            d, n, Q, z, q0 = _small_instance(rng)
            N, s0 = len(Q), rng.randrange(d)
            inputs = list(itertools.product(range(d), repeat=n))
            if rng.random() < 0.5:  # a table some assignment reproduces
                s = [[rng.randrange(d) for _ in range(d)] for _ in range(N)]
                table = {i: _local_output(d, Q, z, s0, q0, s, i) for i in inputs}
            else:
                table = {i: rng.randrange(d) for i in inputs}
            w = ncva_search_raw(d, n, N, Q, z, s0, table, q0=q0)
            assert (w.verdict == NCVA_FOUND) == _enumerate_assignments(d, Q, z, s0, q0, table)
            if w.verdict == NCVA_FOUND:
                assert all(_local_output(d, Q, z, s0, q0, w.assignment, i) == o
                           for i, o in table.items())

    def test_search_soundness_matches_degree_for_qubits(self):
        # two parties fed i1, i2 directly: an assignment exists exactly when
        # the target has no crossterm (boolean functions are otherwise affine)
        f = make_field(2)
        for values in itertools.product(range(2), repeat=4):
            table = dict(zip(itertools.product(range(2), repeat=2), values))
            w = ncva_search_raw(2, 2, 2, [[1, 0], [0, 1]], [1, 1], 0, table)
            degree = combined_degree(interpolate(f, table))
            if degree >= 2:
                assert w.verdict == STRONGLY_NONLOCAL
            else:
                assert w.verdict == NCVA_FOUND
                for i, want in table.items():
                    got = (w.assignment[0][i[0]] + w.assignment[1][i[1]]) % 2
                    assert got == want


def _settings(d, Q, q0, i):
    return [(sum(a * b for a, b in zip(row, i)) + q0k) % d for row, q0k in zip(Q, q0)]


def _local_output(d, Q, z, s0, q0, s, i):
    """sum_k z_k s_k(q_k(i)) + s0 for per-party tables s."""
    return (sum(zk * s[k][q] for k, (zk, q) in enumerate(zip(z, _settings(d, Q, q0, i))))
            + s0) % d


def _cells(d, Q, z, q0, inputs):
    return sorted({(k, q) for i in inputs for k, q in enumerate(_settings(d, Q, q0, i))
                   if z[k] % d})


def _small_instance(rng):
    """(d, n, Q, z, q0) with at most 5000 assignments of the reachable cells."""
    while True:
        d = rng.choice((2, 3, 4, 6, 8, 9))
        n = rng.choice((1, 2)) if d <= 3 else 1
        N = rng.randint(1, 3)
        Q = [[rng.randrange(d) for _ in range(n)] for _ in range(N)]
        z = [rng.randrange(d) for _ in range(N)]
        q0 = [rng.randrange(d) for _ in range(N)]
        inputs = itertools.product(range(d), repeat=n)
        if d ** len(_cells(d, Q, z, q0, inputs)) <= 5000:
            return d, n, Q, z, q0


def _enumerate_assignments(d, Q, z, s0, q0, table) -> bool:
    """Whether any assignment of the reachable cells reproduces the table."""
    cells = _cells(d, Q, z, q0, table)
    for values in itertools.product(range(d), repeat=len(cells)):
        s = [[0] * d for _ in Q]
        for (k, q), v in zip(cells, values):
            s[k][q] = v
        if all(_local_output(d, Q, z, s0, q0, s, i) == o for i, o in table.items()):
            return True
    return False


class TestTemporalBound:
    def test_flat_d3(self):
        assert temporal_degree_bound(quadratic_plan(3)) == 2

    def test_flat_qubit_linear_bound(self):
        assert temporal_degree_bound(nand_plan()) == 1

    def test_chain_of_three(self):
        d = 3
        fid = WeylLabel(d, (1, 0))
        ident = named_clifford(d, "weyl-displacement", x=(0, 0))
        T = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        plan = MbqcPlan(d=d, n=1, N=3, resource=basis_state(d, (0, 0, 0)),
                        parties=[(fid, ident)] * 3, Q=[[0]] * 3, T=T, z=[1] * 3, s0=0)
        assert temporal_degree_bound(plan) == 8

    def test_chain_of_two(self):
        d = 3
        fid = WeylLabel(d, (1, 0))
        ident = named_clifford(d, "weyl-displacement", x=(0, 0))
        T = [[0, 0], [1, 0]]
        plan = MbqcPlan(d=d, n=1, N=2, resource=basis_state(d, (0, 0)),
                        parties=[(fid, ident)] * 2, Q=[[0]] * 2, T=T, z=[1] * 2, s0=0)
        assert temporal_degree_bound(plan) == 4


class TestDeltaNu:
    def test_examples(self):
        assert delta_distance(3, 5) == 2
        assert delta_distance(0, 5) == 0
        assert delta_distance(2, 7) == 2

    def test_symmetry(self):
        for d in (3, 5, 7, 9):
            for q in range(d):
                assert delta_distance(q, d) == delta_distance(d - q, d)

    def test_even_d_rejected(self):
        with pytest.raises(QuditMbqcError):
            delta_distance(1, 4)

    def test_zero_for_low_degree(self):
        # d=3, n=1: every 1-variable function has degree <= 2
        rng = random.Random(33)
        for _ in range(5):
            table = {(x,): rng.randrange(3) for x in range(3)}
            nu, poly = nu_distance(table, 3, 1)
            assert nu == 0
            assert all(poly.evaluate(x) == table[x] for x in table)

    def test_pinned_degree4_instance(self):
        # interpolation of x1^2 x2^2 has degree 4; exhaustive minimum is 1
        table = {x: (x[0] ** 2 * x[1] ** 2) % 3
                 for x in itertools.product(range(3), repeat=2)}
        nu, poly = nu_distance(table, 3, 2)
        assert nu == 1
        assert combined_degree(poly) <= 2

    def test_pinned_nu2_instance(self):
        table = dict(zip(itertools.product(range(3), repeat=2),
                         [1, 0, 0, 1, 0, 1, 1, 2, 0]))
        nu, _ = nu_distance(table, 3, 2)
        assert nu == 2

    def test_nu_zero_iff_low_degree(self):
        rng = random.Random(34)
        f = make_field(3)
        for _ in range(12):
            table = {x: rng.randrange(3) for x in itertools.product(range(3), repeat=2)}
            nu, _ = nu_distance(table, 3, 2)
            assert (nu == 0) == (combined_degree(interpolate(f, table)) <= 2)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            nu_distance({(x, y): 0 for x in range(5) for y in range(5)}, 5, 2)

    def test_even_d_rejected_nu(self):
        with pytest.raises(QuditMbqcError, match="odd d"):
            nu_distance({(x,): 0 for x in range(4)}, 4, 1)

    @pytest.mark.parametrize("table, n, message", [
        # 4 of the 9 points of Z_3^2
        ({(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 2}, 2, "table needs 9 entries, got 4"),
        ({(x,): 1 for x in range(3)}, 2, "table points have 1 coordinates, expected n = 2"),
        ({(0,): 1, (1,): 2, (2,): 0, (3,): 2}, 1, "repeats the point (0,) mod 3"),
        ({(0,): 1, (1,): 2, (2, 0): 0}, 1, "table point (2, 0) has 2 coordinates, expected 1"),
    ], ids=["incomplete", "wrong_n", "repeated_point", "mixed_arity"])
    def test_table_contract(self, table, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            nu_distance(table, 3, n)

    @pytest.mark.parametrize("d, n, count", [(3, 1, 40), (3, 2, 40), (5, 1, 40), (3, 3, 1)])
    def test_minimizer_matches_referee(self, d, n, count):
        rng = random.Random(100 * d + n)
        for _ in range(count):
            table = {x: rng.randrange(d) for x in itertools.product(range(d), repeat=n)}
            nu, poly = nu_distance(table, d, n)
            assert (nu, poly.coeffs) == _nu_referee(table, d, n)
            assert all(type(c) is int for c in poly.coeffs.values()) and type(nu) is int


class TestThreshold:
    def test_deterministic_flags(self):
        rep = threshold_check(1, 1, 1, 2, 2)
        assert rep.exceeded

    def test_boundary_not_exceeded(self):
        d, n, nu = 3, 1, 1
        boundary = 1 - Fraction(2 * nu, (d - 1) * d**n)
        rep = threshold_check(boundary, boundary, nu, d, n)
        assert not rep.exceeded

    def test_ncf_bound_value(self):
        rep = threshold_check(Fraction(9, 10), Fraction(9, 10), 2, 3, 2)
        assert rep.ncf_bound == Fraction(1, 20)

    def test_nu_zero_bound_undefined(self):
        rep = threshold_check(1, 1, 0, 3, 1)
        assert rep.ncf_bound is None
        assert "undefined" in rep.to_text()

    def test_negative_nu_rejected(self):
        with pytest.raises(ValueError, match="nu must be >= 0"):
            threshold_check(1, 1, -1, 3, 1)

    @pytest.mark.parametrize("nu, d, n, message", [
        (1, 1, 1, "d must be >= 2 and an integer, got 1"),
        (1, 3, -1, "n must be >= 0 and an integer, got -1"),
        (0.5, 3, 1, "nu must be >= 0 and an integer, got 0.5"),
        (True, 3, 1, "nu must be >= 0 and an integer, got True"),
    ], ids=["d_one", "n_negative", "nu_half", "nu_bool"])
    def test_parameters_rejected(self, nu, d, n, message):
        # d = 1 ended in ZeroDivisionError, n = -1 and nu = 0.5 in a TypeError
        with pytest.raises(ValueError, match=re.escape(message)):
            threshold_check(1, 1, nu, d, n)

    def test_zero_inputs_threshold(self):
        # a zero-input plan has one input: the threshold is 1 - 2 nu / (d-1)
        rep = threshold_check(Fraction(1, 2), Fraction(1, 2), 1, 5, 0)
        assert rep.threshold == Fraction(1, 2) and not rep.exceeded

    def test_text_bound_line(self):
        rep = threshold_check(Fraction(9, 10), Fraction(9, 10), 2, 3, 2)
        assert rep.to_text().splitlines()[-1] == "non-contextual fraction bound: <= 1/20"

    def test_probability_range(self):
        with pytest.raises(ValueError):
            threshold_check(2, 1, 1, 2, 1)
