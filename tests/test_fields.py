import itertools
import random

import pytest

from quditmbqc.errors import SizeGuardError, UnsupportedModulusError
from quditmbqc.fields import (
    COMPOSITE_RING,
    PRIME_FIELD,
    PRIME_POWER_FIELD,
    MultiPoly,
    all_points,
    closure_generate,
    combined_degree,
    delta_poly,
    enumerate_subspace,
    in_subspace,
    interpolate,
    is_polynomial_over_ring,
    make_field,
    solve_mod,
)


def table_of(poly):
    return {x: poly.evaluate(x) for x in all_points(poly.modulus, poly.n)}


class TestMakeField:
    def test_prime(self):
        f = make_field(5)
        assert f.kind == PRIME_FIELD and f.d == 5

    def test_gf4_irreducible_poly(self):
        f = make_field(4)
        assert f.kind == PRIME_POWER_FIELD and (f.p, f.r) == (2, 2)
        # independent check: x^2 + x + 1 is the only rootless monic quadratic mod 2
        rootless = []
        for c0, c1 in itertools.product(range(2), repeat=2):
            if all((x * x + c1 * x + c0) % 2 != 0 for x in range(2)):
                rootless.append((c0, c1, 1))
        assert rootless == [(1, 1, 1)]
        assert f.modpoly == (1, 1, 1)

    def test_composite(self):
        assert make_field(6).kind == COMPOSITE_RING

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            make_field(1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 9, 25, 27])
    def test_field_axioms_spot(self, d):
        f = make_field(d)
        elems = f.elements()
        assert len(elems) == d
        for a in elems:
            assert f.add(a, f.neg(a)) == f.zero
            if a != f.zero:
                assert f.mul(a, f.inv(a)) == f.one

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 9])
    def test_fermat_reduction(self, d):
        f = make_field(d)
        for a in f.elements():
            assert f.pow_(a, d) == a
            if a != f.zero:
                assert f.pow_(a, d - 1) == f.one


class TestDeltaPoly:
    def test_d3_at_zero(self):
        f = make_field(3)
        p = delta_poly(f, (0,))
        assert p.coeffs == {(0,): 1, (2,): 2}  # 1 - x^2

    def test_d2_not_function(self):
        f = make_field(2)
        p = delta_poly(f, (0,))
        assert p.coeffs == {(0,): 1, (1,): 1}  # 1 + x

    def test_d5_shifted_values(self):
        f = make_field(5)
        p = delta_poly(f, (2,))
        assert [p.evaluate((x,)) for x in (2, 3, 4, 0, 1)] == [1, 0, 0, 0, 0]

    def test_gf4_delta(self):
        f = make_field(4)
        y = (f.from_int(2),)
        p = delta_poly(f, y)
        vals = [p.evaluate((x,)) for x in f.elements()]
        assert vals == [f.one if (x,) == y else f.zero for x in f.elements()]

    def test_ring_rejected(self):
        with pytest.raises(UnsupportedModulusError):
            delta_poly(make_field(6), (0,))


class TestInterpolate:
    def test_and_gate(self):
        f = make_field(2)
        table = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
        # oracle: scan all 16 reduced 2-variable polynomials for the unique match
        matches = []
        for coeffs in itertools.product(range(2), repeat=4):
            cand = MultiPoly(f, 2, dict(zip([(0, 0), (0, 1), (1, 0), (1, 1)], coeffs)))
            if table_of(cand) == table:
                matches.append(cand)
        assert len(matches) == 1
        assert interpolate(f, table) == matches[0]
        assert interpolate(f, table).coeffs == {(1, 1): 1}

    def test_nand_gate(self):
        f = make_field(2)
        table = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        assert interpolate(f, table).coeffs == {(0, 0): 1, (1, 1): 1}

    def test_zero_table(self):
        f = make_field(5)
        table = {(x,): 0 for x in range(5)}
        assert interpolate(f, table).is_zero()

    def test_incomplete_table_rejected(self):
        f = make_field(3)
        with pytest.raises(ValueError):
            interpolate(f, {(0,): 1})

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 9])
    def test_round_trip_random(self, d):
        f = make_field(d)
        rng = random.Random(20240000 + d)
        elems = f.elements()
        for n in (1, 2):
            for _ in range(8):
                table = {x: rng.choice(elems) for x in all_points(f, n)}
                poly = interpolate(f, table)
                assert table_of(poly) == table
                assert all(max(e) <= d - 1 for e in poly.coeffs) or poly.is_zero()

    def test_uniqueness_on_reduced_polys(self):
        f = make_field(3)
        rng = random.Random(7)
        mons = list(itertools.product(range(3), repeat=2))
        for _ in range(10):
            poly = MultiPoly(f, 2, {m: rng.randrange(3) for m in mons})
            assert interpolate(f, table_of(poly)) == poly


class TestDegrees:
    def test_nand_degree(self):
        f = make_field(2)
        p = MultiPoly(f, 2, {(1, 1): 1, (0, 0): 1})
        assert combined_degree(p) == 2

    def test_linear(self):
        f = make_field(5)
        p = MultiPoly(f, 1, {(0,): 3, (1,): 2})
        assert combined_degree(p) == 1

    def test_exponent_sum(self):
        f = make_field(7)
        p = MultiPoly(f, 2, {(2, 3): 1})
        assert combined_degree(p) == 5

    def test_constant_and_zero(self):
        f = make_field(3)
        assert combined_degree(MultiPoly.constant(f, 2, 2)) == 0
        assert combined_degree(MultiPoly.zero(f, 2)) == 0

    def test_in_subspace(self):
        f = make_field(2)
        nand = MultiPoly(f, 2, {(1, 1): 1, (0, 0): 1})
        assert not in_subspace(nand, 1)
        assert in_subspace(nand, 2)

    def test_in_subspace_exponential_table(self):
        f = make_field(5)
        table = {(x,): pow(pow(2, -1, 5), x, 5) for x in range(5)}
        assert table == {(0,): 1, (1,): 3, (2,): 4, (3,): 2, (4,): 1}
        assert in_subspace(interpolate(f, table), 4)

    def test_in_subspace_range_check(self):
        f = make_field(3)
        p = MultiPoly.variable(f, 1, 0)
        with pytest.raises(ValueError):
            in_subspace(p, 0)
        with pytest.raises(ValueError):
            in_subspace(p, 3)

    def test_subspace_chain(self):
        f = make_field(3)
        rng = random.Random(11)
        mons = list(itertools.product(range(3), repeat=2))
        for _ in range(20):
            poly = MultiPoly(f, 2, {m: rng.randrange(3) for m in mons})
            for delta in range(1, 4):
                if in_subspace(poly, delta):
                    assert in_subspace(poly, delta + 1)


class TestClosure:
    def test_x_squared_spans_quadratics(self):
        f = make_field(3)
        g = MultiPoly(f, 1, {(2,): 1})
        got = closure_generate(g)
        assert got == enumerate_subspace(f, 1, 2)
        assert len(got) == 27

    def test_linear_generator_stays_linear(self):
        f = make_field(3)
        g = MultiPoly(f, 1, {(1,): 2, (0,): 1})
        got = closure_generate(g)
        assert got == enumerate_subspace(f, 1, 1)
        assert len(got) == 9

    def test_boolean_identity(self):
        f = make_field(2)
        g = MultiPoly.variable(f, 1, 0)
        got = closure_generate(g)
        assert len(got) == 4  # every 1-variable boolean function is affine

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_closure_law_every_degree(self, d, n):
        f = make_field(d)
        for delta in range(1, n * (d - 1) + 1):
            exps = [min(delta, d - 1)] + [0] * (n - 1)
            if n > 1 and delta > d - 1:
                exps[1] = delta - (d - 1)
            g = MultiPoly(f, n, {tuple(exps): 1})
            assert combined_degree(g) == delta
            assert closure_generate(g) == enumerate_subspace(f, n, delta)

    def test_size_guard(self):
        f = make_field(5)
        g = MultiPoly.variable(f, 3, 0)
        with pytest.raises(SizeGuardError):
            closure_generate(g)


class TestSolveMod:
    def test_pivot_of_least_valuation(self):
        # 2x + y = 1 mod 4: pivoting on x's coefficient 2 would miss y = 1
        assert solve_mod([{0: 2, 1: 1}], [1], 2, 4) == [0, 1]
        assert solve_mod([{0: 2}], [1], 1, 4) is None

    def test_matches_enumeration(self):
        rng = random.Random(41)
        found = 0
        for _ in range(400):
            d = rng.choice((4, 6, 8, 9, 12))
            cols = rng.randint(1, 3 if d <= 9 else 2)
            rows = [{c: rng.randrange(d) for c in range(cols) if rng.random() < 0.7}
                    for _ in range(rng.randint(1, 3))]
            rhs = [rng.randrange(d) for _ in rows]

            def solves(x):
                return all((sum(a * x[c] for c, a in row.items()) - b) % d == 0
                           for row, b in zip(rows, rhs))

            x = solve_mod(rows, rhs, cols, d)
            exists = any(solves(y) for y in itertools.product(range(d), repeat=cols))
            assert (x is not None) == exists
            if x is not None:
                assert solves(x) and all(0 <= v < d for v in x)
                found += 1
        assert 100 < found < 300


class TestRingRepresentability:
    def test_identity_mod6(self):
        table = {(x,): x for x in range(6)}
        poly = is_polynomial_over_ring(table, 6)
        assert poly is not None
        assert poly.coeffs == {(1,): 1}

    def test_parity_mod4_is_representable(self):
        # 3x^2 + 2x hits (0,1,0,1) mod 4, confirmed by exhausting all 4^4
        # reduced coefficient vectors; the solver must agree.
        table = {(x,): x % 2 for x in range(4)}
        found = [
            coeffs
            for coeffs in itertools.product(range(4), repeat=4)
            if all(
                sum(c * pow(x, e, 4) for e, c in enumerate(coeffs)) % 4 == x % 2
                for x in range(4)
            )
        ]
        assert found
        poly = is_polynomial_over_ring(table, 4)
        assert poly is not None
        assert all(poly.evaluate((x,)) == x % 2 for x in range(4))

    def test_delta_mod4_has_no_polynomial(self):
        # p(1)+... forces 2a = 3 mod 4; exhaustive scan agrees there is none
        table = {(0,): 1, (1,): 0, (2,): 0, (3,): 0}
        found = [
            coeffs
            for coeffs in itertools.product(range(4), repeat=4)
            if all(
                sum(c * pow(x, e, 4) for e, c in enumerate(coeffs)) % 4 == table[(x,)]
                for x in range(4)
            )
        ]
        assert not found
        assert is_polynomial_over_ring(table, 4) is None

    def test_square_mod9(self):
        table = {(x,): (x * x) % 9 for x in range(9)}
        poly = is_polynomial_over_ring(table, 9)
        assert poly is not None
        assert {x: poly.evaluate((x,)) for x in range(9)} == {x: (x * x) % 9 for x in range(9)}

    def test_matches_exhaustive_mod4(self):
        rng = random.Random(99)
        mons = [(e,) for e in range(4)]
        for _ in range(12):
            table = {(x,): rng.randrange(4) for x in range(4)}
            got = is_polynomial_over_ring(table, 4)
            brute = None
            for coeffs in itertools.product(range(4), repeat=4):
                if all(
                    sum(c * pow(x, e, 4) for e, c in enumerate(coeffs)) % 4 == table[(x,)]
                    for x in range(4)
                ):
                    brute = coeffs
                    break
            assert (got is None) == (brute is None)
            if got is not None:
                assert all(got.evaluate((x,)) == table[(x,)] for x in range(4))


class TestSerialization:
    def test_stable_text_form(self):
        f = make_field(2)
        nand = MultiPoly(f, 2, {(1, 1): 1, (0, 0): 1})
        assert nand.serialize() == "d=2;n=2;{(0,0):1,(1,1):1}"

    def test_pretty(self):
        f = make_field(2)
        nand = MultiPoly(f, 2, {(1, 1): 1, (0, 0): 1})
        assert nand.pretty() == "1 + x1*x2"
        assert MultiPoly.zero(f, 1).pretty() == "0"

    def test_gf_coefficients_serialize_as_tuples(self):
        f = make_field(4)
        p = MultiPoly(f, 1, {(1,): f.from_int(2)})
        assert p.serialize() == "d=4;n=1;{(1):(0,1)}"
