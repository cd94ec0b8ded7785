import itertools
import math
import operator
import random
import re
import tracemalloc

import pytest

from quditmbqc import fields
from quditmbqc.errors import UnsupportedModulusError
from quditmbqc.fields import (
    COMPOSITE_RING,
    PRIME_FIELD,
    PRIME_POWER_FIELD,
    SPAN_GUARD,
    IntegerRing,
    MonomialSpan,
    MultiPoly,
    _closure_monomials,
    all_points,
    closure_basis,
    closure_generate,
    combined_degree,
    delta_poly,
    enumerate_subspace,
    in_subspace,
    interpolate,
    is_polynomial_over_ring,
    make_field,
    primitive_element,
    solve_mod,
    subspace_monomials,
)
from quditmbqc.witnesses import degree_witness_for_table, nu_distance


def table_of(poly):
    return {x: poly.evaluate(x) for x in all_points(poly.modulus, poly.n)}


def _pre_map_vectors(g):
    """Reference closure by full enumeration: the value vectors of 1 and of g
    composed with every tuple of n affine functions F^n -> F."""
    m, n = g.modulus, g.n
    elems = m.elements()
    points = all_points(m, n)
    affine = [(c0, cs) for c0 in elems for cs in itertools.product(elems, repeat=n)]

    def apply(c0, cs, x):
        for c, xi in zip(cs, x):
            c0 = m.add(c0, m.mul(c, xi))
        return c0

    vectors = {tuple(m.one for _ in points)}
    for pre in itertools.product(affine, repeat=n):
        vectors.add(tuple(g.evaluate(tuple(apply(c0, cs, x) for c0, cs in pre)) for x in points))
    return vectors


def _schoolbook_mul(f, a, b):
    """Product of elements a and b of GF(p^r): their base-p digit polynomials
    multiplied in Z_p[t], then reduced mod f.modpoly from the top down."""
    p, r = f.p, f.r
    da = [a // p**j % p for j in range(r)]
    db = [b // p**j % p for j in range(r)]
    prod = [0] * (2 * r - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for k in range(2 * r - 2, r - 1, -1):
        c = prod[k]
        for j in range(r + 1):
            prod[k - r + j] -= c * f.modpoly[j]
    return sum((c % p) * p**j for j, c in enumerate(prod[:r]))


def _digit_add(f, a, b):
    return sum(((a // f.p**j + b // f.p**j) % f.p) * f.p**j for j in range(f.r))


def _echelon(m, vectors):
    """Rows spanning the vectors, each 1 at its pivot and 0 at earlier pivots."""
    rows = []
    for vec in vectors:
        vec = list(vec)
        for p, row in rows:
            if (c := vec[p]) != m.zero:
                vec = [m.sub(v, m.mul(c, r)) for v, r in zip(vec, row)]
        p = next((i for i, v in enumerate(vec) if v != m.zero), None)
        if p is not None:
            inv = m.inv(vec[p])
            rows.append((p, [m.mul(inv, v) for v in vec]))
    return [row for _, row in rows]


def _echelon_closure(g):
    """Referee closure by echelon saturation of value vectors: 1 and g,
    composed with the translation x1 -> x1+1, a primitive scaling and, for
    n >= 2, a swap, a cycle, the transvection x1 -> x1+x2 and the
    projection x1 -> 0, each new row reduced until none joins."""
    m = g.modulus
    u = primitive_element(m)
    maps = [lambda x: (m.add(x[0], m.one),) + x[1:], lambda x: (m.mul(u, x[0]),) + x[1:]]
    if g.n >= 2:
        maps += [lambda x: (x[1], x[0]) + x[2:], lambda x: x[1:] + x[:1],
                 lambda x: (m.add(x[0], x[1]),) + x[1:], lambda x: (0,) + x[1:]]
    points = all_points(m, g.n)
    where = {x: i for i, x in enumerate(points)}
    generators = [[where[a(x)] for x in points] for a in maps]
    basis = []  # (pivot, row): 1 at the pivot, 0 at earlier pivots
    pending = [[m.one] * len(points), [g.evaluate(x) for x in points]]
    while pending:
        row = pending.pop()
        for p, b in basis:
            if row[p]:
                c = m.neg(row[p])
                row = [m.add(v, m.mul(c, w)) for v, w in zip(row, b)]
        p = next((i for i, v in enumerate(row) if v), None)
        if p is not None:
            unit = m.inv(row[p])
            row = [m.mul(unit, v) for v in row]
            basis.append((p, row))
            pending += [[row[j] for j in gen] for gen in generators]
    return [tuple(row) for _, row in basis]


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

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
    def test_prime_power_tables_match_schoolbook(self, q):
        # every sum, product, negation and inverse of the log/Zech tables
        # against digit-polynomial arithmetic mod the irreducible polynomial
        f = make_field(q)
        elems = range(q)
        for a in elems:
            assert _digit_add(f, a, f.neg(a)) == 0
            if a:
                assert _schoolbook_mul(f, a, f.inv(a)) == 1
            for b in elems:
                assert f.add(a, b) == _digit_add(f, a, b)
                assert f.mul(a, b) == _schoolbook_mul(f, a, b)
        with pytest.raises(ZeroDivisionError):
            f.inv(0)

    @pytest.mark.parametrize("d", [2, 6, 8, 9, 25])
    def test_elements_follow_from_int(self, d):
        f = make_field(d)
        assert f.elements() == [f.from_int(i) for i in range(d)] == list(range(d))
        assert (f.zero, f.one) == (0, 1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 9])
    def test_fermat_reduction(self, d):
        f = make_field(d)
        for a in f.elements():
            assert f.pow_(a, d) == a
            if a != f.zero:
                assert f.pow_(a, d - 1) == f.one

    def test_primitive_element_generates_the_group(self):
        values = {d: primitive_element(make_field(d)) for d in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)}
        assert values == {2: 1, 3: 2, 4: 2, 5: 2, 7: 3, 8: 2, 9: 4, 16: 2, 25: 7, 27: 3}
        for d, u in values.items():  # the powers of u reach every nonzero element
            f, powers, x = make_field(d), set(), 1
            for _ in range(d - 1):
                x = f.mul(x, u)
                powers.add(x)
            assert powers == set(f.elements()) - {f.zero}

    @pytest.mark.parametrize("d", [9, 12, 15])
    def test_primitive_element_refuses_a_ring(self, d):
        # d-1 is no group order here: at 12, 2 is not a unit; at 15 no unit generates
        with pytest.raises(UnsupportedModulusError, match=r"^primitive element needs a field modulus$"):
            primitive_element(IntegerRing(d))

    def test_moduli_hash_by_size_and_kind(self):
        assert len({make_field(9), make_field(9), make_field(3), IntegerRing(3)}) == 2

    def test_repr_names_kind_and_size(self):
        assert repr(make_field(6)) == "composite-ring(6)"
        assert repr(make_field(9)) == "prime-power-field(9)"


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

    @pytest.mark.parametrize("d, table, message", [
        # (3,) is (0,) mod 3: two values for f(0)
        (3, {(0,): 1, (1,): 2, (2,): 0, (3,): 2}, "table point (3,) repeats the point (0,) mod 3"),
        (2, {(0,): 1, (0, 1): 0}, "table point (0, 1) has 2 coordinates, expected 1"),
        # a non-int coordinate ended in a bare KeyError
        (3, {(0.5,): 1, (1,): 0, (2,): 2}, "table point (0.5,) has a coordinate that is not an integer"),
    ], ids=["repeated_point", "mixed_arity", "float_point"])
    def test_ambiguous_table_rejected(self, d, table, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            interpolate(make_field(d), table)
        with pytest.raises(ValueError, match=re.escape(message)):
            is_polynomial_over_ring(table, d)

    def test_int_keyed_table_reads_as_one_variable(self):
        # the compilers take one-variable targets keyed by plain ints
        ints, tuples = {0: 1, 1: 2, 2: 0}, {(0,): 1, (1,): 2, (2,): 0}
        assert interpolate(make_field(3), ints) == interpolate(make_field(3), tuples)
        assert is_polynomial_over_ring({x: x * x % 9 for x in range(9)}, 9) == \
            is_polynomial_over_ring({(x,): x * x % 9 for x in range(9)}, 9)
        assert degree_witness_for_table(ints, 3) == degree_witness_for_table(tuples, 3)
        assert nu_distance(ints, 3, 1) == nu_distance(tuples, 3, 1)
        with pytest.raises(ValueError, match=re.escape("table point (0,) repeats the point (0,)")):
            interpolate(make_field(3), {0: 1, (0,): 1, 1: 2, 2: 0})
        with pytest.raises(ValueError, match="table point False is neither a tuple nor an integer"):
            interpolate(make_field(2), {False: 0, True: 1})

    @pytest.mark.parametrize("d", [1, 0, -3, 3.0, "3"])
    def test_modulus_below_two_rejected(self, d):
        # d = 0 ended in ZeroDivisionError, d = 1 gave a polynomial over Z_1;
        # 3.0 and "3" ended in a TypeError, in make_field's words here
        message = (f"modulus must be at least 2, got {d}" if type(d) is int
                   else f"modulus must be an integer >= 2, got {d!r}")
        with pytest.raises(ValueError, match=re.escape(message)):
            is_polynomial_over_ring({(0,): 0}, d)
        with pytest.raises(ValueError, match=re.escape(message)):
            degree_witness_for_table({(0,): 0}, d)
        with pytest.raises(ValueError, match=re.escape(message)):
            nu_distance({(0,): 0}, d, 1)

    @pytest.mark.parametrize("d, value", [(5, 1.5), (4, (0, 1)), (9, "1")])
    def test_non_integer_value_rejected(self, d, value):
        table = {(x,): value if x == 1 else 0 for x in range(d)}
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            interpolate(make_field(d), table)
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            is_polynomial_over_ring(table, d)

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

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)])
    def test_matches_pre_map_enumeration(self, d, n):
        f = make_field(d)
        elems = f.elements()
        rng = random.Random(10 * d + n)
        mons = list(itertools.product(range(d), repeat=n))
        gs = [MultiPoly.zero(f, n), MultiPoly.constant(f, n, elems[-1])]
        gs += [MultiPoly(f, n, {e: rng.choice(elems) for e in rng.sample(mons, min(3, len(mons)))})
               for _ in range(4)]
        points = all_points(f, n)
        for g in gs:
            ref = _echelon(f, _pre_map_vectors(g))
            basis = closure_basis(g)
            assert len(basis) == len(ref) == len(_echelon(f, ref + basis))
            if d ** len(basis) <= SPAN_GUARD:
                # d^dim distinct polynomials inside the reference span are all of it
                got = closure_generate(g)
                assert len(got) == d ** len(basis) and g in got
                ref_polys = [interpolate(f, dict(zip(points, row))) for row in ref]
                coeffs = [[p.coeffs.get(e, f.zero) for e in mons] for p in ref_polys + list(got)]
                assert len(_echelon(f, coeffs)) == len(ref)

    def test_size_guard(self):
        # only the listing is guarded (SPAN_GUARD), not d^n or the pre-map count
        for d, size in ((5, 625), (3, 81)):
            f = make_field(d)
            affine = enumerate_subspace(f, 3, 1)
            assert len(affine) == size and closure_generate(MultiPoly.variable(f, 3, 0)) == affine

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2),
                                     (7, 2), (2, 3), (3, 3)])
    def test_monomial_closure_is_degree_class_at_prime_d(self, d, n):
        # affine pre-maps never raise the combined degree, so the closure of g
        # lies in Omega_n(deg g); equal dimensions make the two spaces equal
        f = make_field(d)
        for e in itertools.product(range(d), repeat=n):
            if list(e) == sorted(e, reverse=True):
                g = MultiPoly.monomial(f, n, e)
                assert len(closure_basis(g)) == len(subspace_monomials(f, n, sum(e))), e

    @pytest.mark.parametrize("d,e,dim,class_dim", [(4, 2, 2, 3), (8, 5, 4, 6), (9, 4, 4, 5)])
    def test_monomial_closure_below_degree_class_at_prime_power(self, d, e, dim, class_dim):
        # (c*x + b)^e keeps only the x^k whose base-p digits are at most those
        # of e (Lucas), so over GF(p^r) the degree does not fix the closure
        f = make_field(d)
        assert len(closure_basis(MultiPoly.monomial(f, 1, (e,)))) == dim
        assert len(subspace_monomials(f, 1, e)) == class_dim

    @pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3, 4, 5, 7, 8, 9) for n in (1, 2, 3)
                                     if d**n <= 130])
    def test_monomials_match_echelon_referee(self, d, n):
        f = make_field(d)
        rng = random.Random(100 * d + n)
        mons = list(itertools.product(range(d), repeat=n))
        gs = [MultiPoly.zero(f, n), MultiPoly.constant(f, n, d - 1)]
        gs += [MultiPoly(f, n, {e: rng.randrange(1, d)
                                for e in rng.sample(mons, rng.randint(1, min(3, len(mons))))})
               for _ in range(3)]
        points = all_points(f, n)
        for g in gs:
            ref = _echelon_closure(g)
            ref_mons = set().union(*(interpolate(f, dict(zip(points, row))).coeffs for row in ref))
            assert _closure_monomials(g) == sorted(ref_mons), g.pretty()
            assert len(ref_mons) == len(ref)

    @pytest.mark.parametrize("d,n,terms", [
        (3, 2, {(2, 1): 1}), (4, 1, {(2,): 1}), (4, 2, {(1, 2): 3, (0, 1): 1}), (5, 1, {(3,): 2}),
        (9, 1, {(4,): 1}), (2, 3, {(1, 1, 0): 1}),
    ])
    def test_basis_is_monomial_value_vectors(self, d, n, terms):
        f = make_field(d)
        g = MultiPoly(f, n, terms)
        points = all_points(f, n)
        mons = _closure_monomials(g)
        assert mons == sorted(set(mons))
        assert closure_basis(g) == [tuple(MultiPoly.monomial(f, n, e).evaluate(x) for x in points)
                                    for e in mons]

    def test_zero_variable_closure_is_the_constants(self):
        f = make_field(3)
        g = MultiPoly(f, 0, {(): 1})
        assert closure_basis(g) == [(1,)]
        assert closure_generate(g) == {MultiPoly.constant(f, 0, c) for c in range(3)}


class TestMonomialSpan:
    @staticmethod
    def _listing(f, n, mons):
        # the enumeration the span replaced: one polynomial per coefficient
        # vector, in itertools.product order
        return [MultiPoly._trusted(f, n, zip(mons, coeffs))
                for coeffs in itertools.product(f.elements(), repeat=len(mons))]

    def _check_span(self, f, n, chosen, rng):
        d, mons = f.d, list(itertools.product(range(f.d), repeat=n))
        span = MonomialSpan(f, n, chosen)
        members, want = list(span), self._listing(f, n, chosen)
        assert members == want
        assert len(members) == len(span) == len(set(span)) == d**len(chosen)
        again = list(span)
        assert again == members
        assert len({id(p.coeffs) for p in members + again}) == 2 * len(members)
        plain = set(want)
        assert span == plain and plain == span
        if plain:
            fewer = plain - {want[-1]}
            assert span != fewer and fewer != span and span - {want[-1]} == fewer
        for _ in range(20):
            support = rng.sample(mons, rng.randint(0, min(3, len(mons))))
            p = MultiPoly(f, n, {e: rng.randrange(d) for e in support})
            assert (p in span) == (p in plain)
            other = MultiPoly(make_field(11), n, p.coeffs)
            assert other not in span
            wider = MultiPoly(f, n + 1, {e + (0,): c for e, c in p.coeffs.items()})
            assert wider not in span
        assert "x" not in span

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
    def test_span_matches_the_listing(self, d):
        f = make_field(d)
        rng = random.Random(d)
        for n in (0, 1, 2, 3):
            mons = list(itertools.product(range(d), repeat=n))
            for _ in range(4):
                k = rng.randint(0, min(len(mons), int(math.log(SPAN_GUARD, d))))
                self._check_span(f, n, rng.sample(mons, k), rng)
        # fixed sizes on every run: an empty first part (k <= 1), both
        # parities of the split and, at d = 3, the guard edge 3^9
        for k in {2: (0, 1, 2, 3), 3: (0, 1, 2, 3, 9)}.get(d, ()):
            self._check_span(f, 2, rng.sample(list(itertools.product(range(d), repeat=2)), k), rng)

    def test_a_guard_edge_listing_holds_few_dicts(self):
        # 3^9 members, listed while holding the 3^5 dicts of the last five
        # monomials and one head dict, not a dict per member of the first 8
        span = closure_generate(MultiPoly(make_field(3), 2, {(2, 2): 1}))
        tracemalloc.start()
        try:
            count = sum(1 for _ in span)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == len(span) == 3**9
        assert peak < 256 * 2**10, peak

    @pytest.mark.parametrize("n, monomials, refused", [
        (1, [(1,), (0,), (1,)], "(1,) repeated"),
        (2, [(0, 0), (1,)], "(1,) not reduced"),
        (1, [(0, 0)], "(0, 0) not reduced"),
        (1, [(5,)], "(5,) not reduced"),
        (1, [(-1,)], "(-1,) not reduced"),
        (1, [(1.0,)], "(1.0,) not reduced"),
        (1, [(True,)], "(True,) not reduced"),
        (1, [[1]], "[1] not reduced"),
    ], ids=["repeated", "too_short", "too_long", "exponent_d_or_more", "negative_exponent",
            "float_exponent", "bool_exponent", "not_a_tuple"])
    def test_invalid_monomials_refused(self, n, monomials, refused):
        with pytest.raises(ValueError, match=re.escape(refused)):
            MonomialSpan(make_field(3), n, monomials)

    def test_spans_compare_by_their_monomials(self):
        f = make_field(5)
        mons = [(0, 0), (1, 0), (0, 1)]
        span = MonomialSpan(f, 2, mons)
        assert span == MonomialSpan(f, 2, mons[::-1])
        assert span == enumerate_subspace(f, 2, 1) == closure_generate(MultiPoly.variable(f, 2, 1))
        assert span != MonomialSpan(f, 2, mons[:2])
        assert span != MonomialSpan(make_field(7), 2, mons)
        assert span != MonomialSpan(f, 3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])

    def test_repr_names_modulus_and_size(self):
        assert repr(enumerate_subspace(make_field(3), 2, 2)) == "MonomialSpan(prime-field(3), n=2, 6 monomials)"

    def test_a_listing_hashes_no_member(self, monkeypatch):
        g = MultiPoly(make_field(3), 2, {(2, 1): 1})
        monkeypatch.setattr(MultiPoly, "__hash__", lambda p: pytest.fail("a member was hashed"))
        span = closure_generate(g)
        # x1^2*x2 spans Omega_2(3): the 8 monomials of degree <= 3
        assert len(span) == 3**8 and g in span and sum(1 for _ in span) == len(span)


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

    def test_matches_enumeration_tall_shared_columns(self):
        # more rows than columns, every column held by several rows: the
        # shapes where the order of the pivots decides the elimination
        rng = random.Random(43)
        found = 0
        for _ in range(300):
            d = rng.choice((2, 3, 5, 7, 4, 8, 9, 25, 27))
            cols = rng.randint(1, 3 if d <= 9 else 2)
            rows = [{c: rng.randrange(1, d) for c in range(cols) if rng.random() < 0.8}
                    for _ in range(rng.randint(cols + 1, cols + 4))]
            x0 = [rng.randrange(d) for _ in range(cols)]
            rhs = [sum(a * x0[c] for c, a in row.items()) % d for row in rows]
            if rng.random() < 0.5:
                rhs[rng.randrange(len(rhs))] += rng.randrange(1, d)

            def solves(x):
                return all((sum(a * x[c] for c, a in row.items()) - b) % d == 0
                           for row, b in zip(rows, rhs))

            before = ([dict(row) for row in rows], list(rhs))
            x = solve_mod(rows, rhs, cols, d)
            assert (rows, rhs) == before  # elimination works on copies
            exists = any(solves(y) for y in itertools.product(range(d), repeat=cols))
            assert (x is not None) == exists
            if x is not None:
                assert solves(x) and all(0 <= v < d for v in x)
                found += 1
        assert 150 < found < 300


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

    def test_difference_matrix_is_the_binomial_one(self, monkeypatch):
        # the forward-difference matrix comes from the signed Pascal rule
        # mod d; it must equal (-1)^(k+j) C(k, j) mod d, the math.comb form
        matrices = []
        along = fields._along_axes

        def recording(m, values, n, matrix):
            matrices.append(matrix)
            return along(m, values, n, matrix)

        monkeypatch.setattr(fields, "_along_axes", recording)
        for d in range(2, 102):
            matrices.clear()
            assert is_polynomial_over_ring({(x,): x for x in range(d)}, d).coeffs == {(1,): 1}
            assert matrices[0] == [[(-1) ** (k + j) * math.comb(k, j) % d for j in range(d)]
                                   for k in range(d)]


def _ring_reference(table, d):
    """Combined degree of one solution of the dense monomial system over
    Z_d (every reduced polynomial, solved by solve_mod), or None when the
    system has none."""
    points = sorted(table)
    mons = list(itertools.product(range(d), repeat=len(points[0])))
    rows = [{j: math.prod(pow(xi, a, d) for xi, a in zip(x, e)) % d for j, e in enumerate(mons)}
            for x in points]
    coeffs = solve_mod(rows, [table[x] for x in points], len(mons), d)
    if coeffs is None:
        return None
    return max((sum(e) for e, c in zip(mons, coeffs) if c), default=0)


class TestRingLeastDegree:
    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_prime_d_is_interpolation(self, d):
        f = make_field(d)
        rng = random.Random(d)
        for n in (1, 2):
            for _ in range(6):
                table = {x: rng.randrange(d) for x in all_points(f, n)}
                assert is_polynomial_over_ring(table, d) == interpolate(f, table)

    @pytest.mark.parametrize("d", [4, 6])
    def test_least_degree_by_brute_force(self, d):
        # every one-variable table some polynomial matches (64 at d=4, 108 at
        # d=6) with its least degree, then random tables
        powers = [[pow(x, e, d) for e in range(d)] for x in range(d)]
        least = {}
        for coeffs in itertools.product(range(d), repeat=d):
            values = tuple(sum(map(operator.mul, coeffs, row)) % d for row in powers)
            degree = max((e for e, c in enumerate(coeffs) if c), default=0)
            least[values] = min(degree, least.get(values, degree))
        rng = random.Random(d)
        tables = sorted(least) + [tuple(rng.randrange(d) for _ in range(d)) for _ in range(150)]
        for values in tables:
            table = {(x,): v for x, v in enumerate(values)}
            poly = is_polynomial_over_ring(table, d)
            assert (poly is None) == (values not in least)
            if poly is not None:
                assert combined_degree(poly) == least[values]
                assert all(poly.evaluate(x) == v for x, v in table.items())

    @pytest.mark.parametrize("d, n", [(4, 1), (4, 2), (6, 1), (6, 2), (9, 1), (9, 2),
                                      (15, 1), (15, 2)])
    def test_matches_dense_system(self, d, n):
        rng = random.Random(100 * d + n)
        points = list(itertools.product(range(d), repeat=n))
        mons = [e for e in points if sum(e) <= d]
        tables = [{x: rng.randrange(d) for x in points} for _ in range(2)]
        for _ in range(4 if d ** n < 100 else 2):  # polynomial tables
            coeffs = {e: rng.randrange(d) for e in rng.sample(mons, 3)}
            tables.append({x: sum(c * math.prod(pow(xi, a, d) for xi, a in zip(x, e))
                                  for e, c in coeffs.items()) % d for x in points})
        for table in tables:
            poly = is_polynomial_over_ring(table, d)
            degree = _ring_reference(table, d)
            assert (poly is None) == (degree is None)
            if poly is not None:
                assert all(poly.evaluate(x) == v for x, v in table.items())
                assert combined_degree(poly) <= degree


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

    @pytest.mark.parametrize("q, text", [
        (8, "d=8;n=1;{(0):(1,1,0),(1):(1,1,0),(2):(0,1,1),(3):(1,1,1),(4):(1,1,0),"
            "(5):(1,1,0),(6):(0,1,1),(7):(0,1,0)}"),
        (9, "d=9;n=1;{(0):(1,2),(1):(2,1),(2):(1,1),(3):(2,2),(4):(1,1),(5):(1,2),"
            "(6):(1,0),(7):(0,1),(8):(2,0)}"),
    ])
    def test_seeded_gf_interpolation_text(self, q, text):
        # pinned from the coefficient-tuple encoding; the integer one prints the same
        rng = random.Random(q)
        table = {(x,): rng.randrange(q) for x in range(q)}
        assert interpolate(make_field(q), table).serialize() == text


class TestMultiPolyConstruction:
    @pytest.mark.parametrize("d", [3, 6, 9])
    def test_trusted_equals_validated(self, d):
        f = make_field(d)
        rng = random.Random(d)
        for n in (1, 2):
            points = list(itertools.product(range(d), repeat=n))
            for _ in range(5):
                terms = [(e, rng.randrange(d)) for e in rng.sample(points, min(4, len(points)))]
                trusted = MultiPoly._trusted(f, n, terms)
                validated = MultiPoly(f, n, dict(terms))
                assert trusted == validated and hash(trusted) == hash(validated)
                assert trusted.coeffs == {e: c for e, c in terms if c}

    def test_reads_coefficients_mod_d(self):
        f = make_field(9)
        assert MultiPoly(f, 1, {(1,): 11, (2,): 9}).coeffs == {(1,): 2}

    @pytest.mark.parametrize("value", [(0, 1), 1.5, "1"])
    def test_non_integer_coefficient_rejected(self, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            MultiPoly(make_field(4), 1, {(1,): value})

    @pytest.mark.parametrize("terms, message", [
        ({(1.0,): 1}, "exponent tuple (1.0,) not reduced for d=3"),
        ({(True,): 1}, "exponent tuple (True,) not reduced for d=3"),
        ({1: 1}, "exponent tuple 1 not reduced for d=3"),
        ({(1,): True}, "coefficient True is not an integer"),
    ], ids=["float-exponent", "bool-exponent", "int-key", "bool-coefficient"])
    def test_float_and_bool_entries_rejected(self, terms, message):
        # a float or bool entry would print as {(1.0):1} or {(True):1}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MultiPoly(make_field(3), 1, terms)

    def test_moduli_tell_polynomials_apart(self):
        assert MultiPoly(make_field(9), 1, {(1,): 1}) != MultiPoly(IntegerRing(9), 1, {(1,): 1})
        assert MultiPoly(make_field(3), 1, {(1,): 1}) != MultiPoly(make_field(3), 2, {(1, 0): 1})

    @pytest.mark.parametrize("terms", [{(1, 2): 0}, {(5,): 3}])
    def test_unreduced_exponents_rejected_with_zero_coefficient(self, terms):
        with pytest.raises(ValueError, match="not reduced"):
            MultiPoly(make_field(3), 1, terms)

    def test_monomial_with_zero_coefficient_checks_exponents(self):
        with pytest.raises(ValueError, match="not reduced"):
            MultiPoly.monomial(make_field(3), 1, (1, 2), 0)

    @pytest.mark.parametrize("point", [(), (2, 5)])
    def test_evaluate_rejects_wrong_arity(self, point):
        x = MultiPoly.variable(make_field(3), 1, 0)
        with pytest.raises(ValueError, match=f"has {len(point)} coordinates, expected n = 1"):
            x.evaluate(point)

    @pytest.mark.parametrize("q", [3, 4], ids=["Z3", "GF4"])
    @pytest.mark.parametrize("point", [(1.5,), (1.0,), ("1",), (None,), (True,)],
                             ids=["float", "integral-float", "string", "none", "bool"])
    def test_evaluate_rejects_non_integer_coordinates(self, q, point):
        # (1.5,) read as 1.5 over Z_3 and ended in a TypeError over GF(4)
        x = MultiPoly.variable(make_field(q), 1, 0)
        with pytest.raises(ValueError, match=re.escape(
                f"point {point!r} has a coordinate that is not an integer")):
            x.evaluate(point)
        assert [x.evaluate((v,)) for v in range(q + 1)] == [*range(q), 0]

    @pytest.mark.parametrize("n", [-1, 1.0, True, "1", None],
                             ids=["negative", "float", "bool", "string", "none"])
    def test_n_must_be_a_non_negative_int(self, n):
        # -1 and 1.0 both built polynomials
        for build in (lambda: MultiPoly(make_field(3), n, {}),
                      lambda: MultiPoly.zero(make_field(4), n)):
            with pytest.raises(ValueError, match=re.escape(f"n must be >= 0 and an integer, got {n!r}")):
                build()
        assert MultiPoly(make_field(3), 0, {(): 4}).evaluate(()) == 1
