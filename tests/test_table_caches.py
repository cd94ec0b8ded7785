"""The per-modulus tables of the ring test, interpolation and nu: each is
built once per modulus (or (d, n)), shared read-only, and every result
equals the one the tables built afresh on each call give."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc import fields, witnesses
from quditmbqc.errors import SizeGuardError
from quditmbqc.fields import (IntegerRing, MultiPoly, PrimePowerField, all_points, combined_degree,
                              enumerate_subspace, interpolate, is_polynomial_over_ring, make_field,
                              subspace_monomials)
from quditmbqc.witnesses import NU_GUARD, nu_distance


# -- the per-call referee: the three functions as they were before their
# -- tables were cached, each building its tables on every call

def _ring_per_call(table, d):
    n, values = fields._table_values(table, d)
    ring = IntegerRing(d)
    points = all_points(ring, n)
    differences = [[1] + [0] * (d - 1)]
    for _ in range(d - 1):
        differences.append([(a - b) % d for a, b in zip([0] + differences[-1], differences[-1])])
    factorial = [math.factorial(k) % d for k in range(d)]
    falling = []
    for exps, delta in zip(points, fields._along_axes(ring, values, n, differences)):
        kf = math.prod(factorial[k] for k in exps) % d
        g = math.gcd(kf, d)
        if delta % g:
            return None
        falling.append(delta // g * pow(kf // g, -1, d // g) % (d // g))
    stirling = [[1] + [0] * (d - 1)]
    for k in range(d - 1):
        stirling.append([(a - k * b) % d for a, b in zip([0] + stirling[-1], stirling[-1])])
    coeffs = fields._along_axes(ring, falling, n, [list(col) for col in zip(*stirling)])
    powers = [[1] * d for _ in range(d)]
    for x, row in enumerate(powers):
        for j in range(1, d):
            row[j] = row[j - 1] * x % d
    assert fields._along_axes(ring, coeffs, n, powers) == values
    return MultiPoly._trusted(ring, n, zip(points, coeffs))


def _interpolate_per_call(modulus, table):
    q = modulus.d
    n, values = fields._table_values(table, q)
    elems = modulus.elements()
    lagrange = [[int(y == 0) for y in elems]]
    lagrange += [[modulus.neg(modulus.pow_(y, q - 1 - k)) for y in elems] for k in range(1, q)]
    coeffs = fields._along_axes(modulus, values, n, lagrange)
    return MultiPoly._trusted(modulus, n, zip(itertools.product(range(q), repeat=n), coeffs))


def _nu_per_call(table, d, n):
    _, values = fields._table_values(table, d, n)
    ring = IntegerRing(d)
    if ring.is_field and combined_degree(poly := _interpolate_per_call(ring, table)) < d:
        return 0, poly
    mons = subspace_monomials(ring, n, d - 1)
    if d ** len(mons) > NU_GUARD:
        raise SizeGuardError("over the guard")
    points = np.array(all_points(ring, n))
    monomials = np.prod(points[None, :, :] ** np.array(mons)[:, None, :], axis=2) % d
    candidates = np.indices((d,) * len(mons)).reshape(len(mons), -1).T
    dist = sum(np.minimum(diff := (candidates @ row - v) % d, d - diff)
               for row, v in zip(monomials.T, values))
    best = int(dist.argmin())
    return int(dist[best]), MultiPoly._trusted(ring, n, zip(mons, candidates[best].tolist()))


def _outcome(call):
    try:
        return call()
    except SizeGuardError:
        return SizeGuardError


def _random_table(rng, d, n, polynomial):
    """Random values, or the values of a random polynomial over Z_d (which
    the ring test must then find)."""
    points = list(itertools.product(range(d), repeat=n))
    if not polynomial:
        return {x: rng.randrange(d) for x in points}
    terms = [(tuple(rng.randrange(d) for _ in range(n)), rng.randrange(d)) for _ in range(3)]
    return {x: sum(c * math.prod(pow(xi, e, d) for xi, e in zip(x, exps))
                   for exps, c in terms) % d
            for x in points}


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(st.integers(2, 30), st.integers(1, 2), st.booleans(), st.integers(0, 2**32))
def test_cached_tables_give_the_per_call_results(d, n, polynomial, seed):
    table = _random_table(random.Random(seed), d, n, polynomial)
    got, want = is_polynomial_over_ring(table, d), _ring_per_call(table, d)
    assert got == want  # None, the verdict that no polynomial matches, included
    if polynomial:
        assert got is not None
    modulus = make_field(d)
    if modulus.is_field:
        assert interpolate(modulus, table) == _interpolate_per_call(modulus, table)
    assert _outcome(lambda: nu_distance(table, d, n)) == _outcome(lambda: _nu_per_call(table, d, n))


def test_repeated_calls_build_each_table_once():
    for cached in (fields._ring_tables, fields._lagrange, witnesses._nu_tables):
        cached.cache_clear()
    gf9 = make_field(9)
    assert isinstance(gf9, PrimePowerField) and (gf9.p, gf9.r) == (3, 2)
    rng = random.Random(9)
    gf9_table = {(x, y): rng.randrange(9) for x in range(9) for y in range(9)}
    outside = {(x, y): x * x * y * y % 3 for x in range(3) for y in range(3)}  # degree 4 > 2
    for _ in range(3):
        for d in (9, 15):
            assert is_polynomial_over_ring({(x,): x * x % d for x in range(d)}, d) is not None
        interpolate(gf9, gf9_table)
        assert nu_distance(outside, 3, 2)[0] > 0
    ring = fields._ring_tables.cache_info()
    assert (ring.misses, ring.hits) == (2, 4)  # d = 9 and 15
    lagrange = fields._lagrange.cache_info()
    assert (lagrange.misses, lagrange.hits) == (2, 4)  # GF(9), and Z_3 from nu's interpolation
    nu = witnesses._nu_tables.cache_info()
    assert (nu.misses, nu.hits) == (1, 2)  # (d, n) = (3, 2)


def test_cached_tables_are_read_only():
    differences, factorial, stirling, powers = fields._ring_tables(5)
    lagrange = fields._lagrange(make_field(9))
    for table in (differences, stirling, powers, lagrange):
        assert isinstance(table, tuple) and all(isinstance(row, tuple) for row in table)
        with pytest.raises(TypeError):
            table[0][0] = 2
    with pytest.raises(TypeError):
        factorial[0] = 2
    mons, monomials, candidates = witnesses._nu_tables(3, 2)
    assert isinstance(mons, tuple)
    for array in (monomials, candidates):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 2
        view = array
        while view is not None:  # the array it is a view of is read-only too
            assert not view.flags.writeable
            view = view.base


def test_large_tables_share_their_ints():
    # a d x d table holds d^2 references to d int objects, not d^2 ints
    d = 401
    differences, _, stirling, powers = fields._ring_tables(d)
    for table in (differences, stirling, powers, fields._lagrange(make_field(d))):
        assert len({id(v) for row in table for v in row}) <= d


def test_guard_refuses_every_call():
    # x1^4 x2^4 has combined degree 8, outside the 5^15 candidates
    table = {(x, y): x**4 * y**4 % 5 for x in range(5) for y in range(5)}
    witnesses._nu_tables.cache_clear()
    for _ in range(2):
        with pytest.raises(SizeGuardError, match=r"5\^15 = 30517578125 polynomials"):
            nu_distance(table, 5, 2)
    assert witnesses._nu_tables.cache_info().currsize == 0


def test_fields_with_different_polynomials_are_different_moduli():
    # t^2 + 1 and t^2 + t + 2 both give GF(9), with other products
    a, b = PrimePowerField(3, 2, (1, 0, 1)), PrimePowerField(3, 2, (2, 1, 1))
    assert (a.mul(3, 3), b.mul(3, 3)) == (2, 7)
    assert a != b and hash(a) != hash(b)
    assert a == PrimePowerField(3, 2, [1, 0, 1]) and hash(a) == hash(PrimePowerField(3, 2, (1, 0, 1)))
    assert MultiPoly.variable(a, 1, 0) != MultiPoly.variable(b, 1, 0)
    assert MultiPoly.variable(a, 1, 0) not in enumerate_subspace(b, 1, 1)
    rng = random.Random(3)
    table = {(x, y): rng.randrange(9) for x in range(9) for y in range(9)}
    for order in ((a, b), (b, a)):
        fields._lagrange.cache_clear()
        for f in order:  # the second field must not read the first one's table
            poly = interpolate(f, table)
            assert poly.modulus is f
            assert all(poly.evaluate(x) == v for x, v in table.items())
