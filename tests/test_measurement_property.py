"""Property: measurement_distribution with the cycles cached on the operator
gives the branches and errors of a per-call cycle construction, and the
cached cycle data equals that construction's."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc.errors import QuditMbqcError, SparseFormError
from quditmbqc.phases import tau_period
from quditmbqc.states import MonomialOp, SparseState, _merged_rest, measurement_distribution


def _reference_cycles(op: MonomialOp):
    """z -> (C, s, phi_s) and (L, outcomes) per cycle, built per call."""
    d, period = op.d, tau_period(op.d)
    place = [None] * d
    cycles = []
    for start in range(d):
        if place[start] is not None:
            continue
        z, s, phi = start, 0, 0
        while place[z] is None:
            place[z] = (len(cycles), s, phi)
            phi += op.phases[z]
            s += 1
            z = op.perm[z]
        cycles.append((s, [m for m in range(d) if (2 * m * s - phi) % period == 0]))
    return place, cycles


def _reference_omega(op: MonomialOp) -> bool:
    period = tau_period(op.d)
    seen = [False] * op.d
    for start in range(op.d):
        if seen[start]:
            continue
        length, phase, z = 0, 0, start
        while not seen[z]:
            seen[z] = True
            length += 1
            phase += op.phases[z]
            z = op.perm[z]
        if z != start or op.d % length or (op.d // length) * phase % period:
            return False
    return True


def _reference_distribution(psi: SparseState, site: int, op: MonomialOp):
    """measurement_distribution as it was with the cycles built per call."""
    d = psi.d
    if not _reference_omega(op):
        raise QuditMbqcError("site operator spectrum is not omega powers")
    period = tau_period(d)
    place, cycles = _reference_cycles(op)
    groups = [[] for _ in cycles]
    for t, ket in psi.terms:
        c, s, phi = place[ket[site]]
        groups[c].append((ket[:site] + ket[site + 1:], t - phi, s))
    K = len(psi.terms)
    out = []
    for c, (L, outcomes) in enumerate(cycles):
        group = sorted(groups[c])
        if not group:
            continue
        distinct = all(a[0] != b[0] for a, b in zip(group, group[1:]))
        for m in outcomes:
            if distinct:
                e0 = group[0][1] + 2 * m * group[0][2]
                terms = tuple(((e + 2 * m * s - e0) % period, rest) for rest, e, s in group)
                norm_sq = 1
            else:
                terms, norm_sq = _merged_rest(d, group, m)
                if not terms:
                    continue
            out.append((m, Fraction(len(terms) * norm_sq, K * L),
                        SparseState._trusted(d, psi.N - 1, terms)))
    out.sort(key=lambda branch: branch[0])
    total = sum(p for _, p, _ in out)
    if total != 1:
        raise SparseFormError(f"branch probabilities sum to {total}, not 1")
    return out


@st.composite
def monomial_ops(draw, d: int) -> MonomialOp:
    """Free phases (mostly no omega spectrum), or cycles whose lengths
    divide d with each cycle's phase sum set so that op**d is the identity."""
    period = tau_period(d)
    if draw(st.booleans()):
        perm = draw(st.permutations(range(d)))
        return MonomialOp(d, tuple(perm), tuple(draw(st.lists(
            st.integers(0, period - 1), min_size=d, max_size=d))))
    order = draw(st.permutations(range(d)))
    divisors = [L for L in range(1, d + 1) if d % L == 0]
    perm, phases = [0] * d, [0] * d
    at = 0
    while at < d:
        L = draw(st.sampled_from([L for L in divisors if L <= d - at]))
        cycle = order[at:at + L]
        step = period // math.gcd(period, d // L)  # Phi_C must be a multiple
        total = step * draw(st.integers(0, period))
        for j, z in enumerate(cycle):
            perm[z] = cycle[(j + 1) % L]
            phases[z] = draw(st.integers(0, period - 1)) if j < L - 1 else 0
        phases[cycle[-1]] = (total - sum(phases[z] for z in cycle)) % period
        at += L
    return MonomialOp(d, tuple(perm), tuple(phases))


@st.composite
def cases(draw):
    d = draw(st.integers(2, 9))
    N = draw(st.integers(1, 3))
    kets = draw(st.sets(st.tuples(*[st.integers(0, d - 1)] * N), min_size=1, max_size=8))
    period = tau_period(d)
    terms = tuple((draw(st.integers(0, period - 1)), ket) for ket in sorted(kets))
    return SparseState(d, N, terms), draw(st.integers(0, N - 1)), draw(monomial_ops(d))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except QuditMbqcError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(cases())
def test_cached_spectrum_matches_per_call_construction(case):
    psi, site, op = case
    fresh = MonomialOp(op.d, op.perm, op.phases)  # nothing cached yet
    want = _outcome(_reference_distribution, psi, site, op)
    assert _outcome(measurement_distribution, psi, site, fresh) == want
    assert _outcome(measurement_distribution, psi, site, fresh) == want  # from the cache
    place, cycles = _reference_cycles(op)
    assert fresh.spectrum == (tuple(place), tuple((L, tuple(ms)) for L, ms in cycles))
    assert fresh.has_omega_spectrum() == _reference_omega(op)
