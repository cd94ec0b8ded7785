"""Property: measurement_distribution with the cycles cached on the operator
gives the branches and errors of a per-call cycle construction, and the
cached cycle data equals that construction's.  The merged rests of that
reference come from a frozen copy of the earlier _merged_rest, with an int
or PhaseSum amplitude per rest and two ratio tables, which also referees
the current _merged_rest directly: its norm and its lookup of each
amplitude's correlation with the first among the scaled tau powers.  Runs and
ordered walks measure position 0 again and again through the suffix
trie of the resource, which must give measurement_distribution's branches
at every step; a run's head step, which draws over the kernel's weights
and, on a fresh plan, builds only the one rest it keeps, must give what a draw over branches
with every rest built gives, refusals and Random state included; a run's
one-ket step, which draws straight off the site operator's cycle, must
draw what the kernel draws.  Both draw by _below, which must take the
bits Random.randrange takes.  The referee of every draw is a frozen copy
of the earlier threshold walk, _threshold_draw, which the draw of
states._drawn over a states._draw_table must match, branch and Random
state, on any branch list."""

import functools
import math
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc import engine
from quditmbqc.compiler import compile_general_prime, compile_odd_ring
from quditmbqc.engine import MbqcPlan, run
from quditmbqc.errors import QuditMbqcError, SparseFormError
from quditmbqc.phases import PhaseSum, tau_period, tau_power_keys
from quditmbqc.states import (MonomialOp, SparseState, _below, _draw_table, _drawn,
                              _measurement_branches, _merged_rest, _suffix_trie,
                              measure_local, measurement_distribution)
from quditmbqc.weyl import WeylLabel, named_clifford
from planlib import random_ghz_plan


def _threshold_draw(branches, getrandbits):
    """A branch drawn with its exact probability branch[1] / branch[2]: one
    _below draw over the least common denominator of the reduced
    probabilities, then a walk over the cumulative weights (a frozen copy
    of the earlier states._draw_branch)."""
    den = math.lcm(*(b[2] // math.gcd(b[1], b[2]) for b in branches))
    draw = _below(getrandbits, den)
    acc = 0
    for branch in branches:
        acc += branch[1] * den // branch[2]
        if draw < acc:
            return branch
    raise AssertionError("sampling fell through")


@st.composite
def branch_lists(draw):
    """(outcome, weight, denominator) lists whose probabilities sum to 1:
    weights up to 50 over one denominator, some zero, each branch's
    fraction written over a multiple of its denominator, so many reduce."""
    weights = draw(st.lists(st.integers(0, 50), min_size=1, max_size=8).filter(any))
    total = sum(weights)
    scales = draw(st.lists(st.integers(1, 6), min_size=len(weights), max_size=len(weights)))
    return [(m, w * c, total * c) for m, (w, c) in enumerate(zip(weights, scales))]


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(st.one_of(branch_lists(), st.builds(lambda c: [(0, c, c)], st.integers(1, 50))),
       st.integers(0, 2**32), st.integers(1, 4))
def test_draw_table_draws_what_the_threshold_walk_draws(branches, seed, repeats):
    # a table built once and drawn from again and again, as a step memo
    # entry is, gives the branch and leaves the Random state of the walk
    table, mine, twin = _draw_table(branches), random.Random(seed), random.Random(seed)
    for _ in range(repeats):
        assert branches[_drawn(table, mine.getrandbits)] is _threshold_draw(branches, twin.getrandbits)
        assert mine.getstate() == twin.getstate()


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


def _frozen_merged_rest(d: int, group, m: int) -> tuple[tuple, int]:
    """The (tau exponent, rest) terms of branch m and their |amplitude|^2,
    as the earlier _merged_rest found them: a rest held an int exponent
    until shared, and the ratios came from the unit keys for an int base or
    from the period rotated copies of a shared base."""
    period = tau_period(d)
    unit_keys = tau_power_keys(d)
    amps: list[list] = []  # [rest, tau exponent, or a PhaseSum once shared]
    for rest, e, s in group:
        e = (e + 2 * m * s) % period
        if not amps or amps[-1][0] != rest:
            amps.append([rest, e])
            continue
        if isinstance(amps[-1][1], int):
            shared = PhaseSum(d)
            shared.add_tau_power(amps[-1][1])
            amps[-1][1] = shared
        amps[-1][1].add_tau_power(e)
    survivors = []  # (rest, amplitude, key)
    for rest, a in amps:
        key = unit_keys[a] if isinstance(a, int) else a.key()
        if any(key):
            survivors.append((rest, a, key))
    if not survivors:
        return (), 0
    base = survivors[0][1]
    if isinstance(base, int):
        norm_sq = 1
        ratio_of = {unit_keys[(base + r) % period]: r for r in range(period)}
    else:
        norm_sq = base.mul(base.conjugate()).as_rational_integer()
        if norm_sq is None or norm_sq <= 0:
            raise SparseFormError(
                "projection produced an amplitude with non-integral norm; "
                "state left the sparse form"
            )
        ratio_of = {}
        for r in range(period):  # base * tau^r
            rotated = PhaseSum(d)
            for j, c in enumerate(base.coeffs):
                if c:
                    rotated.add_tau_power(j + r, c)
            ratio_of[rotated.key()] = r
    terms = []
    for rest, _, key in survivors:
        r = ratio_of.get(key)
        if r is None:
            raise SparseFormError(
                "projection produced non-uniform amplitudes; state left the sparse form"
            )
        terms.append((r, rest))
    return tuple(terms), norm_sq


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
                terms, norm_sq = _frozen_merged_rest(d, group, m)
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
def monomial_ops(draw, d: int, omega_only: bool = False) -> MonomialOp:
    """Free phases (mostly no omega spectrum), or cycles whose lengths
    divide d with each cycle's phase sum set so that op**d is the identity
    (always, when omega_only)."""
    period = tau_period(d)
    if not omega_only and draw(st.booleans()):
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
def sparse_states(draw, max_n: int = 3) -> SparseState:
    d = draw(st.integers(2, 9))
    N = draw(st.integers(1, max_n))
    kets = draw(st.sets(st.tuples(*[st.integers(0, d - 1)] * N), min_size=1, max_size=8))
    period = tau_period(d)
    terms = tuple((draw(st.integers(0, period - 1)), ket) for ket in sorted(kets))
    return SparseState(d, N, terms)


@st.composite
def cases(draw):
    psi = draw(sparse_states())
    return psi, draw(st.integers(0, psi.N - 1)), draw(monomial_ops(psi.d))


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


@st.composite
def shared_groups(draw):
    """(d, a sorted group of (rest, tau exponent, step) entries in which the
    first rest is shared, outcome m) at d in 2..9: the input _merged_rest
    gets when rests coincide on one cycle."""
    d = draw(st.integers(2, 9))
    period = tau_period(d)
    rests = draw(st.lists(st.integers(0, 2), min_size=1, max_size=5))
    rests.append(rests[0])
    group = sorted(((r,), draw(st.integers(-period, period)), draw(st.integers(0, d - 1)))
                   for r in rests)
    return d, group, draw(st.integers(0, d - 1))


_MERGED_OUTCOMES = {
    "projection produced an amplitude with non-integral norm; state left the sparse form":
        "non-integral norm",
    "projection produced non-uniform amplitudes; state left the sparse form":
        "non-uniform amplitudes",
}


def test_merged_rest_matches_the_frozen_copy():
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=600, database=None)
    @given(shared_groups())
    def check(case):
        want = _outcome(_frozen_merged_rest, *case)
        assert _outcome(_merged_rest, *case) == want
        if want[0] is SparseFormError:
            seen.add(_MERGED_OUTCOMES[want[1]])
        else:
            seen.add("terms" if want[0] else "all amplitudes cancel")

    check()
    assert seen == {"terms", "all amplitudes cancel", "non-integral norm", "non-uniform amplitudes"}


@st.composite
def trie_walks(draw):
    """(a state of up to 4 qudits, an omega-spectrum operator per qudit,
    the branch to follow after each step, as an index taken mod the
    number of branches)."""
    psi = draw(sparse_states(max_n=4))
    ops = [draw(monomial_ops(psi.d, omega_only=True)) for _ in range(psi.N)]
    return psi, ops, draw(st.lists(st.integers(0, 7), min_size=psi.N, max_size=psi.N))


def _suffix(levels, k: int, c: int) -> tuple[int, ...]:
    """The suffix ket[k:] of class c at position k, read back through the trie."""
    ket = []
    for level in levels[k:]:
        z, c = level[c]
        ket.append(z)
    return tuple(ket)


def test_trie_steps_match_measurement_distribution():
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(trie_walks())
    def check(case):
        psi, ops, picks = case
        start, levels = _suffix_trie(psi)
        assert [(t, _suffix(levels, 0, c)) for t, c in start] == list(psi.terms)
        terms = start
        for k, (op, pick) in enumerate(zip(ops, picks)):
            if len({levels[k][c][1] for _, c in terms}) < len(terms):
                seen.add("merged rests")
            want = _outcome(measurement_distribution, psi, 0, op)
            got = _outcome(_measurement_branches, psi.d, op, terms, levels[k])
            if isinstance(want[0], type):  # both refuse, with the same error
                assert got == want
                seen.add(want[0].__name__)
                return
            assert [(m, Fraction(w, den)) for m, w, den, _ in got] == [(m, p) for m, p, _ in want]
            for (_, _, _, rest), (_, _, state) in zip(got, want):
                assert [(r, _suffix(levels, k + 1, c)) for r, c in rest()] == list(state.terms)
            terms = got[pick % len(got)][3]()
            psi = want[pick % len(want)][2]
        seen.add("walked to the end")

    check()
    assert seen == {"merged rests", "SparseFormError", "walked to the end"}


@st.composite
def one_ket_runs(draw):
    """(d, an omega-spectrum operator for each of two parties, and for
    every first digit z a second digit, a tau exponent and a seed)."""
    d = draw(st.sampled_from([*range(2, 10), 12, 15]))
    ops = [draw(monomial_ops(d, omega_only=True)) for _ in range(2)]
    digits = st.tuples(st.integers(0, d - 1), st.integers(0, tau_period(d) - 1),
                       st.integers(0, 2**32))
    return d, ops, draw(st.lists(digits, min_size=d, max_size=d))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(one_ket_runs())
def test_one_ket_steps_draw_what_the_kernel_draws(case):
    # a two-party run on the single ket tau^t |z, z2>, its site operators
    # replaced by the drawn ones, against two kernel steps on the same trie
    d, ops, draws = case
    identity = named_clifford(d, "weyl-displacement", x=(0, 0))
    parties = [(WeylLabel(d, v), identity) for v in ((1, 0), (0, 1))]  # two kinds
    for z, (z2, t, seed) in enumerate(draws):
        psi = SparseState(d, 2, ((t, (z, z2)),))
        plan = MbqcPlan(d=d, n=1, N=2, resource=psi, parties=parties,
                        Q=[[0], [0]], z=[1, 1], s0=0)
        site_ops = list(plan._site_ops)
        for k, op in enumerate(ops):  # party k's site operator at setting 0
            site_ops[plan._site_columns[k]] = op
        plan._site_ops = tuple(site_ops)  # before the first run reads its digit rows
        terms, levels = _suffix_trie(psi)
        rng, outcomes = random.Random(seed), []
        for k, op in enumerate(ops):
            ((_, c),) = terms
            _, child = levels[k][c]
            m, _, _, rest = _threshold_draw(_measurement_branches(d, op, terms, levels[k]),
                                            rng.getrandbits)
            terms = rest()
            assert terms == ((0, child),)  # the rest the one-ket step keeps
            outcomes.append(m)
        mine = random.Random(seed)
        assert run(plan, (0,), mine).outcomes == tuple(outcomes)
        assert mine.getstate() == rng.getstate()


_COMPILED = {}


def _compiled_plan(build, m, d):
    """A compiled plan, built once per table."""
    key = (build.__name__, tuple(m))
    if key not in _COMPILED:
        _COMPILED[key] = build(m, d).plan
    return _COMPILED[key]


@st.composite
def seeded_runs(draw):
    """(plan, input, seed): a flat or ordered random GHZ plan at d = 2 or 3,
    or a compiled plan on one ket."""
    if draw(st.booleans()):
        d = draw(st.sampled_from([2, 3]))
        plan = random_ghz_plan(random.Random(draw(st.integers(0, 2**32))), d,
                               draw(st.integers(1, 5)), draw(st.integers(1, 2)),
                               ordered=draw(st.booleans()), tau_phased=draw(st.booleans()))
    else:
        build, d = draw(st.sampled_from([(compile_general_prime, 3), (compile_general_prime, 5),
                                         (compile_odd_ring, 9)]))
        plan = _compiled_plan(build, draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d)), d)
    i = tuple(draw(st.lists(st.integers(0, plan.d - 1), min_size=plan.n, max_size=plan.n)))
    return plan, i, draw(st.integers(0, 2**32))


def test_runs_step_like_local_measurements():
    # run against a stepper built from the public API alone: party k's
    # setting from plan.setting, its operator from plan.site_observable,
    # one measure_local at site 0 of the remaining state, all drawing from
    # one Random
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(seeded_runs())
    def check(case):
        plan, i, seed = case
        rng, psi, outcomes, head = random.Random(seed), plan.resource, [], None
        for k in range(plan.N):
            if head is None and len(psi.terms) == 1:
                head = k
            if head is not None and plan._t_nonzero[k]:
                seen.add("T read in a one-ket tail after a head")
            m, psi = measure_local(psi, 0, plan.site_observable(k, plan.setting(k, i, outcomes)), rng)
            outcomes.append(m)
        mine = random.Random(seed)
        assert run(plan, i, mine).outcomes == tuple(outcomes)
        assert mine.getstate() == rng.getstate()
        seen.add("one ket from the start" if head == 0 else "multi-term head")

    check()
    assert seen == {"T read in a one-ket tail after a head", "one ket from the start",
                    "multi-term head"}


@st.composite
def head_runs(draw):
    """(plan, input, seed, tag): a random_ghz_plan at d = 2..6, flat or
    ordered, tau-phased or not, on its GHZ resource or on a random sparse
    resource of as many qudits, whose kets may share a rest at any
    position; tag names the d = 4 tau-phased GHZ plans."""
    d, N = draw(st.integers(2, 6)), draw(st.integers(2, 4))
    tau_phased = draw(st.booleans())
    plan = random_ghz_plan(random.Random(draw(st.integers(0, 2**32))), d, N, 1,
                           ordered=draw(st.booleans()), tau_phased=tau_phased)
    ghz = draw(st.booleans())
    if not ghz:
        kets = draw(st.sets(st.tuples(*[st.integers(0, d - 1)] * N), min_size=2, max_size=8))
        phases = st.integers(0, tau_period(d) - 1) if tau_phased else st.just(0)
        resource = SparseState(d, N, tuple((draw(phases), ket) for ket in sorted(kets)))
        plan = MbqcPlan(d=d, n=1, N=N, resource=resource, parties=plan.parties, Q=plan.Q,
                        T=plan.T, z=plan.z, s0=plan.s0, q0=plan.q0)
    tag = "tau-phased d = 4 GHZ" if ghz and tau_phased and d == 4 else None
    return plan, (draw(st.integers(0, d - 1)),), draw(st.integers(0, 2**32)), tag


def _built_run(plan: MbqcPlan, i, rng: random.Random, head: list) -> tuple[int, ...]:
    """A run whose every step builds the rest of each branch before it
    draws, _threshold_draw over the full list; the (outcome, rest terms) of
    each step on two or more kets go to head."""
    terms, levels = plan._trie
    outcomes = []
    for k in range(plan.N):
        op = plan.site_observable(k, plan.setting(k, i, outcomes))
        built = [(m, w, den, rest()) for m, w, den, rest
                 in _measurement_branches(plan.d, op, terms, levels[k])]
        m, _, _, rest = _threshold_draw(built, rng.getrandbits)
        if len(terms) > 1:
            head.append((m, rest))
        terms = rest
        outcomes.append(m)
    return tuple(outcomes)


def test_head_steps_draw_then_build_what_a_built_list_draws(monkeypatch):
    # a run's head step on a fresh plan draws over the weights and builds
    # only the one rest it keeps: the same outcome, rest terms, refusal and Random state as a
    # draw over every branch with its rest built
    seen, built, calls = set(), [], []
    kernel = engine._measurement_branches

    def spy(d, op, terms, level):
        calls.append(op)
        branches = kernel(d, op, terms, level)
        seen.add("one cycle" if len(op.spectrum[1]) == 1 else "several cycles")
        if len({level[c][1] for _, c in terms}) < len(terms):
            seen.add("shared rests, not refused")

        def recording(m, rest):
            built.append((m, rest()))
            return built[-1][1]

        return [(m, w, den, functools.partial(recording, m, rest)) for m, w, den, rest in branches]

    monkeypatch.setattr(engine, "_measurement_branches", spy)

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(head_runs())
    def check(case):
        plan, i, seed, tag = case
        head, want_rng, got_rng = [], random.Random(seed), random.Random(seed)
        want = _outcome(_built_run, plan, i, want_rng, head)
        built.clear()
        calls.clear()
        got = _outcome(lambda *args: run(*args).outcomes, plan, i, got_rng)
        assert got == want
        assert got_rng.getstate() == want_rng.getstate()
        assert built == head
        if isinstance(want[0], type):  # the refusing step drew nothing
            assert len(calls) == len(built) + 1
            seen.add(tag or "refused")
        else:
            assert len(calls) == len(built)

    check()
    assert seen == {"one cycle", "several cycles", "shared rests, not refused", "refused",
                    "tau-phased d = 4 GHZ"}


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.integers(0, 2**32),
       st.lists(st.one_of(st.just(1), st.integers(2, 70), st.integers(2**64, 2**80)),
                min_size=1, max_size=30))
def test_below_takes_the_bits_randrange_takes(seed, bounds):
    # n = 1 (which still consumes bits), small n around powers of two, and
    # n above 2^64, whose getrandbits spans more than two 32-bit words
    mine, twin = random.Random(seed), random.Random(seed)
    for n in bounds:
        assert _below(mine.getrandbits, n) == twin.randrange(n)
    assert mine.getstate() == twin.getstate()
