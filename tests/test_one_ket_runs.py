"""Runs of temporally flat plans on one ket, which engine.run reads in one
numpy pass, against a referee that walks the parties one by one through
the public API: party k's setting from plan.setting, its operator from
plan.site_observable, and the cycle of that operator through the ket's
digit, from which it draws _below(getrandbits, L) at every party, L = 1
included.  Settings, outcomes, output and a caller's Random state must be
the referee's, for a seed that is an int, None or a caller's Random, and
runs must leave the plan's cached arrays as they found them."""

import math
import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc.compiler import compile_general_prime
from quditmbqc.engine import MbqcPlan, run
from quditmbqc.fields import is_prime
from quditmbqc.phases import tau_period
from quditmbqc.states import SparseState, _below
from quditmbqc.weyl import CliffordSpec, WeylLabel


def _referee(plan: MbqcPlan, i: tuple, getrandbits) -> tuple[tuple, list]:
    """(settings, outcomes, output) of a run, party by party, and each
    party's L: a party draws its outcome below L, the length of the cycle
    of its site operator through its digit of the ket, from that cycle's L
    outcomes in ascending order (those m with 2*m*L = the cycle's phase
    sum mod the tau period)."""
    ((_, ket),) = plan.resource.terms
    P = tau_period(plan.d)
    qs, outcomes, lengths = [], [], []
    for k, digit in enumerate(ket):
        q = plan.setting(k, i, outcomes)
        op = plan.site_observable(k, q)
        x, L, phi = digit, 0, 0
        while not L or x != digit:
            x, L, phi = op.perm[x], L + 1, phi + op.phases[x]
        on_cycle = [m for m in range(plan.d) if (2 * m * L - phi) % P == 0]
        assert len(on_cycle) == L  # the plan proved an omega spectrum
        qs.append(q)
        outcomes.append(on_cycle[_below(getrandbits, L)])
        lengths.append(L)
    return (tuple(qs), tuple(outcomes), plan.output_of(outcomes)), lengths


@st.composite
def one_ket_plans(draw):
    """(plan, one to three of its inputs, seed): a flat plan at d in 2..9 with n
    in {0, 1, 2} on one ket; its parties mix Z-like fiducials (one outcome
    on a basis ket) with X-like ones (several), and identity controls with
    random monomial-class ones."""
    d = draw(st.integers(2, 9))
    n, N = draw(st.integers(0, 2)), draw(st.integers(1, 8))
    units = [u for u in range(1, d) if math.gcd(u, d) == 1]
    digit, P = st.integers(0, d - 1), tau_period(d)
    kinds = []
    for _ in range(draw(st.integers(1, 3))):
        v = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (0, 0), (2 % d, 0), (0, 2 % d)]))
        if draw(st.booleans()):
            v = (draw(digit), draw(digit))
        # an even tau exponent keeps the omega spectrum at every d
        fiducial = WeylLabel(d, v, 2 * draw(st.integers(0, P - 1)) % P)
        if draw(st.booleans()):
            control = CliffordSpec(d, ((1, 0), (0, 1)))
        else:
            s = draw(st.sampled_from(units))
            control = CliffordSpec(d, ((pow(s, -1, d), draw(digit)), (0, s)), (draw(digit), draw(digit)))
        kinds.append((fiducial, control))
    parties = [kinds[draw(st.integers(0, len(kinds) - 1))] for _ in range(N)]
    ket = tuple(draw(st.lists(digit, min_size=N, max_size=N)))
    resource = SparseState(d, N, ((draw(st.integers(0, P - 1)), ket),))
    plan = MbqcPlan(d=d, n=n, N=N, resource=resource, parties=parties,
                    Q=[draw(st.lists(digit, min_size=n, max_size=n)) for _ in range(N)],
                    z=draw(st.lists(digit, min_size=N, max_size=N)), s0=draw(digit),
                    q0=draw(st.lists(digit, min_size=N, max_size=N)) if draw(st.booleans()) else None)
    inputs = draw(st.lists(st.lists(digit, min_size=n, max_size=n).map(tuple), min_size=1, max_size=3))
    return plan, inputs, draw(st.integers(0, 2**32))


def _cached_arrays(plan: MbqcPlan) -> list:
    """Copies of every numpy array the plan caches for its runs."""
    f = plan._flat
    return [a.copy() for a in (f.QT, f.q0, f.z, f.column, f.sites, f.kets, plan._sure)]


def test_one_ket_runs_match_the_party_by_party_referee():
    seen, seed_random = set(), random.Random.seed

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(one_ket_plans())
    def check(case):
        plan, inputs, seed = case
        for i in inputs:
            # an int seed: the run's own Random, seeded at its first draw that chooses
            trace = run(plan, i, seed)
            want, lengths = _referee(plan, i, random.Random(seed).getrandbits)
            assert trace.input == i and (trace.settings, trace.outcomes, trace.output) == want
            cached = _cached_arrays(plan)  # built by the first run
            # a caller's Random: the same bits, and the one-outcome draws
            # after the last draw that chooses are paid to it as well
            mine, twin = random.Random(seed), random.Random(seed)
            trace = run(plan, i, mine)
            assert (trace.settings, trace.outcomes, trace.output) == _referee(plan, i, twin.getrandbits)[0]
            assert mine.getstate() == twin.getstate()
            # None: the run seeds one Random, at its first draw that
            # chooses, and draws from it what the referee draws from there
            states = []

            def seeding(rng, *args, **kwargs):
                seed_random(rng, *args, **kwargs)
                states.append(rng.getstate())

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(random.Random, "seed", seeding)
                trace = run(plan, i, None)
            assert len(states) == (max(lengths) > 1)
            twin = random.Random()
            if states:
                twin.setstate(states[0])
            assert (trace.settings, trace.outcomes, trace.output) == _referee(plan, i, twin.getrandbits)[0]
            # runs build new arrays: what the plan caches stays as it was
            for was, now in zip(cached, _cached_arrays(plan)):
                assert was.dtype == now.dtype and np.array_equal(was, now)
            if 1 in lengths and max(lengths) > 1:
                seen.add("L = 1 and L >= 2 in one run")
            if plan.n == 0:
                seen.add("n = 0")
            if not is_prime(plan.d) and max(lengths) > 1:
                seen.add("composite d, L >= 2")
            if min(lengths) > 1:
                seen.add("L >= 2 at every party")

    check()
    assert seen == {"L = 1 and L >= 2 in one run", "n = 0", "composite d, L >= 2",
                    "L >= 2 at every party"}


def test_compiled_p23_runs_reproduce_the_table():
    # 11,132 parties, every step with one outcome: the target on every
    # input, for an int seed and a caller's Random, which ends as after N
    # one-outcome draws
    p = 23
    rng = random.Random(23)
    m = [rng.randrange(p) for _ in range(p)]
    plan = compile_general_prime(m, p).plan
    assert plan.N == 11132
    twin = random.Random(5)
    for x in range(p):
        assert run(plan, (x,), x).output == m[x]
        mine = random.Random(x)
        twin.setstate(mine.getstate())
        assert run(plan, (x,), mine).output == m[x]
        for _ in range(plan.N):
            assert _below(twin.getrandbits, 1) == 0
        assert mine.getstate() == twin.getstate()
