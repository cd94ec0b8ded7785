"""The flat output law against a per-party referee.

The referee is the straightforward construction: one MbqcPlan.setting call
and one freshly conjugated operator per party, the checked
GlobalObservable constructor, an observable application that rebuilds a
validated SparseState, and the assignment rows summed row by row of Q,
one unknown per cell (k, q).  The engine's flat law reads W(i) as one
N-qudit Weyl label per input, computed for all inputs at once from a
per-plan table of (party kind, setting) labels, and builds no operator;
its assignment search solves one unknown per (Q row, value).  Both must
give the same laws, errors, point tables, assignment verdicts and spaces.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from operator import is_, mul

import pytest

from planlib import random_ghz_plan
from quditmbqc import engine, states
from quditmbqc.compiler import (compile_general_prime, compile_nand, compile_odd_ring,
                                compile_quadratic)
from quditmbqc.engine import (MbqcPlan, TableResource, _point_table, output_distribution, run,
                              weighted_observable)
from quditmbqc.errors import QuditMbqcError, SparseFormError
from quditmbqc.fields import solve_mod
from quditmbqc.phases import PhaseSum, tau_exponent_of_omega, tau_period
from quditmbqc.states import (GlobalObservable, MonomialOp, SparseState, apply_observable, basis_state,
                             make_ghz)
from quditmbqc.weyl import WeylLabel, conjugate_weyl, named_clifford, weyl_power
from quditmbqc.witnesses import NCVA_FOUND, STRONGLY_NONLOCAL, ncva_search_raw


# -- the referee ---------------------------------------------------------------

def _referee_site(plan, k, q, e):
    fid, ctrl = plan.parties[k]
    phase, label = conjugate_weyl(ctrl, fid.v, q)
    tau = (fid.tau_exp + tau_exponent_of_omega(phase, plan.d)) % tau_period(plan.d)
    tau, label = weyl_power(tau, label, e, plan.d)
    return MonomialOp.from_weyl(plan.d, label, tau)


def _referee_observable(plan, i):
    i = tuple(v % plan.d for v in i)
    return GlobalObservable(plan.d, [_referee_site(plan, k, plan.setting(k, i, ()), plan.z[k])
                                     for k in range(plan.N)])


def _referee_apply(M, psi):
    if M.N != psi.N or M.d != psi.d:
        raise QuditMbqcError("observable and state shapes differ")
    period = tau_period(psi.d)
    new_terms = []
    for t, ket in psi.terms:
        phase = t
        new_ket = []
        for z, op in zip(ket, M.sites):
            phase += op.phases[z]
            new_ket.append(op.perm[z])
        new_terms.append((phase % period, tuple(new_ket)))
    out = SparseState(psi.d, psi.N, tuple(new_terms))
    assert len(out.terms) == len(psi.terms)
    return out


def _referee_law(plan, i):
    i = tuple(v % plan.d for v in i)
    d = plan.d
    if isinstance(plan.resource, TableResource):
        q = tuple(plan.setting(k, i, ()) for k in range(plan.N))
        out = {}
        for m, p in plan.resource.distribution(q):
            o = plan.output_of(m)
            out[o] = out.get(o, Fraction(0)) + p
        return {o: p for o, p in out.items() if p}
    psi, W = plan.resource, _referee_observable(plan, i)
    tau_of = {ket: t for t, ket in psi.terms}
    laws = [PhaseSum(d) for _ in range(d)]
    phi = psi
    for j in range(d):
        for t, ket in phi.terms:
            if ket in tau_of:
                for o, law in enumerate(laws):
                    law.add_tau_power(t - tau_of[ket] - 2 * j * (o - plan.s0))
        phi = _referee_apply(W, phi)
    weights = [law.as_rational_integer() for law in laws]
    if None in weights:
        raise SparseFormError(f"output law at input {i} has an irrational probability")
    return {o: Fraction(w, d * len(psi.terms)) for o, w in enumerate(weights) if w}


def _referee_rows(d, n, N, Q, z, q0):
    weighted = [k for k in range(N) if z[k] % d]
    return [{k * d + (sum(map(mul, Q[k], i)) + q0[k]) % d: z[k] for k in weighted}
            for i in itertools.product(range(d), repeat=n)]


# -- the plans -----------------------------------------------------------------

def _table_plan():
    rng = random.Random(7)
    d, n, N = 3, 2, 3
    behavior = {}
    for q in itertools.product(range(d), repeat=N):
        cells = rng.sample(list(itertools.product(range(d), repeat=N)), 3)
        behavior[q] = [(m, Fraction(w, 6)) for m, w in zip(cells, (1, 2, 3))]
    parties = random_ghz_plan(rng, d, N, n, False, False).parties
    return MbqcPlan(d=d, n=n, N=N, resource=TableResource(N, behavior), parties=parties,
                    Q=[[1, 2], [0, 1], [2, 2]], z=[1, 2, 1], s0=1, q0=[0, 2, 1])


def _plans():
    rng = random.Random(19)
    for p in (3, 5, 7):
        yield f"prime{p}", compile_general_prime([rng.randrange(p) for _ in range(p)], p).plan
    for d in (9, 15):
        yield f"odd{d}", compile_odd_ring([rng.randrange(d) for _ in range(d)], d).plan
    yield "nand", compile_nand().plan
    yield "quadratic3", compile_quadratic(3).plan
    for c in range(40):
        d, n, tau_phased = 2 + c % 7, 1 + c // 7 % 2, c // 14 % 2 == 1
        yield (f"ghz{d}.n{n}.{'tau' if tau_phased else 'quad'}.{c}",
               random_ghz_plan(rng, d, rng.randrange(2, 5), n, False, tau_phased))
    yield "table", _table_plan()


PLANS = list(_plans())


@pytest.mark.parametrize("name, plan", PLANS, ids=[name for name, _ in PLANS])
def test_flat_laws_match_referee(name, plan):
    for i in plan.inputs():
        try:
            want = _referee_law(plan, i)
        except SparseFormError:
            with pytest.raises(SparseFormError):
                output_distribution(plan, i)
            continue
        assert output_distribution(plan, i) == want, i
        if isinstance(plan.resource, TableResource):
            assert run(plan, i, 0).settings == tuple(plan.setting(k, i, ()) for k in range(plan.N))
            continue
        W, ref = weighted_observable(plan, i), _referee_observable(plan, i)
        assert W.d == ref.d and W.sites == ref.sites
        assert apply_observable(W, plan.resource) == _referee_apply(ref, plan.resource)


def _check_search(d, n, N, Q, z, s0, q0, table):
    """ncva_search_raw against one solve of the referee rows, one unknown
    per cell (k, q): the same verdict, the space d^cells over those cells,
    and a certificate that reproduces the table with unreached cells 0."""
    rows = _referee_rows(d, n, N, Q, z, q0)
    cells = set().union(*rows)
    inputs = list(itertools.product(range(d), repeat=n))
    values = solve_mod(rows, [table[i] - s0 for i in inputs], N * d, d)
    w = ncva_search_raw(d, n, N, Q, z, s0, table, q0=q0)
    assert w.space == (d, len(cells))
    assert w.verdict == (STRONGLY_NONLOCAL if values is None else NCVA_FOUND)
    if values is None:
        return False
    s = w.assignment
    assert len(s) == N and all(len(t) == d for t in s)
    assert all(s[k][q] == 0 for k in range(N) for q in range(d) if k * d + q not in cells)
    for i in inputs:
        settings = [(sum(map(mul, Q[k], i)) + q0[k]) % d for k in range(N)]
        assert (sum(z[k] * s[k][q] for k, q in enumerate(settings)) + s0 - table[i]) % d == 0, i
    return True


@pytest.mark.parametrize("name, plan", PLANS, ids=[name for name, _ in PLANS])
def test_assignment_rows_match_referee(name, plan):
    rng = random.Random(name)
    tables = [{i: rng.randrange(plan.d) for i in plan.inputs()}]
    point = _point_table(plan) if not isinstance(plan.resource, TableResource) else None
    if point is not None:
        tables.append(point)
    for table in tables:
        _check_search(plan.d, plan.n, plan.N, plan.Q, plan.z, plan.s0, plan.q0, table)


@pytest.mark.parametrize("d, n, Q, z", [
    (6, 1, [[1], [1]], (2, 3)),  # g = 1 only as a combination: 2*2 + 3*1 = 1 (mod 6)
    (9, 1, [[1], [1]], (3, 6)),  # g = 3
    (12, 1, [[1], [1], [1]], (4, 6, 9)),
    (15, 1, [[2], [2], [5]], (3, 5, 10)),
    (8, 2, [[0, 0], [0, 0], [2, 4]], (2, 6, 4)),  # a zero Q row
    (6, 1, [[1], [7], [-5]], (8, -3, 0)),  # one direction mod 6, weights as given
])
def test_grouped_directions_at_composite_d_match_referee(d, n, Q, z):
    # parties sharing a Q row solve as one unknown per (row, value); half
    # the tables come from a local assignment and must be found
    rng = random.Random(d * 100 + len(Q))
    inputs = list(itertools.product(range(d), repeat=n))
    for trial in range(40):
        q0 = [rng.randrange(d) for _ in Q]
        s0 = rng.randrange(d)
        if trial % 2:
            s = [[rng.randrange(d) for _ in range(d)] for _ in Q]
            table = {i: (sum(zk * sk[(sum(map(mul, row, i)) + q0k) % d]
                             for row, zk, sk, q0k in zip(Q, z, s, q0)) + s0) % d for i in inputs}
        else:
            table = {i: rng.randrange(d) for i in inputs}
        assert _check_search(d, n, len(Q), Q, z, s0, q0, table) or not trial % 2


def _referee_points(plan):
    """Per input, o when the referee law is the point mass at o, else None."""
    out = []
    for i in plan.inputs():
        try:
            law = _referee_law(plan, i)
        except SparseFormError:
            law = {}
        out.append(next(iter(law)) if len(law) == 1 else None)
    return out


def _check_points(plan):
    """The point table is the referee's point masses, or None when one law
    is spread or irrational; the kernel's verdicts match input by input."""
    points = _referee_points(plan)
    assert _point_table(plan) == (None if None in points else dict(zip(plan.inputs(), points)))
    if not isinstance(plan.resource, TableResource):
        assert engine._eigenphases(plan, *engine._flat_labels(plan, plan.inputs())) == points
    return points


def _shift_plan(rng, d, N, n, phases):
    """X on every qudit of a GHZ state, each control a random displacement:
    W(i) shifts every ket by (1, .., 1), so psi is an eigenvector exactly
    when its phases step evenly from one ket to the next."""
    parties = [(WeylLabel(d, (0, 1)), named_clifford(d, "weyl-displacement",
                                                     x=(rng.randrange(d), rng.randrange(d))))
               for _ in range(N)]
    return MbqcPlan(d=d, n=n, N=N, resource=make_ghz(d, N, phases=phases), parties=parties,
                    Q=[[rng.randrange(d) for _ in range(n)] for _ in range(N)],
                    z=[1] * N, s0=rng.randrange(d), q0=[rng.randrange(d) for _ in range(N)])


def _random_flat_plans():
    rng = random.Random(29)
    for d in range(2, 10):
        P = tau_period(d)
        for n in (0, 1, 2):
            for tau_phased in (False, True):
                yield random_ghz_plan(rng, d, rng.randrange(2, 5), n, False, tau_phased)
            step = 2 * rng.randrange(d)  # even, so the step around the cycle closes
            yield _shift_plan(rng, d, rng.randrange(2, 5), n, [step * z % P for z in range(d)])
            yield _shift_plan(rng, d, rng.randrange(2, 5), n, [rng.randrange(P) for _ in range(d)])


@pytest.mark.parametrize("name, plan", PLANS, ids=[name for name, _ in PLANS])
def test_point_table_matches_referee(name, plan):
    _check_points(plan)


def test_point_tables_of_random_flat_plans_match_referee():
    # seeded random flat GHZ plans at d = 2..9 and n = 0, 1, 2, with and
    # without tau phases, and X plans whose kets shift
    verdicts, points = set(), set()
    for plan in _random_flat_plans():
        got = _check_points(plan)
        verdicts.add(None in got)
        points.update((plan.d, plan.n) for o in got if o is not None)
    assert verdicts == {True, False}
    assert {(d, n) for d in range(2, 10) for n in (0, 1, 2)} <= points


def test_point_table_in_chunks(monkeypatch):
    # one input per kernel call, each call meeting new (kind, setting)
    # pairs, gives the same tables as one call over all inputs
    want = [_point_table(plan) for _, plan in PLANS]
    monkeypatch.setattr(engine, "_FLAT_CHUNK", 1)
    assert [_point_table(MbqcPlan.loads(plan.dumps())) for _, plan in PLANS] == want
    assert sum(table is None for table in want) > 10


def test_flat_law_builds_no_operator(monkeypatch):
    # the flat law reads labels: no MonomialOp is built, no observable
    # applied and no per-column operator table built; the first point table
    # walks the orbit of each distinct (fiducial, control) pair once, and a
    # second point table and the laws after it walk none
    built, walked = [], []
    monkeypatch.setattr(MonomialOp, "__post_init__", lambda op: built.append(op))
    monkeypatch.setattr(states, "apply_observable", lambda *args: built.append(args))
    real = engine._orbit
    monkeypatch.setattr(engine, "_orbit", lambda *args: walked.append(args) or real(*args))
    for name, plan in PLANS:
        if isinstance(plan.resource, TableResource):
            continue
        plan = MbqcPlan.loads(plan.dumps())
        walked.clear()
        _point_table(plan)
        assert Counter(walked) == Counter((ctrl, fid.v, plan.d) for fid, ctrl in set(plan.parties)), name
        walked.clear()
        _point_table(plan)
        for i in plan.inputs():
            try:
                output_distribution(plan, i)
            except SparseFormError:
                pass
        assert walked == [], name
        assert "_site_ops" not in vars(plan) and "_digit_rows" not in vars(plan), name
    assert built == []


@pytest.mark.parametrize("name, plan", PLANS, ids=[name for name, _ in PLANS])
def test_site_table_matches_conjugation(name, plan):
    # entry _site_columns[k] + q of the site table, with _site_columns[k] =
    # kind*d, is M_k(q) as (t, a, b), whatever the orbit walk that filled it
    P = tau_period(plan.d)
    for k, (fid, ctrl) in enumerate(plan.parties):
        for q in range(plan.d):
            phase, (a, b) = conjugate_weyl(ctrl, fid.v, q)
            want = ((fid.tau_exp + tau_exponent_of_omega(phase, plan.d)) % P, a, b)
            column = plan._site_columns[k]
            assert column % plan.d == 0 and plan._sites[column + q] == want, (k, q)


def test_point_table_reads_no_per_party_setting(monkeypatch):
    plan = compile_general_prime([3, 1, 4, 1, 5, 2, 6], 7).plan
    plan = MbqcPlan.loads(plan.dumps())
    calls = []
    real = MbqcPlan.setting
    monkeypatch.setattr(MbqcPlan, "setting", lambda *args: calls.append(args) or real(*args))
    assert _point_table(plan) == {(x,): v for x, v in enumerate([3, 1, 4, 1, 5, 2, 6])}
    assert calls == []


POWER_PLANS = PLANS + [("prime7.loaded", MbqcPlan.loads(
    compile_general_prime([3, 1, 4, 1, 5, 2, 6], 7).plan.dumps()))]


@pytest.mark.parametrize("name, plan", POWER_PLANS, ids=[name for name, _ in POWER_PLANS])
def test_weighted_observable_reuses_one_power_per_kind_setting_and_weight(name, plan):
    # the sites equal a fresh per-site power of M_k(q_k), and parties of
    # one kind, setting and weight share one operator object
    for i in plan.inputs():
        settings = plan._settings(i)
        sites = weighted_observable(plan, i).sites
        assert sites == tuple(plan._site_ops[plan._site_columns[k] + q].power(e)
                              for k, (q, e) in enumerate(zip(settings, plan.z)))
        shared = {}
        for k, (op, q, e) in enumerate(zip(sites, settings, plan.z)):
            assert shared.setdefault((plan._site_columns[k] // plan.d, q, e), op) is op
        assert all(map(is_, weighted_observable(plan, i).sites, sites))


def test_parties_of_different_kinds_share_one_operator_per_label():
    # the plan keeps one operator per Weyl label, whatever party kind,
    # setting or power it comes from: W_(1,0) is M_0(0) and every M_1(q),
    # W_(2,0) is M_0(0)**2 and every M_2(q)
    fid, still = WeylLabel(3, (1, 0)), named_clifford(3, "weyl-displacement", x=(0, 0))
    plan = MbqcPlan(d=3, n=1, N=3, resource=basis_state(3, (0, 0, 0)),
                    parties=[(fid, named_clifford(3, "S")), (fid, still),
                             (WeylLabel(3, (2, 0)), still)],
                    Q=[[0], [1], [1]], z=[2, 1, 1], s0=0)
    assert [c // 3 for c in plan._site_columns] == [0, 1, 2]
    one, two = plan.site_observable(0, 0), plan.site_observable(2, 0)
    assert one == MonomialOp.from_weyl(3, (1, 0)) and two == one.power(2)
    assert all(plan.site_observable(1, q) is one and plan.site_observable(2, q) is two
               for q in range(3))
    for x in range(3):
        assert list(map(id, weighted_observable(plan, (x,)).sites)) == [id(two), id(one), id(two)]
    assert len(plan._ops) == 2


def test_observable_checks_each_distinct_operator_once(monkeypatch):
    # 252 sites at p = 7 hold a few distinct operators: one omega verdict
    # each, where one per site once ran
    plan = compile_general_prime([3, 1, 4, 1, 5, 2, 6], 7).plan
    verdicts = []
    real = MonomialOp.has_omega_spectrum
    monkeypatch.setattr(MonomialOp, "has_omega_spectrum", lambda op: verdicts.append(op) or real(op))
    for i in plan.inputs():
        verdicts.clear()
        weighted_observable(plan, i)
        assert 0 < len(verdicts) <= len(plan._ops) < plan.N
    # a bad operator repeated is refused at the first site that holds it
    good, bad = MonomialOp.from_weyl(2, (1, 0)), MonomialOp.from_weyl(2, (0, 1), 1)
    with pytest.raises(QuditMbqcError, match=r"^site 1 operator spectrum is not omega powers$"):
        GlobalObservable(2, [good, bad, good, bad])


def test_public_observable_refuses_a_non_permutation_site():
    # the site operator itself is refused when built
    with pytest.raises(QuditMbqcError, match="needs a permutation of 0..2 and 3 phases"):
        GlobalObservable(3, [MonomialOp(3, (0, 0, 1), (0, 0, 0))])
