"""The flat output law against a per-party referee.

The referee is the straightforward construction: one MbqcPlan.setting call
and one freshly conjugated operator per party, the checked
GlobalObservable constructor, an observable application that rebuilds a
validated SparseState, and the assignment rows summed row by row of Q.
The engine's flat law reads the settings of all parties from Q's columns,
one cached operator per (party kind, setting, power), and skips the checks
that its own construction makes true; both must give the same laws,
errors, assignment rows and verdicts.
"""

import itertools
import random
from fractions import Fraction
from operator import mul

import pytest

from planlib import random_ghz_plan
from quditmbqc import engine, states, witnesses
from quditmbqc.compiler import (compile_general_prime, compile_nand, compile_odd_ring,
                                compile_quadratic)
from quditmbqc.engine import (MbqcPlan, TableResource, _point_table, output_distribution, run,
                              weighted_observable)
from quditmbqc.errors import QuditMbqcError, SparseFormError
from quditmbqc.fields import solve_mod
from quditmbqc.phases import PhaseSum, tau_exponent_of_omega, tau_period
from quditmbqc.states import GlobalObservable, MonomialOp, SparseState, apply_observable
from quditmbqc.weyl import conjugate_weyl, weyl_power
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


@pytest.mark.parametrize("name, plan", PLANS, ids=[name for name, _ in PLANS])
def test_assignment_rows_match_referee(name, plan, monkeypatch):
    rng = random.Random(name)
    tables = [{i: rng.randrange(plan.d) for i in plan.inputs()}]
    point = _point_table(plan) if not isinstance(plan.resource, TableResource) else None
    if point is not None:
        tables.append(point)
    seen = []
    real = witnesses.solve_mod
    monkeypatch.setattr(witnesses, "solve_mod",
                        lambda rows, *args: seen.append(rows) or real(rows, *args))
    for table in tables:
        w = ncva_search_raw(plan.d, plan.n, plan.N, plan.Q, plan.z, plan.s0, table, q0=plan.q0)
        rows = _referee_rows(plan.d, plan.n, plan.N, plan.Q, plan.z, plan.q0)
        assert seen.pop() == rows
        values = solve_mod(rows, [table[i] - plan.s0 for i in plan.inputs()],
                           plan.N * plan.d, plan.d)
        assert w.space == (plan.d, len(set().union(*rows)))
        assert w.verdict == (STRONGLY_NONLOCAL if values is None else NCVA_FOUND)
        if values is not None:
            assert w.assignment == tuple(tuple(values[k * plan.d:(k + 1) * plan.d])
                                         for k in range(plan.N))


def test_flat_law_stops_at_the_last_moment(monkeypatch):
    # one application decides a point mass; a spread law needs W^j psi for
    # j < d and reads that first product as its j = 1 moment, so d-1
    # applications in all, and W^d psi is never computed
    calls = []
    real = states.apply_observable
    spy = lambda M, psi: calls.append(M) or real(M, psi)
    monkeypatch.setattr(states, "apply_observable", spy)
    monkeypatch.setattr(engine, "apply_observable", spy)
    spread = 0
    for name, plan in PLANS:
        if isinstance(plan.resource, TableResource):
            continue
        for i in plan.inputs():
            calls.clear()
            try:
                law = output_distribution(plan, i)
            except SparseFormError:
                continue
            assert len(calls) == (1 if len(law) == 1 else plan.d - 1), (name, i)
            spread += len(law) > 1
    assert spread > 10


def test_point_table_reads_no_per_party_setting(monkeypatch):
    plan = compile_general_prime([3, 1, 4, 1, 5, 2, 6], 7).plan
    plan = MbqcPlan.loads(plan.dumps())
    calls = []
    real = MbqcPlan.setting
    monkeypatch.setattr(MbqcPlan, "setting", lambda *args: calls.append(args) or real(*args))
    assert _point_table(plan) == {(x,): v for x, v in enumerate([3, 1, 4, 1, 5, 2, 6])}
    assert calls == []


def test_public_observable_refuses_a_non_permutation_site():
    # the site operator itself is refused when built
    with pytest.raises(QuditMbqcError, match="needs a permutation of 0..2 and 3 phases"):
        GlobalObservable(3, [MonomialOp(3, (0, 0, 1), (0, 0, 0))])
