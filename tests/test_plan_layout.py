"""The paths that pay once per distinct value, each against a referee: the
compilers' trusted layout (MbqcPlan._trusted) against the public
constructor on the same rows, the plan-file encoder (MbqcPlan.dumps)
against one json.dumps of to_json, and the flat-law kernel (_sites,
_flat_labels) against frozen copies of the code that gathered (t, a, b)
per (input, party) pair and walked every kind's orbit for every plan."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planlib import exponential_plan, ghz_chain, mermin_plan, nand_plan, quadratic_plan, random_ghz_plan
from quditmbqc.compiler import (compile_exponential, compile_general_prime, compile_nand,
                                compile_odd_ring, compile_quadratic)
from quditmbqc.engine import MbqcPlan, TableResource, _flat_labels
from quditmbqc.errors import QuditMbqcError
from quditmbqc.phases import tau_exponent_of_omega, tau_period
from quditmbqc.states import SparseState, basis_state
from quditmbqc.weyl import CliffordSpec, WeylLabel, _orbit, named_clifford


# -- the trusted layout against the public constructor -----------------------

def _units(d):
    return [u for u in range(1, d) if math.gcd(u, d) == 1]


def _constructions():
    rng = random.Random(7)
    yield "nand", compile_nand
    for d in range(3, 16, 2):  # composite d = 9, 15 included
        f = [rng.randrange(-d, 2 * d) for _ in range(rng.randrange(1, 3))]
        yield f"quadratic{d}", lambda d=d, f=f: compile_quadratic(d, f)
    for d in range(2, 17):
        for u in _units(d):
            yield f"exponential{d}.{u}", lambda d=d, u=u: compile_exponential(d, u)
    yield "exponential6.5.f", lambda: compile_exponential(6, 5, [1, 4])
    for p in (2, 3, 5, 7, 11, 13):  # p = 2 is the affine qubit
        table = [rng.randrange(p) for _ in range(p)]
        yield f"prime{p}", lambda p=p, table=table: compile_general_prime(table, p)
    for d in range(3, 28, 2):
        table = [rng.randrange(-d, 2 * d) for _ in range(d)]
        yield f"odd_ring{d}", lambda d=d, table=table: compile_odd_ring(table, d)


CONSTRUCTIONS = list(_constructions())


def _laid_out(monkeypatch, build):
    """The report build() returns, and the arguments of its one
    MbqcPlan._trusted call."""
    calls, real = [], MbqcPlan._trusted
    spy = classmethod(lambda cls, *args: calls.append(args) or real(*args))
    monkeypatch.setattr(MbqcPlan, "_trusted", spy)
    report = build()
    (args,) = calls
    return report, args


def _public(d, n, resource, fid, controls, Q, q0, z, s0):
    """The plan MbqcPlan._trusted lays out, built by the public constructor."""
    return MbqcPlan(d=d, n=n, N=len(controls), resource=resource,
                    parties=[(fid, ctrl) for ctrl in controls], Q=list(Q), z=list(z), s0=s0, q0=list(q0))


def _check_layout(plan, args):
    want = _public(*args)
    assert plan.parties == want.parties
    assert (plan._site_columns, plan._first) == (want._site_columns, want._first)
    assert plan.Q == want.Q and len({id(row) for row in plan.Q}) == len(set(plan.Q))
    assert (plan.z, plan.q0, plan.s0) == (want.z, want.q0, want.s0)
    assert (plan.d, plan.n, plan.N, plan.resource) == (want.d, want.n, want.N, want.resource)
    assert plan._t_nonzero == want._t_nonzero and plan.temporally_flat
    assert plan._sites == want._sites and plan.dumps() == want.dumps()


@pytest.mark.parametrize("name, build", CONSTRUCTIONS, ids=[name for name, _ in CONSTRUCTIONS])
def test_trusted_layout_matches_the_public_constructor(monkeypatch, name, build):
    report, args = _laid_out(monkeypatch, build)
    assert report.verified
    _check_layout(report.plan, args)


def test_trusted_layout_numbers_kinds_and_rows_by_value():
    # equal but distinct controls are one kind, and equal but distinct
    # rows, unreduced, one tuple
    S, fid = named_clifford(3, "S"), WeylLabel(3, (0, 1))
    twin, M = CliffordSpec(3, S.C, S.x), named_clifford(3, "Mu", u=2)
    args = (3, 2, basis_state(3, (1, 0, 2, 1)), fid, (S, M, twin, S), ([1, 4], (1, 1), [-2, 1], (1, 1)),
            (0, 5, -1, 3), (1, 2, 3, 4), 7)
    plan = MbqcPlan._trusted(*args)
    _check_layout(plan, args)
    assert plan._site_columns == (0, 3, 0, 0) and plan._first == (0, 1)
    assert plan.Q[0] is plan.Q[1] is plan.Q[2] is plan.Q[3] == (1, 1)


@pytest.mark.parametrize("f, bad", [([1.5], "1.5"), (["a"], "'a'"), ([True], "True"), ([1, None], "None")])
def test_trusted_layout_refuses_a_q_row_as_the_constructor_does(f, bad):
    with pytest.raises(QuditMbqcError, match=rf"^Q row 0 has {bad}, expected an integer$"):
        compile_quadratic(3, f)
    with pytest.raises(QuditMbqcError, match=rf"^Q row 0 has {bad}, expected an integer$"):
        compile_exponential(4, 3, f)


def _bad_layouts():
    """(name, MbqcPlan._trusted arguments) that the public constructor
    refuses too."""
    fid, S = WeylLabel(3, (1, 0)), named_clifford(3, "S")
    one, two = basis_state(3, (1,)), basis_state(3, (1, 1))
    good = (3, 1, two, fid, (S, S), ((1,), (2,)), (0, 0), (1, 1), 0)

    def bad(k, value):
        args = list(good)
        args[k] = value
        return tuple(args)

    row = [1.5]
    yield "resource", bad(2, one)
    yield "dimension", bad(4, (S, named_clifford(5, "S")))
    yield "even-d control", (2, 1, basis_state(2, (1,)), WeylLabel(2, (1, 0)),
                             (CliffordSpec(2, ((1, 0), (1, 1))),), ((1,),), (0,), (1,), 0)
    yield "fiducial", (2, 1, basis_state(2, (1,)), WeylLabel(2, (1, 0), 1),
                       (named_clifford(2, "Mu", u=1),), ((1,),), (0,), (1,), 0)
    yield "shared bad row", (3, 1, basis_state(3, (1, 1, 1)), fid, (S, S, S),  # first held by party 1
                             ((1,), row, row), (0, 0, 0), (1, 1, 1), 0)
    yield "second row", bad(5, ((1,), [1, 2]))
    yield "row type", bad(5, ((1,), 5))
    yield "z", bad(7, (1, 1.5))
    yield "q0", bad(6, (0, "0"))
    yield "n", bad(1, True)
    yield "s0", bad(8, 0.0)


@pytest.mark.parametrize("name, args", list(_bad_layouts()), ids=[name for name, _ in _bad_layouts()])
def test_trusted_layout_refuses_what_the_constructor_refuses(name, args):
    with pytest.raises(QuditMbqcError) as want:
        _public(*args)
    with pytest.raises(QuditMbqcError) as got:
        MbqcPlan._trusted(*args)
    assert str(got.value) == str(want.value)


def test_named_controls_are_shared_and_other_calls_build():
    assert named_clifford(5, "Mu", u=2) is named_clifford(5, "Mu", u=2)
    assert named_clifford(5, "S") is named_clifford(5, "S")
    assert named_clifford(5, "Mu", u=7) == named_clifford(5, "Mu", u=2)
    # a list x, or any argument that is not a plain int or string, takes
    # the uncached path; a refusal is never stored
    listed = named_clifford(3, "weyl-displacement", x=[0, 1])
    assert listed == named_clifford(3, "weyl-displacement", x=(0, 1)) and listed.x == (0, 1)
    assert named_clifford(3, "weyl-displacement", x=[0, 1]) is not listed
    for _ in range(2):
        with pytest.raises(QuditMbqcError, match="u=2 is not a unit mod 4"):
            named_clifford(4, "Mu", u=2)
        with pytest.raises(QuditMbqcError, match="control u is True, expected an integer"):
            named_clifford(4, "Mu", u=True)


# -- the flat-law kernel against frozen copies of the per-pair code ----------

def _sites_referee(plan):
    """Every M_k(q) as (t, a, b), one orbit walk per kind of this plan."""
    d, P = plan.d, tau_period(plan.d)
    return tuple(((fid.tau_exp + tau_exponent_of_omega(phase, d)) % P, a, b)
                 for fid, ctrl in map(plan.parties.__getitem__, plan._first)
                 for phase, (a, b) in _orbit(ctrl, fid.v, d))


def _flat_labels_referee(plan, inputs):
    """(A1, A2, AX, beta) from (t, a, b) gathered per (input, party) pair."""
    d, P, N, n = plan.d, tau_period(plan.d), plan.N, plan.n
    QT = np.array(plan.Q, np.int64).reshape(N, n).T
    z, q0 = np.array(plan.z, np.int64), np.array(plan.q0, np.int64)
    kets = np.array([ket for _, ket in plan.resource.terms], np.int64).reshape(-1, N)
    sites = np.array(_sites_referee(plan), np.int64).reshape(-1, 3).T
    column = np.array(plan._site_columns, np.int64)
    keys = (np.array(inputs, np.int64).reshape(len(inputs), n) @ QT + q0) % d + column
    t, a, b = sites.take(keys, axis=1) * z
    A1, A2 = t.sum(1) % P, (a % P * (b % P)).sum(1) % P
    return A1, A2, a % d @ kets.T % d, b % d


def _one_ket_plan(rng, d, N, n):
    units = _units(d)
    parties = []
    for _ in range(N):
        s = rng.choice(units)
        C = ((pow(s, -1, d), rng.randrange(d)), (0, s))
        control = CliffordSpec(d, C, (rng.randrange(d), rng.randrange(d)))
        parties.append((WeylLabel(d, (rng.randrange(d), rng.randrange(d))), control))
    return MbqcPlan(d=d, n=n, N=N, resource=basis_state(d, tuple(rng.randrange(d) for _ in range(N))),
                    parties=parties, Q=[[rng.randrange(d) for _ in range(n)] for _ in range(N)],
                    z=[rng.randrange(d) for _ in range(N)], s0=0, q0=[rng.randrange(d) for _ in range(N)])


def _kernel_plans():
    rng = random.Random(13)
    for d in range(2, 10):
        for n in (0, 1, 2):
            for tau_phased in (False, True):  # multi-ket GHZ plans, tau-phased or stabilizer
                yield random_ghz_plan(rng, d, rng.randrange(1, 6), n, False, tau_phased)
            yield _one_ket_plan(rng, d, rng.randrange(1, 6), n)
    yield from (compile_general_prime([3, 1, 4, 1, 5, 2, 6], 7).plan, compile_odd_ring(list(range(9))).plan,
                compile_exponential(8, 3).plan, compile_nand().plan, mermin_plan(4, 3), quadratic_plan(5))


def test_flat_labels_and_sites_match_the_per_pair_referee():
    rng, evens = random.Random(3), set()
    for plan in _kernel_plans():
        assert plan._sites == _sites_referee(plan)
        inputs = plan.inputs()
        cuts = sorted(rng.sample(range(1, len(inputs)), min(2, len(inputs) - 1)))  # uneven chunks
        for chunk in (inputs[s:e] for s, e in zip([0] + cuts, cuts + [len(inputs)])):
            got, want = _flat_labels(plan, chunk), _flat_labels_referee(plan, chunk)
            assert all(map(np.array_equal, got, want)), (plan.d, plan.N, plan.n, chunk)
        evens.add(plan.d % 2 == 0 and len(plan.resource.terms) > 1)
    assert evens == {False, True}


# -- the plan-file encoder against json.dumps ---------------------------------

def _built_plans():
    yield from (nand_plan(), quadratic_plan(3), exponential_plan(5, 2, 3), ghz_chain(3, 4), mermin_plan(2, 3))
    for _, build in CONSTRUCTIONS[::7]:
        yield build().plan


BUILT = list(_built_plans())


@st.composite
def _kinds(draw, d):
    """A (fiducial, control) pair of new objects: even d takes an even tau
    exponent (an omega spectrum) and an upper-triangular control."""
    P, s = tau_period(d), draw(st.sampled_from(_units(d)))
    digit = st.integers(0, d - 1)
    fid = WeylLabel(d, (draw(digit), draw(digit)), 2 * draw(st.integers(0, P)))
    m = draw(digit)
    C = ((pow(s, -1, d), m), (0, s)) if d % 2 == 0 or draw(st.booleans()) else ((pow(s, -1, d), 0), (m, s))
    return fid, CliffordSpec(d, C, (draw(digit), draw(digit)), draw(st.integers(0, P - 1)))


@st.composite
def _random_plans(draw):
    """Quantum plans, flat or ordered, with equal but distinct party and row
    objects, parties given as lists, unreduced entries, q0 or none, n = 0
    and N = 0 among them."""
    d, N, n = draw(st.integers(2, 7)), draw(st.integers(0, 5)), draw(st.integers(0, 2))
    P, entry = tau_period(d), st.integers(-2 * d, 3 * d)
    specs = [draw(_kinds(d)) for _ in range(draw(st.integers(1, 3)))]
    parties, rows = [], []
    for k in range(N):
        fid, ctrl = specs[draw(st.integers(0, len(specs) - 1))]
        if draw(st.booleans()):  # an equal but distinct pair
            fid, ctrl = WeylLabel(d, list(fid.v), fid.tau_exp), CliffordSpec(d, ctrl.C, ctrl.x, ctrl.tau_exp)
        parties.append([fid, ctrl] if draw(st.booleans()) else (fid, ctrl))
        reuse = rows and draw(st.integers(0, 2))
        rows.append(rows[-1] if reuse == 1 else list(rows[-1]) if reuse == 2
                    else draw(st.lists(entry, min_size=n, max_size=n)))
    T = None
    if N and draw(st.booleans()):
        T = [{j: draw(entry) for j in draw(st.sets(st.integers(0, k - 1), max_size=2))} if k else {}
             for k in range(N)]
    kets = draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * N), min_size=1, max_size=3, unique=True))
    resource = SparseState(d, N, tuple((draw(st.integers(0, 3 * P)), ket) for ket in kets))
    return MbqcPlan(d=d, n=n, N=N, resource=resource, parties=parties, Q=rows, T=T,
                    z=draw(st.lists(entry, min_size=N, max_size=N)), s0=draw(entry),
                    q0=draw(st.one_of(st.none(), st.lists(entry, min_size=N, max_size=N))))


@st.composite
def _table_plans(draw):
    d, N, n = draw(st.integers(2, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 1))
    digit = st.integers(0, d - 1)
    outcome = st.tuples(*[digit] * N)
    behavior = {}
    for q in itertools.product(range(d), repeat=N):
        first, second = draw(outcome), draw(outcome)
        w = Fraction(draw(st.integers(1, 3)), 4)
        behavior[q] = [(first, w), (second, 1 - w)] if first != second else [(first, Fraction(1))]
    fid = WeylLabel(d, (1, 0))
    return MbqcPlan(d=d, n=n, N=N, resource=TableResource(N, behavior),
                    parties=[(fid, named_clifford(d, "S"))] * N,
                    Q=[draw(st.lists(digit, min_size=n, max_size=n)) for _ in range(N)],
                    z=draw(st.lists(digit, min_size=N, max_size=N)), s0=draw(digit),
                    q0=draw(st.one_of(st.none(), st.lists(digit, min_size=N, max_size=N))))


def test_dumps_is_json_dumps_of_to_json_on_any_plan():
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=400, database=None)
    @given(st.one_of(st.sampled_from(BUILT), _random_plans(), _table_plans()))
    def check(plan):
        text = plan.dumps()
        assert text == json.dumps(plan.to_json(), separators=(",", ":")) + "\n"
        again = MbqcPlan.loads(text)
        assert again == plan and again.dumps() == text
        seen.update({("N", plan.N == 0), ("n", plan.n == 0), ("q0", any(plan.q0)),
                     ("ordered", not plan.temporally_flat),
                     ("table", isinstance(plan.resource, TableResource))})

    check()
    assert {("N", True), ("n", True), ("q0", True), ("ordered", True), ("table", True)} <= seen
