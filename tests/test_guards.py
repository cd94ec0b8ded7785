"""Every SizeGuardError names the measured size and the limit it passed."""

import re

import pytest

from planlib import wide_x_chain
from quditmbqc import witnesses
from quditmbqc.engine import MbqcPlan, is_deterministic
from quditmbqc.errors import SizeGuardError
from quditmbqc.fields import (
    SPAN_GUARD,
    MonomialSpan,
    MultiPoly,
    closure_generate,
    enumerate_subspace,
    make_field,
)
from quditmbqc.states import GlobalObservable, MonomialOp, SparseState, basis_state, dense_oracle
from quditmbqc.weyl import WeylLabel, named_clifford

BIG = SparseState(2, 21, ((0, (0,) * 21),))


def _huge_d_plan():
    d = 2**32
    return MbqcPlan(d=d, n=0, N=1, resource=basis_state(d, (1,)),
                    parties=[(WeylLabel(d, (1, 0)), named_clifford(d, "S"))], Q=[[]], z=[1], s0=0)


def _gf9_x8():
    f = make_field(9)
    return MultiPoly(f, 1, {(8,): f.one})


@pytest.mark.parametrize("call, size, limit", [
    (lambda: BIG.to_dense(), 2**21, 10**6),
    (lambda: dense_oracle(GlobalObservable(2, [MonomialOp.identity(2)] * 21), BIG),
     2**21, 10**6),
    (lambda: list(enumerate_subspace(make_field(5), 2, 4)), 5**15, 3**9),
    # every affine image of x^8 over GF(9) together span all 9^9 functions
    (lambda: list(closure_generate(_gf9_x8())), 9**9, 3**9),
    # x1^4 x2^4 lies outside the degree-4 class, so its candidates are enumerated
    (lambda: witnesses.nu_distance({(x, y): x**4 * y**4 % 5 for x in range(5) for y in range(5)},
                                   5, 2),
     5**15, 10**5),
    (lambda: is_deterministic(wide_x_chain()), 2**15, 20000),
    # tau period 2**33: its square passes the int64 range of the flat law
    (lambda: is_deterministic(_huge_d_plan()), 2**67, 2**63),
], ids=["dense_state", "dense_oracle", "enumerate_subspace", "closure_span_gf9",
        "nu", "ordered_walk", "flat_law_int64"])
def test_guard_names_size_and_limit(call, size, limit):
    with pytest.raises(SizeGuardError) as info:
        call()
    numbers = set(map(int, re.findall(r"\d+", str(info.value))))
    assert {size, limit} <= numbers, str(info.value)


@pytest.mark.parametrize("span, size", [
    (lambda: enumerate_subspace(make_field(5), 2, 4), 5**15),
    (lambda: closure_generate(_gf9_x8()), 9**9),
], ids=["enumerate_subspace", "closure_span_gf9"])
@pytest.mark.parametrize("listing", [list, tuple, set, sorted])
def test_span_is_built_and_only_its_listing_is_guarded(monkeypatch, span, size, listing):
    monkeypatch.setattr(MonomialSpan, "_members", lambda self: pytest.fail("a member was listed"))
    members = span()
    assert len(members) == size and MultiPoly.zero(members.modulus, members.n) in members
    with pytest.raises(SizeGuardError) as info:
        listing(members)
    numbers = set(map(int, re.findall(r"\d+", str(info.value))))
    assert {size, SPAN_GUARD} <= numbers, str(info.value)
