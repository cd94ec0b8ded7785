"""Every SizeGuardError names the measured size and the limit it passed."""

import itertools
import re

import pytest

from quditmbqc import witnesses
from quditmbqc.errors import SizeGuardError
from quditmbqc.fields import (
    MultiPoly,
    closure_generate,
    enumerate_subspace,
    is_polynomial_over_ring,
    make_field,
)
from quditmbqc.states import GlobalObservable, MonomialOp, SparseState, dense_oracle

BIG = SparseState(2, 21, ((0, (0,) * 21),))


def _gf9_x8():
    f = make_field(9)
    return MultiPoly(f, 1, {(8,): f.one})


@pytest.mark.parametrize("call, size, limit", [
    (lambda: BIG.to_dense(), 2**21, 10**6),
    (lambda: dense_oracle(GlobalObservable(2, [MonomialOp.identity(2)] * 21), BIG),
     2**21, 10**6),
    (lambda: enumerate_subspace(make_field(5), 2, 4), 5**15, 3**9),
    (lambda: closure_generate(MultiPoly.variable(make_field(5), 3, 0)), 125, 81),
    (lambda: closure_generate(MultiPoly.variable(make_field(3), 3, 0)), 81**3, 10**5),
    # every affine image of x^8 over GF(9) together span all 9^9 functions
    (lambda: closure_generate(_gf9_x8()), 9**9, 3**9),
    (lambda: is_polynomial_over_ring(
        {x: 0 for x in itertools.product(range(15), repeat=3)}, 15), 3375, 256),
    (lambda: witnesses.nu_distance({(x, y): 0 for x in range(5) for y in range(5)}, 5, 2),
     5**15, 10**5),
], ids=["dense_state", "dense_oracle", "enumerate_subspace", "closure_instance",
        "closure_pre_maps", "closure_span_gf9", "ring_solver", "nu"])
def test_guard_names_size_and_limit(call, size, limit):
    with pytest.raises(SizeGuardError) as info:
        call()
    numbers = set(map(int, re.findall(r"\d+", str(info.value))))
    assert {size, limit} <= numbers, str(info.value)
