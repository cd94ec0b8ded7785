"""Refusals and edge branches that no other test reaches, each pinned by
its error type and message (or its value)."""

import pytest

from planlib import nand_plan
from quditmbqc import compiler
from quditmbqc.compiler import compile_exponential
from quditmbqc.engine import MbqcPlan
from quditmbqc.errors import QuditMbqcError, UnsupportedModulusError
from quditmbqc.fields import IntegerRing, MultiPoly, closure_basis
from quditmbqc.states import GlobalObservable, MonomialOp, clifford_unitary
from quditmbqc.weyl import CliffordSpec, conjugate_weyl, named_clifford, weyl_power


def _plan_on(resource):
    plan = nand_plan()
    return MbqcPlan(d=plan.d, n=plan.n, N=plan.N, resource=resource, parties=plan.parties,
                    Q=plan.Q, z=plan.z, s0=plan.s0)


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("call, want", [
    (lambda: compile_exponential(4, 3), (QuditMbqcError, "exponential compilation needs prime d")),
    (lambda: compiler.primitive_element(4), (QuditMbqcError, "4 is not prime")),
    (lambda: _plan_on("a resource"), (QuditMbqcError, "unsupported resource str")),
    (lambda: named_clifford(3, "weyl-displacement"), (QuditMbqcError, "displacement needs x")),
    (lambda: named_clifford(3, "T"), (QuditMbqcError, "unknown Clifford name 'T'")),
    (lambda: weyl_power(0, (1, 0), -1, 3), (ValueError, "exponent must be non-negative")),
    (lambda: conjugate_weyl(named_clifford(3, "S"), (1, 0), -1),
     (ValueError, "f must be non-negative")),
    (lambda: GlobalObservable(3, [MonomialOp.from_weyl(5, (1, 0))]),
     (QuditMbqcError, "site 0 has dimension 5, expected 3")),
    (lambda: clifford_unitary(CliffordSpec(3, ((1, 0), (1, 1)))),
     (QuditMbqcError, "control is not in the monomial class")),
    (lambda: closure_basis(MultiPoly(IntegerRing(6), 1, {(1,): 1})),
     (UnsupportedModulusError, "closure needs a field modulus")),
    (lambda: IntegerRing(6).inv(2), (ZeroDivisionError, "2 is not a unit mod 6")),
    (lambda: IntegerRing(7).pow_(3, -1), 5),  # 3 * 5 = 15 = 1 mod 7
], ids=["exponential-composite-d", "primitive-element-composite", "unknown-resource",
        "displacement-without-x", "unknown-clifford-name", "weyl-power-negative",
        "conjugate-negative", "observable-site-dimension", "clifford-not-monomial",
        "closure-over-Z6", "inverse-of-non-unit", "negative-power"])
def test_unreached_branch(call, want):
    assert _outcome(call) == want
