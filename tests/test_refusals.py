"""Refusals and edge branches that no other test reaches, each pinned by
its error type and message (or its value)."""

import pytest

from planlib import ghz_chain, nand_plan
from quditmbqc import compiler
from quditmbqc.compiler import (compile_exponential, compile_general_prime, compile_odd_ring,
                                compile_quadratic)
from quditmbqc.engine import (MbqcPlan, TableResource, empirical_success, extract_output_function,
                              is_deterministic, longest_path, output_distribution, run,
                              temporal_graph, weighted_observable)
from quditmbqc.errors import QuditMbqcError, UnsupportedModulusError
from quditmbqc.fields import (IntegerRing, MonomialSpan, MultiPoly, PrimePowerField, all_points,
                              closure_basis, closure_generate, combined_degree, delta_poly,
                              enumerate_subspace, in_subspace, interpolate, make_field,
                              primitive_element)
from quditmbqc.states import (GlobalObservable, MonomialOp, apply_observable, basis_state,
                              clifford_unitary, dense_oracle, eigenphase_of, make_ghz,
                              measurement_distribution)
from quditmbqc.weyl import (CliffordSpec, WeylLabel, check_symplectic, commutation_phase,
                            conjugate_weyl, named_clifford, symplectic_product, weyl_power)
from quditmbqc.witnesses import (analyze_plan, degree_witness, delta_distance, ncva_search,
                                 nu_distance, temporal_degree_bound)


# every fields entry point given the int 5 for its modulus
_NOT_A_MODULUS = "modulus is 5, expected a Modulus such as make_field(d)"
# every fields entry point given the int 5 for its polynomial
_NOT_A_POLY = "polynomial is 5, expected a MultiPoly"
# every public reader of a plan given the int 5 for it
_NOT_A_PLAN = (QuditMbqcError, "plan is 5, expected an MbqcPlan")


def _nand_with(**fields):
    """The NAND plan built again with some constructor arguments replaced."""
    plan = nand_plan()
    args = dict(d=plan.d, n=plan.n, N=plan.N, resource=plan.resource, parties=plan.parties,
                Q=plan.Q, z=plan.z, s0=plan.s0)
    return MbqcPlan(**{**args, **fields})


def _compiled():
    """A compiled p = 3 plan: its resource is one ket and every step has one outcome."""
    return compiler.compile_general_prime([2, 0, 1], 3).plan


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("call, want", [
    # any d compiles; a non-unit u has no multiplier gate
    (lambda: compile_exponential(4, 2), (QuditMbqcError, "u=2 is not a unit mod 4")),
    (lambda: compiler.primitive_element(4), (QuditMbqcError, "4 is not prime")),
    (lambda: _nand_with(resource="a resource"), (QuditMbqcError, "unsupported resource str")),
    # a Q or a parties list that cannot be scanned, refused before any use
    (lambda: _nand_with(Q=None), (QuditMbqcError, "Q must be a list of rows of integers")),
    (lambda: _nand_with(Q=[1, 1, 1]), (QuditMbqcError, "Q row 0 is 1, expected a list of some integers")),
    # a row given as a mapping or a set has no order to read it by
    (lambda: _nand_with(Q=[{0: 1, 1: 0}, {1: 1, 0: 0}, {1: 1, 0: 1}]),
     (QuditMbqcError, "Q row 0 is {0: 1, 1: 0}, expected a list of some integers")),
    (lambda: _nand_with(Q=[[0, 1], {1, 0}, [1, 1]]),
     (QuditMbqcError, "Q row 1 is {0, 1}, expected a list of some integers")),
    (lambda: _nand_with(parties=None),
     (QuditMbqcError, "parties must be a list of (WeylLabel, CliffordSpec) pairs, got NoneType")),
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
    # malformed input to public entry points, refused in the package's words
    (lambda: MonomialOp.from_weyl(3, (0, 1)).power(-1),
     (ValueError, "exponent must be non-negative")),
    (lambda: MonomialOp.from_weyl(3, (0, 1)).power(1.5),
     (QuditMbqcError, "exponent is 1.5, expected an integer")),
    (lambda: GlobalObservable(3, [1]), (QuditMbqcError, "site 0 is 1, expected a MonomialOp")),
    (lambda: GlobalObservable(3.0, [MonomialOp.from_weyl(3, (1, 0))]),
     (QuditMbqcError, "d is 3.0, expected an integer")),
    (lambda: TableResource(1, {(0,): 5}),
     (QuditMbqcError, "distribution for settings (0,) is 5, expected (outcome, probability) pairs")),
    (lambda: TableResource(1, {(0,): [(0, 1)]}),
     (QuditMbqcError, "outcome 0 for settings (0,) needs 1 integers")),
    (lambda: longest_path({0: [1]}),
     (QuditMbqcError, "temporal graph has an edge 0 -> 1, but 1 is not a vertex")),
    (lambda: make_field(2.0), (ValueError, "modulus must be an integer >= 2, got 2.0")),
    # GF(p^r) is built only on a prime p, an int r >= 1 and a monic
    # irreducible modpoly of degree r; a reducible one looped for ever
    (lambda: PrimePowerField(4, 2, (1, 1, 1)), (ValueError, "p must be a prime integer, got 4")),
    (lambda: PrimePowerField(3.0, 2, (1, 0, 1)), (ValueError, "p must be a prime integer, got 3.0")),
    (lambda: PrimePowerField(3, 0, (1,)), (ValueError, "r must be an integer >= 1, got 0")),
    (lambda: PrimePowerField(3, 2.0, (1, 0, 1)), (ValueError, "r must be an integer >= 1, got 2.0")),
    (lambda: PrimePowerField(3, 2, (1, 1)),
     (ValueError, "modpoly (1, 1) is not r + 1 = 3 coefficients in 0..2")),
    (lambda: PrimePowerField(3, 2, (1, 0, 3)),
     (ValueError, "modpoly (1, 0, 3) is not r + 1 = 3 coefficients in 0..2")),
    (lambda: PrimePowerField(3, 2, (1, 0.0, 1)),
     (ValueError, "modpoly (1, 0.0, 1) is not r + 1 = 3 coefficients in 0..2")),
    (lambda: PrimePowerField(3, 2, 5), (ValueError, "modpoly 5 is not r + 1 = 3 coefficients in 0..2")),
    (lambda: PrimePowerField(3, 2, (1, 0, 2)),
     (ValueError, "modpoly (1, 0, 2) is not monic: its last coefficient is not 1")),
    (lambda: PrimePowerField(3, 2, (0, 0, 1)), (ValueError, "modpoly (0, 0, 1) is reducible over Z_3")),
    (lambda: PrimePowerField(3, 2, (2, 0, 1)), (ValueError, "modpoly (2, 0, 1) is reducible over Z_3")),
    (lambda: PrimePowerField(2, 1, (1, 1)).mul(1, 1), 1),  # GF(2): its generator is 1
    # a seed is None, an int that is not a bool, or a random.Random
    (lambda: run(nand_plan(), (0, 0), seed=[1]),
     (QuditMbqcError, "seed is [1], expected None, an integer or a random.Random")),
    (lambda: run(nand_plan(), (0, 0), seed=1.5),
     (QuditMbqcError, "seed is 1.5, expected None, an integer or a random.Random")),
    (lambda: run(nand_plan(), (0, 0), seed="abc"),
     (QuditMbqcError, "seed is 'abc', expected None, an integer or a random.Random")),
    (lambda: run(nand_plan(), (0, 0), seed=True),
     (QuditMbqcError, "seed is True, expected None, an integer or a random.Random")),
    # a compiled plan's run makes no draw and seeds no Random, but still
    # checks its seed first
    (lambda: run(_compiled(), (0,), seed=[1]),
     (QuditMbqcError, "seed is [1], expected None, an integer or a random.Random")),
    (lambda: run(_compiled(), (0,), seed=1.5),
     (QuditMbqcError, "seed is 1.5, expected None, an integer or a random.Random")),
    (lambda: run(_compiled(), (0,), seed="abc"),
     (QuditMbqcError, "seed is 'abc', expected None, an integer or a random.Random")),
    (lambda: run(_compiled(), (0,), seed=True),
     (QuditMbqcError, "seed is True, expected None, an integer or a random.Random")),
    # an adjacency value is a list of vertices
    (lambda: longest_path({0: 5}),
     (QuditMbqcError, "temporal graph vertex 0 has 5, expected a list of vertices")),
    (lambda: longest_path({0: None}),
     (QuditMbqcError, "temporal graph vertex 0 has None, expected a list of vertices")),
    (lambda: longest_path({0: "ab"}),
     (QuditMbqcError, "temporal graph vertex 0 has 'ab', expected a list of vertices")),
    # a party is an int in 0..N-1 and a setting an int in 0..d-1: V^d need
    # not be the identity, so a setting is not read mod d
    (lambda: nand_plan().site_observable(3, 0), (QuditMbqcError, "party 3 is outside 0..2")),
    (lambda: nand_plan().site_observable(-1, 0), (QuditMbqcError, "party -1 is outside 0..2")),
    (lambda: nand_plan().site_observable(True, 0),
     (QuditMbqcError, "party is True, expected an integer")),
    (lambda: nand_plan().site_observable(0, 2), (QuditMbqcError, "setting 2 is outside 0..1")),
    (lambda: nand_plan().site_observable(0, -1), (QuditMbqcError, "setting -1 is outside 0..1")),
    (lambda: nand_plan().site_observable(0, 1.5),
     (QuditMbqcError, "setting is 1.5, expected an integer")),
    (lambda: nand_plan().setting(3, (0, 0), ()), (QuditMbqcError, "party 3 is outside 0..2")),
    (lambda: nand_plan().output_of((1, 0)),
     (QuditMbqcError, "2 outcomes for 3 parties")),
    # an outcome is an int, as an input symbol is: 0.5 was read as an
    # output, and "a" ended in a TypeError
    (lambda: ghz_chain(3, 3).setting(1, (0,), [0.5]),
     (QuditMbqcError, "outcomes has 0.5, expected an integer")),
    (lambda: ghz_chain(3, 3).setting(1, (0,), ["a"]),
     (QuditMbqcError, "outcomes has 'a', expected an integer")),
    (lambda: ghz_chain(3, 3).setting(1, (0,), (True,)),
     (QuditMbqcError, "outcomes has True, expected an integer")),
    (lambda: ghz_chain(3, 3).output_of([0.5, 0, 0]),
     (QuditMbqcError, "outcomes has 0.5, expected an integer")),
    (lambda: ghz_chain(3, 3).output_of(["a", 0, 0]),
     (QuditMbqcError, "outcomes has 'a', expected an integer")),
    (lambda: ghz_chain(3, 3).output_of((0, False, 0)),
     (QuditMbqcError, "outcomes has False, expected an integer")),
    (lambda: ghz_chain(3, 3).setting(1, (1,), [2]), 0),  # q_1 = i + m_0 = 1 + 2 mod 3
    (lambda: ghz_chain(3, 3).output_of((1, 2, 2)), 2),  # z.m = 1 + 2 + 2 mod 3
    (lambda: conjugate_weyl(named_clifford(3, "S"), (1, 0), True),
     (QuditMbqcError, "f is True, expected an integer")),
    (lambda: conjugate_weyl(named_clifford(3, "S"), (1, 0), "2"),
     (QuditMbqcError, "f is '2', expected an integer")),
    # nu_distance checks n before any work, in threshold_check's words: a
    # float n ended in a TypeError at d = 4, and True built a polynomial
    # whose n was True
    (lambda: nu_distance({0: 1, 1: 0, 2: 0, 3: 1}, 4, 1.0),
     (ValueError, "n must be >= 0 and an integer, got 1.0")),
    (lambda: nu_distance({0: 1, 1: 0, 2: 0}, 3, 1.0),
     (ValueError, "n must be >= 0 and an integer, got 1.0")),
    (lambda: nu_distance({0: 1, 1: 0, 2: 0, 3: 1}, 4, True),
     (ValueError, "n must be >= 0 and an integer, got True")),
    (lambda: nu_distance({(): 1}, 3, -1), (ValueError, "n must be >= 0 and an integer, got -1")),
    (lambda: nu_distance({0: 1, 1: 0, 2: 0}, 3, "1"),
     (ValueError, "n must be >= 0 and an integer, got '1'")),
    (lambda: nu_distance({0: 1, 1: 0, 2: 0}, 3, 1)[0], 0),
    # a GHZ state of no qudits was refused as a state with repeated kets
    (lambda: make_ghz(3, 0), (QuditMbqcError, "a GHZ state needs N >= 1 qudits, got 0")),
    (lambda: make_ghz(2, -2), (QuditMbqcError, "a GHZ state needs N >= 1 qudits, got -2")),
    (lambda: make_ghz(3, 1).terms, ((0, (0,)), (0, (1,)), (0, (2,)))),
    # public entry points refuse a malformed argument at entry: each of
    # these ended in an IndexError, AttributeError, TypeError or
    # ZeroDivisionError, or returned a wrong answer
    (lambda: conjugate_weyl(named_clifford(3, "S"), (1,), 1),
     (QuditMbqcError, "label v is (1,), expected a list of 2 integers")),
    (lambda: conjugate_weyl("S", (1, 0), 1),
     (QuditMbqcError, "control is 'S', expected a CliffordSpec")),
    (lambda: symplectic_product((1,), (0, 1), 3),
     (QuditMbqcError, "label v is (1,), expected a list of 2 integers")),
    (lambda: symplectic_product((1, 0), (0, 1), 0),
     (QuditMbqcError, "d is 0, expected an integer >= 2")),
    (lambda: symplectic_product((1, 0), (0, 1), 3), 1),
    (lambda: commutation_phase((1, 0), (0, 1)),
     (QuditMbqcError, "label is (1, 0), expected a WeylLabel")),
    (lambda: commutation_phase(WeylLabel(3, (1, 0)), WeylLabel(3, (0, 1))), 1),
    (lambda: measurement_distribution(make_ghz(3, 2), 0, "x"),
     (QuditMbqcError, "site operator is 'x', expected a MonomialOp")),
    (lambda: measurement_distribution("psi", 0, MonomialOp.from_weyl(3, (1, 0))),
     (QuditMbqcError, "state is 'psi', expected a SparseState")),
    (lambda: longest_path([1, 2]),
     (QuditMbqcError, "temporal graph is [1, 2], expected a dict of vertex -> vertices")),
    (lambda: delta_distance(1, 0), (ValueError, "d must be >= 1 and an integer, got 0")),
    (lambda: delta_distance(1.5, 3), (ValueError, "q must be an integer, got 1.5")),
    (lambda: delta_distance(2, 3), 1),
    (lambda: delta_poly(make_field(3), (1.5,)),
     (ValueError, "point (1.5,) is not a tuple of integer coordinates")),
    (lambda: delta_poly(make_field(3), 1),
     (ValueError, "point 1 is not a tuple of integer coordinates")),
    (lambda: MultiPoly.variable(make_field(3), 1, 1),
     (ValueError, "variable index 1 is not in 0..n-1 for n = 1")),
    (lambda: MultiPoly.variable(make_field(3), 1, -1),
     (ValueError, "variable index -1 is not in 0..n-1 for n = 1")),
    (lambda: MultiPoly.variable(make_field(3), 2, 1).coeffs, {(0, 1): 1}),
    (lambda: MultiPoly.variable(make_field(3), 1, 0).evaluate(5),
     (ValueError, "point 5 is not a tuple of coordinates")),
    (lambda: MultiPoly(make_field(3), 1, [((1,), 1)]),
     (ValueError, "coefficients are [((1,), 1)], expected a dict of exponent tuple -> int")),
    (lambda: empirical_success(nand_plan(), [1, 1, 1, 0]),
     (ValueError, "table is [1, 1, 1, 0], expected a dict of point -> value")),
    # an int d where a fields entry point takes a Modulus, refused by one check
    (lambda: delta_poly(5, (1,)), (ValueError, _NOT_A_MODULUS)),
    (lambda: MultiPoly(5, 1, {}), (ValueError, _NOT_A_MODULUS)),
    (lambda: MultiPoly.zero(5, 1), (ValueError, _NOT_A_MODULUS)),
    (lambda: MultiPoly.variable(5, 1, 0), (ValueError, _NOT_A_MODULUS)),
    (lambda: MultiPoly.monomial(5, 1, (1,)), (ValueError, _NOT_A_MODULUS)),
    (lambda: interpolate(5, {(0,): 1}), (ValueError, _NOT_A_MODULUS)),
    (lambda: all_points(5, 1), (ValueError, _NOT_A_MODULUS)),
    (lambda: enumerate_subspace(5, 1, 2), (ValueError, _NOT_A_MODULUS)),
    (lambda: MonomialSpan(5, 1, []), (ValueError, _NOT_A_MODULUS)),
    (lambda: primitive_element(5), (ValueError, _NOT_A_MODULUS)),
    (lambda: MultiPoly(None, 1, {}),
     (ValueError, "modulus is None, expected a Modulus such as make_field(d)")),
    (lambda: all_points(make_field(5), 1.5), (ValueError, "n must be >= 0 and an integer, got 1.5")),
    (lambda: enumerate_subspace(make_field(5), -1, 2),
     (ValueError, "n must be >= 0 and an integer, got -1")),
    (lambda: enumerate_subspace(make_field(5), 1, "2"),
     (ValueError, "delta must be an integer, got '2'")),
    (lambda: in_subspace(MultiPoly.zero(make_field(3), 1), 1.5),
     (ValueError, "delta must be an integer in 1..2, got 1.5")),
    # an int where a polynomial belongs, refused by one check before a field is read
    (lambda: closure_basis(5), (ValueError, _NOT_A_POLY)),
    (lambda: closure_generate(5), (ValueError, _NOT_A_POLY)),
    (lambda: combined_degree(5), (ValueError, _NOT_A_POLY)),
    (lambda: in_subspace(5, 1), (ValueError, _NOT_A_POLY)),
    # constructor arguments refused by the checks of MultiPoly itself
    (lambda: MultiPoly.monomial(make_field(3), 1, 5),
     (ValueError, "exponent tuple 5 not reduced for d=3")),
    (lambda: MultiPoly.monomial(make_field(3), 1, [2]).coeffs, {(2,): 1}),
    (lambda: MultiPoly.constant(make_field(3), "x", 1),
     (ValueError, "n must be >= 0 and an integer, got 'x'")),
    # an int where a plan, report, polynomial or target belongs: each ended
    # in an AttributeError or a TypeError
    (lambda: run(5, (0,)), _NOT_A_PLAN),
    (lambda: output_distribution(5, (0,)), _NOT_A_PLAN),
    (lambda: is_deterministic(5), _NOT_A_PLAN),
    (lambda: extract_output_function(5), _NOT_A_PLAN),
    (lambda: empirical_success(5, {}), _NOT_A_PLAN),
    (lambda: weighted_observable(5, (0, 0)), _NOT_A_PLAN),
    (lambda: temporal_graph(5), _NOT_A_PLAN),
    (lambda: analyze_plan(5), _NOT_A_PLAN),
    (lambda: ncva_search(5), _NOT_A_PLAN),
    (lambda: temporal_degree_bound(5), _NOT_A_PLAN),
    (lambda: compiler.verify(5), (QuditMbqcError, "report is 5, expected a CompileReport")),
    (lambda: compiler.verify(compiler.CompileReport(5, 1, "x", {})), _NOT_A_PLAN),
    (lambda: degree_witness(5), (ValueError, _NOT_A_POLY)),
    (lambda: compile_general_prime(5),
     (QuditMbqcError, "target is 5, expected a list or dict of values")),
    (lambda: compile_general_prime(5, 3),
     (QuditMbqcError, "target is 5, expected a list or dict of values")),
    (lambda: compile_odd_ring(5), (QuditMbqcError, "target is 5, expected a list or dict of values")),
    (lambda: compile_quadratic(3, 5), (QuditMbqcError, "f is 5, expected a list of coefficients")),
    (lambda: compile_exponential(5, 2, 5),
     (QuditMbqcError, "f is 5, expected a list of coefficients")),
    # the same for the resource, observable and Clifford helpers
    (lambda: make_ghz(3, 2, 5), (QuditMbqcError, "GHZ phases are 5, expected a list of 3 integers")),
    (lambda: basis_state(3, 5), (QuditMbqcError, "ket is 5, expected a list of integers")),
    (lambda: GlobalObservable(3, 5), (QuditMbqcError, "sites are 5, expected a list of MonomialOps")),
    (lambda: apply_observable(5, 5),
     (QuditMbqcError, "observable is 5, expected a GlobalObservable")),
    (lambda: eigenphase_of(GlobalObservable(3, []), 5),
     (QuditMbqcError, "state is 5, expected a SparseState")),
    (lambda: dense_oracle(5, 5), (QuditMbqcError, "observable is 5, expected a GlobalObservable")),
    (lambda: TableResource(1, 5),
     (QuditMbqcError, "table behavior is 5, expected a dict of settings -> distribution")),
    (lambda: check_symplectic(5, 3), (QuditMbqcError, "matrix is 5, expected 2 rows of 2 integers")),
    (lambda: check_symplectic(((1, 0), (0,)), 3),
     (QuditMbqcError, "matrix is ((1, 0), (0,)), expected 2 rows of 2 integers")),
    (lambda: check_symplectic(((1, 1), (0, 1)), 0), (QuditMbqcError, "d is 0, expected an integer >= 2")),
], ids=["exponential-composite-d", "primitive-element-composite", "unknown-resource",
        "plan-Q-none", "plan-Q-int-rows", "plan-Q-mapping-rows", "plan-Q-set-row",
        "plan-parties-none",
        "displacement-without-x", "unknown-clifford-name", "weyl-power-negative",
        "conjugate-negative", "observable-site-dimension", "clifford-not-monomial",
        "closure-over-Z6", "inverse-of-non-unit", "negative-power", "monomial-power-negative",
        "monomial-power-float", "observable-site-not-monomial", "observable-float-d",
        "table-distribution-not-pairs", "table-outcome-not-a-vector", "longest-path-unknown-vertex",
        "field-float-modulus", "field-composite-p", "field-float-p", "field-zero-r",
        "field-float-r", "field-short-modpoly", "field-modpoly-entry-p", "field-modpoly-float-entry",
        "field-int-modpoly", "field-modpoly-not-monic", "field-modpoly-square-t",
        "field-modpoly-factors", "field-gf2", "seed-list", "seed-float", "seed-str", "seed-bool",
        "compiled-seed-list", "compiled-seed-float", "compiled-seed-str", "compiled-seed-bool",
        "longest-path-int-edges", "longest-path-none-edges", "longest-path-str-edges",
        "site-party-N", "site-party-negative", "site-party-bool", "site-setting-d",
        "site-setting-negative", "site-setting-float", "setting-party-N", "output-of-short",
        "setting-float-outcome", "setting-str-outcome", "setting-bool-outcome",
        "output-of-float-outcome", "output-of-str-outcome", "output-of-bool-outcome",
        "setting-int-outcome", "output-of-int-outcomes",
        "conjugate-bool", "conjugate-str",
        "nu-float-n-composite", "nu-float-n-prime", "nu-bool-n", "nu-negative-n", "nu-str-n",
        "nu-int-n", "ghz-no-qudits", "ghz-negative-qudits", "ghz-one-qudit",
        "conjugate-short-label", "conjugate-str-control", "symplectic-short-label",
        "symplectic-zero-d", "symplectic-int-labels", "commutation-tuples",
        "commutation-labels", "measurement-str-op", "measurement-str-state",
        "longest-path-list", "delta-distance-zero-d", "delta-distance-float-q",
        "delta-distance-int", "delta-poly-float-point", "delta-poly-int-point",
        "variable-index-n", "variable-index-negative", "variable-index-last",
        "evaluate-int-point", "multipoly-list-coefficients", "success-list-target",
        "delta-poly-int-modulus", "multipoly-int-modulus", "zero-int-modulus",
        "variable-int-modulus", "monomial-int-modulus", "interpolate-int-modulus",
        "all-points-int-modulus", "enumerate-subspace-int-modulus", "span-int-modulus",
        "primitive-element-int-modulus", "multipoly-none-modulus", "all-points-float-n",
        "enumerate-subspace-negative-n", "enumerate-subspace-str-delta", "in-subspace-float-delta",
        "closure-basis-int", "closure-generate-int", "combined-degree-int", "in-subspace-int",
        "monomial-int-exponents", "monomial-list-exponents", "constant-str-n",
        "run-int-plan", "distribution-int-plan", "deterministic-int-plan", "extract-int-plan",
        "success-int-plan", "weighted-int-plan", "temporal-graph-int-plan", "analyze-int-plan",
        "ncva-int-plan", "temporal-bound-int-plan", "verify-int-report", "verify-int-plan",
        "degree-witness-int", "compile-prime-int-target", "compile-prime-int-target-with-p",
        "compile-odd-ring-int-target", "compile-quadratic-int-f", "compile-exponential-int-f",
        "ghz-int-phases", "basis-state-int-ket", "observable-int-sites", "apply-int-observable",
        "eigenphase-int-state", "dense-oracle-int-observable", "table-int-behavior",
        "symplectic-int-matrix", "symplectic-short-row", "check-symplectic-zero-d"])
def test_unreached_branch(call, want):
    assert _outcome(call) == want
