import itertools
import json
import math
import pathlib
import random
import re

import pytest

from quditmbqc.compiler import (
    CompileReport,
    compile_exponential,
    compile_general_prime,
    compile_nand,
    compile_odd_ring,
    compile_quadratic,
    delta_from_sigma,
    exponential_sum,
    primitive_element,
    sigma_table,
    verify,
)
from quditmbqc.engine import MbqcPlan, extract_output_function
from quditmbqc.errors import QuditMbqcError, VerificationError
from quditmbqc.fields import combined_degree
from quditmbqc.states import GlobalObservable, eigenphase_of
from quditmbqc.weyl import CliffordSpec, WeylLabel, named_clifford
from quditmbqc.witnesses import NCVA_FOUND, analyze_plan, ncva_search

GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestNand:
    def test_table(self):
        rep = compile_nand()
        assert rep.verified and rep.qudit_count == 3
        table, poly = extract_output_function(rep.plan)
        assert [table[i] for i in sorted(table)] == [1, 1, 1, 0]
        assert poly.coeffs == {(0, 0): 1, (1, 1): 1}

    def test_global_observable_at_10(self):
        # M(1,0) = Y (x) X (x) Y
        plan = compile_nand().plan
        ops = [plan.site_observable(k, plan.setting(k, (1, 0), ())) for k in range(3)]
        from quditmbqc.states import MonomialOp

        Y = MonomialOp.from_weyl(2, (1, 1))
        X = MonomialOp.from_weyl(2, (0, 1))
        assert ops == [Y, X, Y]

    def test_both_backends(self):
        from quditmbqc.states import dense_oracle
        from quditmbqc.engine import weighted_observable

        plan = compile_nand().plan
        for i in plan.inputs():
            M = weighted_observable(plan, i)
            assert eigenphase_of(M, plan.resource) == dense_oracle(M, plan.resource)


class TestQuadratic:
    def test_d3(self):
        rep = compile_quadratic(3)
        assert [rep.target[(i,)] for i in range(3)] == [0, 0, 1]
        assert rep.verified and rep.qudit_count == 6

    def test_d5(self):
        rep = compile_quadratic(5)
        assert [rep.target[(i,)] for i in range(5)] == [0, 0, 1, 3, 1]

    def test_zero_f(self):
        rep = compile_quadratic(3, f=[0])
        assert set(rep.target.values()) == {0}

    def test_stabilizer_relation(self):
        # product of S^f X S^-f over all sites fixes the resource state
        plan = compile_quadratic(3).plan
        for f in range(3):
            sites = [plan.site_observable(k, f) for k in range(1, plan.N)]
            op0 = plan.site_observable(0, 0)  # undisplaced first site: plain X power path
            from quditmbqc.states import MonomialOp
            from quditmbqc.weyl import conjugate_weyl, named_clifford
            from quditmbqc.phases import tau_period

            phase, label = conjugate_weyl(named_clifford(3, "S"), (0, 1), f)
            bare = MonomialOp.from_weyl(3, label, (2 * phase) % tau_period(3))
            M = GlobalObservable(3, [bare] + sites)
            assert eigenphase_of(M, plan.resource) == 0

    def test_even_or_composite_rejected(self):
        # the resource needs odd d >= 3: an even d, composite or not, is
        # refused; an odd composite d compiles (test_every_odd_d_verifies)
        for d in (2, 4, 6, 1):
            with pytest.raises(QuditMbqcError, match="quadratic compilation needs odd d >= 3"):
                compile_quadratic(d)

    def test_every_odd_d_verifies(self):
        for d in range(3, 46, 2):
            rep = compile_quadratic(d)
            assert rep.verified and rep.qudit_count == 2 * d
            assert rep.target == {(x,): x * (x - 1) // 2 % d for x in range(d)}

    def test_two_input_linear_map(self):
        rep = compile_quadratic(3, f=[1, 2])
        assert rep.verified
        for (i1, i2), want in rep.target.items():
            fi = (i1 + 2 * i2) % 3
            assert want == (fi * (fi - 1) // 2) % 3
        rep2 = compile_exponential(5, 2, f=[2, 1])
        assert rep2.verified
        for (i1, i2), want in rep2.target.items():
            assert want == pow(3, (2 * i1 + i2) % 5, 5)


class TestExponential:
    def test_d5_u2(self):
        rep = compile_exponential(5, 2)
        assert [rep.target[(i,)] for i in range(5)] == [1, 3, 4, 2, 1]
        assert rep.verified and rep.qudit_count == 1

    def test_d3_u2(self):
        rep = compile_exponential(3, 2)
        assert [rep.target[(i,)] for i in range(3)] == [1, 2, 1]

    def test_constant_f(self):
        rep = compile_exponential(5, 2, f=[0])
        assert set(rep.target.values()) == {1}

    def test_non_unit_rejected(self):
        with pytest.raises(QuditMbqcError):
            compile_exponential(5, 5)
        with pytest.raises(QuditMbqcError, match="u=6 is not a unit mod 9"):
            compile_exponential(9, 6)

    def test_every_unit_at_every_d_verifies(self):
        pairs = 0
        for d in range(2, 17):
            for u in range(1, d):
                if math.gcd(u, d) == 1:
                    rep = compile_exponential(d, u)
                    assert rep.verified and rep.qudit_count == 1
                    assert rep.target == {(x,): pow(u, -x, d) for x in range(d)}
                    pairs += 1
        assert pairs == 79


class TestPrimitiveElement:
    def test_values(self):
        assert primitive_element(5) == 2
        assert primitive_element(3) == 2
        assert primitive_element(7) == 3

    def test_order_is_full(self):
        for p in (3, 5, 7, 11, 13):
            g = primitive_element(p)
            assert sorted(pow(g, e, p) for e in range(p - 1)) == list(range(1, p))


class TestExponentialSums:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_sum_identity(self, p):
        u = primitive_element(p)
        for x in range(p):
            want = (p - 1) if x in (0, p - 1) else 0
            assert exponential_sum(p, u, x) == want

    def test_sigma5(self):
        assert sigma_table(5) == [1, 0, 0, 0, 1]

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_every_generator_gives_the_one_sigma_table(self, p):
        inv = pow(p - 1, -1, p)
        generators = [g for g in range(2, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1]
        assert len(generators) > 1 or p == 3
        for g in generators:
            assert [inv * exponential_sum(p, g, x) % p for x in range(p)] == sigma_table(p)

    def test_sigma3(self):
        assert sigma_table(3) == [1, 0, 1]

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_delta_reconstruction(self, p):
        assert delta_from_sigma(p) == [1] + [0] * (p - 1)


class TestGeneralPrime:
    def test_p3_exhaustive(self):
        for m in itertools.product(range(3), repeat=3):
            rep = compile_general_prime(list(m))
            assert rep.verified
            assert rep.qudit_count == 12
            assert rep.plan.temporally_flat

    def test_p5_delta(self):
        rep = compile_general_prime([1, 0, 0, 0, 0])
        assert rep.verified and rep.qudit_count == 80
        assert sigma_table(5) == [1, 0, 0, 0, 1]

    def test_p5_random_sample(self):
        rng = random.Random(41)
        for _ in range(6):
            m = [rng.randrange(5) for _ in range(5)]
            rep = compile_general_prime(m)
            assert rep.verified

    def test_p2_affine(self):
        for m in itertools.product(range(2), repeat=2):
            rep = compile_general_prime(list(m))
            assert rep.verified and rep.qudit_count == 1

    def test_constant(self):
        rep = compile_general_prime([2, 2, 2])
        assert rep.verified
        assert set(rep.target.values()) == {2}

    def test_non_prime_rejected(self):
        with pytest.raises(QuditMbqcError):
            compile_general_prime([0] * 6)

    def test_larger_primes(self):
        rep = compile_general_prime([1] + [0] * 6)
        assert rep.verified and rep.qudit_count == 7 * 36
        rng = random.Random(47)
        rep = compile_general_prime([rng.randrange(11) for _ in range(11)])
        assert rep.verified and rep.qudit_count == 11 * 100

    def test_p17_plan_file_round_trip(self):
        # 17 * 16^2 = 4352 parties: a flat T costs 3 bytes a row in the file
        rng = random.Random(17)
        table = [rng.randrange(17) for _ in range(17)]
        text = compile_general_prime(table).plan.dumps()
        assert len(text.encode()) < 10**6
        analysis = analyze_plan(MbqcPlan.loads(text))
        assert analysis["table"] == table
        assert analysis["assignment_search"] == NCVA_FOUND


    def test_golden_plan_file_byte_exact(self):
        # 5 * 4^2 = 80 parties; the party order and plan bytes are pinned
        path = GOLDEN / "general_prime_p5.json"
        plan = compile_general_prime([3, 1, 4, 1, 0]).plan
        assert plan.dumps().encode() == path.read_bytes()
        assert MbqcPlan.load(path) == plan
        _assert_legacy_resaves_as(GOLDEN / "general_prime_p5_full_parties.json", plan, path)

    def test_p13_file_lists_each_distinct_party_once(self):
        # 13 * 12^2 = 1,872 parties over 12 multiplier controls
        rng = random.Random(13)
        plan = compile_general_prime([rng.randrange(13) for _ in range(13)]).plan
        text = plan.dumps()
        assert len(text.encode()) <= 35_000
        _assert_parties_written_once(json.loads(text)["parties"], plan, 12)


def _assert_legacy_resaves_as(legacy: pathlib.Path, plan: MbqcPlan, golden: pathlib.Path):
    """A file that writes every party in full, as plan files did before a
    repeated party became the index of its first occurrence, loads equal to
    the compiled plan and re-saves as the golden bytes."""
    again = MbqcPlan.load(legacy)
    assert all(isinstance(p, dict) for p in json.loads(legacy.read_text())["parties"])
    assert again == plan
    assert again.dumps().encode() == golden.read_bytes()


def _assert_parties_written_once(entries: list, plan: MbqcPlan, kinds: int):
    """Each distinct party is one object; every later copy is the index of
    its first occurrence."""
    assert sum(isinstance(p, dict) for p in entries) == kinds
    for k, p in enumerate(entries):
        if isinstance(p, dict):
            assert plan.parties.index(plan.parties[k]) == k
        else:
            assert type(p) is int and p < k and plan.parties[p] == plan.parties[k]
            assert isinstance(entries[p], dict)


class TestOddRing:
    def test_golden_plan_file_byte_exact(self):
        path = GOLDEN / "odd_ring_d9.json"
        plan = compile_odd_ring([2, 7, 1, 8, 2, 8, 1, 8, 2]).plan
        assert plan.dumps().encode() == path.read_bytes()
        assert MbqcPlan.load(path) == plan
        _assert_legacy_resaves_as(GOLDEN / "odd_ring_d9_full_parties.json", plan, path)
        _assert_parties_written_once(json.loads(path.read_text())["parties"], plan, 1)

    def test_d9_identity(self):
        rep = compile_odd_ring(list(range(9)))
        assert rep.verified and rep.qudit_count == 18

    def test_d3_delta(self):
        rep = compile_odd_ring([1, 0, 0])
        assert rep.verified
        # the +-1 exponential pair gives the delta table directly
        d = 3
        inv2 = pow(2, -1, d)
        table = [
            (inv2 * (pow(d - 1, x % d, d) + pow(d - 1, (-x) % d, d))) % d
            for x in range(d)
        ]
        assert table == [1, 0, 0]

    def test_d15_composite(self):
        rng = random.Random(42)
        m = [rng.randrange(15) for _ in range(15)]
        rep = compile_odd_ring(m)
        assert rep.verified and rep.qudit_count == 30

    def test_even_rejected(self):
        with pytest.raises(QuditMbqcError):
            compile_odd_ring([0, 1, 0, 1])

    def test_constant(self):
        assert compile_odd_ring([2] * 5).verified


class TestTargets:
    @pytest.mark.parametrize("build, m, d, message", [
        (compile_general_prime, [1, 2, 0, 1], 3, "target must list 3 values, got 4"),
        (compile_general_prime, [1, 2], 3, "target must list 3 values, got 2"),
        (compile_odd_ring, list(range(10)), 9, "target must list 9 values, got 10"),
        (compile_general_prime, [1.0, 2, 0], 3, "target: table value 1.0 is not an integer"),
        (compile_odd_ring, {0: 1, 1: 2, (2,): "0"}, 3, "target: table value '0' is not an integer"),
        (compile_general_prime, {0: 1, 1: 2, 3: 0}, 3,
         "target: table point (3,) repeats the point (0,) mod 3"),
        (compile_general_prime, {0: 1, (0,): 1, 1: 2, 2: 0}, 3,
         "target: table point (0,) repeats the point (0,) mod 3"),
        (compile_general_prime, {0: 1, True: 2, 2: 0}, 3,
         "target: table point True is neither a tuple nor an integer"),
        # an empty table read as arity 0 ("needs 1 entries"), a non-int
        # coordinate ended in a bare KeyError or TypeError, and a bool value
        # was read as 1
        (compile_general_prime, {}, 3, "target: table needs 3 entries, got 0"),
        (compile_general_prime, {(0.5,): 1, (1,): 0, (2,): 2}, 3,
         "target: table point (0.5,) has a coordinate that is not an integer"),
        (compile_odd_ring, {("a",): 1, (1,): 0, (2,): 2}, 3,
         "target: table point ('a',) has a coordinate that is not an integer"),
        (compile_general_prime, {(0,): True, (1,): 0, (2,): 2}, 3,
         "target: table value True is not an integer"),
    ], ids=["long", "short", "long_odd_ring", "float", "str_in_dict", "key_out_of_range",
            "key_twice", "bool_key", "empty", "float_point", "str_point", "bool_value"])
    def test_bad_target_rejected(self, build, m, d, message):
        with pytest.raises(QuditMbqcError, match=re.escape(message)):
            build(m, d)

    def test_dict_target_read_mod_d(self):
        rep = compile_general_prime({(0,): 4, 1: 2, 2: -1}, 3)
        assert rep.verified and rep.target == {(0,): 1, (1,): 2, (2,): 2}

    @pytest.mark.parametrize("build, m, listed", [
        (compile_general_prime, {0: 1, 1: 2, 5: 0}, [1, 2, 0]),
        (compile_general_prime, {(-1,): 3, 7: 4, (6,): 2}, [2, 4, 3]),
        (compile_odd_ring, {(x + 9,): x * x for x in range(9)}, [x * x for x in range(9)]),
    ], ids=["prime_int_keys", "prime_mixed_keys", "odd_ring_tuple_keys"])
    def test_dict_keys_read_mod_d_give_the_list_plan(self, build, m, listed):
        d = len(listed)
        assert build(m, d).plan.dumps() == build(listed, d).plan.dumps()


@pytest.mark.parametrize("build, message", [
    (lambda: WeylLabel(3, (1.0, 0)), "fiducial v has 1.0, expected an integer"),
    (lambda: WeylLabel(3, (1, 0), 0.5), "fiducial tau_exp is 0.5, expected an integer"),
    (lambda: WeylLabel(3.0, (1, 0)), "d is 3.0, expected an integer"),
    (lambda: CliffordSpec(3, ((1, 1), (0, 1)), (0.5, 0)), "control x has 0.5, expected an integer"),
    (lambda: CliffordSpec(3, ((1.0, 1), (0, 1))), "control C row has 1.0, expected an integer"),
    (lambda: named_clifford(5, "Mu", u=2.0), "control u is 2.0, expected an integer"),
    (lambda: named_clifford(5.0, "Mu", u=2), "d is 5.0, expected an integer"),
    (lambda: compile_quadratic(5.0), "d is 5.0, expected an integer"),
    (lambda: compile_exponential(5, 2.0), "control u is 2.0, expected an integer"),
    (lambda: compile_exponential(5.0, 2), "d is 5.0, expected an integer"),
    (lambda: compile_general_prime([1, 0, 0], 3.0), "p is 3.0, expected an integer"),
    (lambda: compile_odd_ring([1, 0, 0], 3.0), "d is 3.0, expected an integer"),
    # a dimension below 2 once built an object or ended in a ZeroDivisionError,
    # and a C that is not two rows in a bare ValueError or TypeError
    (lambda: WeylLabel(-3, (0, 1)), "d is -3, expected an integer >= 2"),
    (lambda: CliffordSpec(1, ((1, 0), (0, 1))), "d is 1, expected an integer >= 2"),
    (lambda: named_clifford(0, "S"), "d is 0, expected an integer >= 2"),
    (lambda: CliffordSpec(3, ((1, 1), (0, 1), (0, 0))),
     "control C is ((1, 1), (0, 1), (0, 0)), expected 2 rows of 2 integers"),
    (lambda: CliffordSpec(3, 5), "control C is 5, expected 2 rows of 2 integers"),
], ids=["fiducial_v", "fiducial_tau_exp", "fiducial_d", "control_x", "control_C", "named_u",
        "named_d", "quadratic_d", "exponential_u", "exponential_d", "general_prime_p",
        "odd_ring_d", "fiducial_d_negative", "control_d_one", "named_d_zero", "control_C_three_rows",
        "control_C_int"])
def test_non_integer_arguments_are_refused(build, message):
    # each of these once built, or ended in a bare TypeError further on
    with pytest.raises(QuditMbqcError, match=re.escape(message)):
        build()


# Every construction's CompileReport.to_json(), one JSON line per case.
COMPILE_CASES = {
    "nand": compile_nand,
    "quadratic_d3": lambda: compile_quadratic(3),
    "quadratic_d5_f12": lambda: compile_quadratic(5, [1, 2]),
    "exponential_5_2": lambda: compile_exponential(5, 2),
    "exponential_5_2_f21": lambda: compile_exponential(5, 2, [2, 1]),
    "exponential_11_2": lambda: compile_exponential(11, 2),
    "prime_general_p2_00": lambda: compile_general_prime([0, 0]),
    "prime_general_p2_01": lambda: compile_general_prime([0, 1]),
    "prime_general_p2_10": lambda: compile_general_prime([1, 0]),
    "prime_general_p2_11": lambda: compile_general_prime([1, 1]),
    "prime_general_p7": lambda: compile_general_prime([3, 1, 4, 1, 5, 2, 6]),
    "odd_ring_d15": lambda: compile_odd_ring([(x * x + 1) % 15 for x in range(15)]),
}


def compile_reports_text() -> str:
    return "".join(json.dumps({name: build().to_json()}, separators=(",", ":")) + "\n"
                   for name, build in COMPILE_CASES.items())


def test_compile_reports_byte_exact():
    # pins each construction's party order, rows, target and report fields
    assert compile_reports_text().encode() == (GOLDEN / "compile_reports.jsonl").read_bytes()


class TestVerify:
    def test_tampered_z_row(self):
        rep = compile_exponential(5, 2)
        plan = rep.plan
        from quditmbqc.engine import MbqcPlan

        bad_plan = MbqcPlan(d=5, n=1, N=1, resource=plan.resource, parties=plan.parties,
                            Q=plan.Q, T=plan.T, z=[2], s0=0)
        bad = CompileReport(bad_plan, 1, "exponential", rep.target)
        with pytest.raises(VerificationError, match=r"input \("):
            verify(bad)
        assert not bad.verified

    def test_spread_law_is_a_verification_error(self):
        # X measured on the basis state |1> gives a uniform outcome, so no
        # output table exists to compare
        rep = compile_exponential(5, 2)
        (_, control), = rep.plan.parties
        spread = MbqcPlan(d=5, n=1, N=1, resource=rep.plan.resource,
                          parties=[(WeylLabel(5, (0, 1)), control)], Q=rep.plan.Q, z=[1], s0=0)
        bad = CompileReport(spread, 1, "exponential", rep.target)
        with pytest.raises(VerificationError, match="plan is not deterministic"):
            verify(bad)
        assert not bad.verified

    @pytest.mark.parametrize("target, message", [
        ({}, "table needs 4 entries, got 0"),
        ({(0, 0): 1}, "table needs 4 entries, got 1"),
        ({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1.0}, "table value 1.0 is not an integer"),
        ({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1, 0): 0},
         "table point (1, 1, 0) has 3 coordinates, expected 2"),
        ({0: 1, 1: 0}, "table points have 1 coordinates, expected n = 2"),
        ([1, 1, 1, 0], "table is [1, 1, 1, 0], expected a dict of point -> value"),
    ], ids=["empty", "one-point", "float-value", "long-point", "short-points", "list"])
    def test_bad_target_is_refused_and_not_verified(self, target, message):
        # the target is read as empirical_success reads it: an empty or
        # partial table verified, and a float value passed
        bad = CompileReport(compile_nand().plan, 3, "nand-ghz", target)
        bad.verified = True
        with pytest.raises(QuditMbqcError, match=re.escape(f"target: {message}")) as info:
            verify(bad)
        assert type(info.value) is QuditMbqcError and not bad.verified

    def test_target_points_and_values_are_read_mod_d(self):
        nand = compile_nand()
        target = {(x + 2, y - 2): v + 4 for (x, y), v in nand.target.items()}
        assert verify(CompileReport(nand.plan, 3, "nand-ghz", target))

    def test_plain_int_points_verify_and_write_as_one_tuples(self):
        rep = compile_exponential(5, 2)
        plain = CompileReport(rep.plan, 1, "exponential", {x: v for (x,), v in rep.target.items()})
        assert verify(plain) and plain.to_json() == rep.to_json()

    def test_first_mismatch_is_named_in_input_order(self):
        nand = compile_nand()
        wrong = {i: v + 1 for i, v in reversed(nand.target.items())}
        with pytest.raises(VerificationError, match=re.escape(
                "output mismatch at input (0, 0): plan gives 1, target 0")):
            verify(CompileReport(nand.plan, 3, "nand-ghz", wrong))

    def test_empty_input_plan(self):
        rep = compile_exponential(5, 2)
        from quditmbqc.engine import MbqcPlan

        n0 = MbqcPlan(d=5, n=0, N=1, resource=rep.plan.resource, parties=rep.plan.parties,
                      Q=[[]], T=[[0]], z=[1], s0=0)
        rep0 = CompileReport(n0, 1, "exponential", {(): 1})
        assert verify(rep0)

    def test_report_json(self):
        obj = compile_exponential(5, 2).to_json()
        assert obj["construction"] == "exponential"
        assert obj["qudit_count"] == 1
        assert obj["verified"] is True
        assert obj["target"]["2"] == 4
        assert obj["plan"]["d"] == 5


class TestCompilerInvariants:
    def test_all_flat(self):
        reports = [
            compile_nand(), compile_quadratic(3), compile_exponential(5, 2),
            compile_general_prime([1, 0, 0]), compile_odd_ring([0, 1, 2]),
        ]
        for rep in reports:
            assert rep.plan.temporally_flat

    def test_degree_below_dimension(self):
        # stabilizer compilations never exceed combined degree d-1
        reports = [
            compile_quadratic(3), compile_quadratic(5),
            compile_exponential(3, 2), compile_exponential(5, 2),
            compile_general_prime([2, 1, 0]), compile_general_prime([1, 0, 2, 0, 3]),
        ]
        for rep in reports:
            d = rep.plan.d
            table, poly = extract_output_function(rep.plan)
            assert combined_degree(poly) <= d - 1

    def test_compiled_plans_admit_assignments(self):
        for rep in (compile_exponential(3, 2), compile_exponential(5, 2),
                    compile_quadratic(3), compile_general_prime([1, 0, 0])):
            w = ncva_search(rep.plan, rep.target)
            assert w.verdict == NCVA_FOUND

    def test_backends_agree_across_golden_plans(self):
        from quditmbqc.engine import weighted_observable
        from quditmbqc.states import dense_oracle, eigenphase_of

        reports = [
            compile_nand(), compile_quadratic(3),
            compile_exponential(3, 2), compile_exponential(5, 2),
            compile_general_prime([1, 0, 2]), compile_odd_ring([1, 0, 0]),
        ]
        for rep in reports:
            plan = rep.plan
            if plan.d**plan.N > 10**6:
                continue
            for i in plan.inputs():
                M = weighted_observable(plan, i)
                assert eigenphase_of(M, plan.resource) == dense_oracle(M, plan.resource)
