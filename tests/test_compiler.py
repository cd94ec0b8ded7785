import itertools
import json
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
        with pytest.raises(QuditMbqcError):
            compile_quadratic(4)
        with pytest.raises(QuditMbqcError):
            compile_quadratic(9)

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
        (compile_general_prime, [1.0, 2, 0], 3, "target value 1.0 at input 0 is not an integer"),
        (compile_odd_ring, {0: 1, 1: 2, (2,): "0"}, 3, "target value '0' at input 2 is not an integer"),
        (compile_general_prime, {0: 1, 1: 2, 3: 0}, 3, "target must cover all 3 inputs"),
        (compile_general_prime, {0: 1, (0,): 1, 1: 2, 2: 0}, 3, "target must cover all 3 inputs"),
    ], ids=["long", "short", "long_odd_ring", "float", "str_in_dict", "key_out_of_range",
            "key_twice"])
    def test_bad_target_rejected(self, build, m, d, message):
        with pytest.raises(QuditMbqcError, match=re.escape(message)):
            build(m, d)

    def test_dict_target_read_mod_d(self):
        rep = compile_general_prime({(0,): 4, 1: 2, 2: -1}, 3)
        assert rep.verified and rep.target == {(0,): 1, (1,): 2, (2,): 2}


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
