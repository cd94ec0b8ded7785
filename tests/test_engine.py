import functools
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest

from quditmbqc import engine, states
from quditmbqc.compiler import compile_general_prime, compile_odd_ring
from quditmbqc.engine import (
    EXACT_BRANCH_BUDGET,
    MbqcPlan,
    RunTrace,
    TableResource,
    empirical_success,
    extract_output_function,
    is_deterministic,
    longest_path,
    output_distribution,
    run,
    temporal_graph,
    weighted_observable,
)
from quditmbqc.errors import PlanFormatError, QuditMbqcError, SizeGuardError, SparseFormError
from quditmbqc.states import MonomialOp, SparseState, basis_state, make_ghz
from planlib import (exponential_plan, ghz_chain, nand_plan, quadratic_plan, wide_x_chain,
                     x_chain)
from quditmbqc.weyl import CliffordSpec, WeylLabel, named_clifford
from quditmbqc.witnesses import analyze_plan


class TestRun:
    def test_nand_all_inputs(self):
        plan = nand_plan()
        expect = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        for i in plan.inputs():
            for seed in range(20):
                assert run(plan, i, seed).output == expect[i]

    def test_trace_consistency(self):
        plan = nand_plan()
        tr = run(plan, (1, 0), 5)
        assert isinstance(tr, RunTrace)
        assert tr.settings == (1, 0, 1)
        assert tr.output == plan.output_of(tr.outcomes)

    def test_pauli_controls_constant_settings_zero_Q(self):
        d = 3
        fid = WeylLabel(d, (1, 0))
        disp = named_clifford(d, "weyl-displacement", x=(0, 1))
        plan = MbqcPlan(
            d=d, n=1, N=1, resource=basis_state(d, (2,)),
            parties=[(fid, disp)], Q=[[0]], T=[[0]], z=[1], s0=0,
        )
        outs = {run(plan, (i,), 0).output for i in range(3)}
        assert len(outs) == 1  # o independent of i

    def test_exponential_inverse_value(self):
        plan = exponential_plan(5, 2)
        assert run(plan, (1,), 0).output == 3  # 2^-1 mod 5

    def test_bad_input_length(self):
        with pytest.raises(QuditMbqcError):
            run(nand_plan(), (0,), 0)
        for i in [(0,), (0, 1, 1)]:
            with pytest.raises(QuditMbqcError, match=f"input needs 2 symbols, got {len(i)}"):
                output_distribution(nand_plan(), i)

    @pytest.mark.parametrize("i", [(1.5,), ("1",), (None,), (1.0,), (True,)],
                             ids=["float", "string", "none", "integral-float", "bool"])
    def test_input_symbols_must_be_integers(self, i):
        plan = compile_general_prime([2, 0, 1], 3).plan
        for call in (run, output_distribution, weighted_observable):
            with pytest.raises(QuditMbqcError, match=r"^input has .*, expected an integer$"):
                call(plan, i)

    def test_big_and_negative_input_symbols_reduce_mod_d(self):
        plan = compile_general_prime([2, 0, 1], 3).plan
        assert run(plan, (-1,), 0).input == (2,)
        assert output_distribution(plan, (-1,)) == {1: 1}
        assert output_distribution(plan, (3**80 + 1,)) == {0: 1}

    def test_quadratic_runs_stay_within_resource_support(self, monkeypatch):
        # measured qudits are forgotten, so no measurement step sees more
        # terms than the resource has, and seeded runs give the closed-form
        # table
        steps = _spy_steps(monkeypatch)
        for d in (5, 7):
            plan = quadratic_plan(d)
            steps.clear()
            for x in range(d):
                assert run(plan, (x,), x).output == (x * (x - 1) // 2) % d
            sizes = [size for size, _ in steps]
            assert len(sizes) == d * plan.N
            assert max(sizes) <= len(plan.resource.terms)

    def test_runs_decompose_each_site_operator_once(self, monkeypatch):
        # measurement_distribution reads the cycles from MonomialOp.spectrum,
        # cached on each operator object: seven runs of a compiled p=7 plan
        # (252 parties, 6 party kinds x 7 settings) decompose at most 42
        # operators, each once, where a per-call decomposition made 7 x 252
        plan = MbqcPlan.loads(compile_general_prime([3, 1, 4, 1, 5, 2, 6], 7).plan.dumps())
        made = []
        cached = MonomialOp.__dict__["spectrum"]

        def counting(op):
            made.append(op)
            return cached.func(op)

        spy = functools.cached_property(counting)
        spy.__set_name__(MonomialOp, "spectrum")
        monkeypatch.setattr(MonomialOp, "spectrum", spy)
        steps = _spy_steps(monkeypatch)
        for x in range(7):
            run(plan, (x,), x)
        assert len(steps) == 7 * plan.N == 7 * 252
        assert 0 < len(made) == len({id(op) for op in made}) <= 6 * 7


class TestExtract:
    def test_nand_table_and_poly(self):
        table, poly = extract_output_function(nand_plan())
        assert table == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        assert poly.coeffs == {(0, 0): 1, (1, 1): 1}

    @pytest.mark.parametrize("d", [3, 5])
    def test_quadratic_closed_form(self, d):
        table, _ = extract_output_function(quadratic_plan(d))
        assert table == {(i,): (i * (i - 1) // 2) % d for i in range(d)}

    def test_exponential_tables(self):
        table, _ = extract_output_function(exponential_plan(5, 2))
        assert [table[(i,)] for i in range(5)] == [1, 3, 4, 2, 1]
        table3, _ = extract_output_function(exponential_plan(3, 2))
        assert [table3[(i,)] for i in range(3)] == [1, 2, 1]

    def test_agrees_with_runs(self):
        for plan in (nand_plan(), quadratic_plan(3), exponential_plan(5, 2), exponential_plan(3, 2)):
            table, _ = extract_output_function(plan)
            for i in plan.inputs():
                for seed in (0, 1, 2):
                    assert run(plan, i, seed).output == table[i]

    def test_nondeterministic_rejected(self):
        d = 2
        plan = MbqcPlan(
            d=d, n=1, N=1, resource=basis_state(d, (0,)),
            parties=[(WeylLabel(d, (0, 1)), named_clifford(d, "weyl-displacement", x=(0, 0)))],
            Q=[[0]], T=[[0]], z=[1], s0=0,
        )
        with pytest.raises(QuditMbqcError, match="empirical_success"):
            extract_output_function(plan)

    def test_pauli_control_plans_are_affine(self):
        # displacement-only controls keep the output affine in the input
        rng = random.Random(21)
        for d in (2, 3, 5):
            for _ in range(6):
                N = rng.randrange(1, 4)
                parties = []
                for _k in range(N):
                    a = rng.randrange(1, d)
                    x = (rng.randrange(d), rng.randrange(d))
                    parties.append((WeylLabel(d, (a, 0)),
                                    named_clifford(d, "weyl-displacement", x=x)))
                ket = tuple(rng.randrange(d) for _ in range(N))
                plan = MbqcPlan(
                    d=d, n=1, N=N, resource=basis_state(d, ket),
                    parties=parties,
                    Q=[[rng.randrange(d)] for _ in range(N)],
                    T=[[0] * N] * N,
                    z=[rng.randrange(d) for _ in range(N)], s0=rng.randrange(d),
                )
                _, poly = extract_output_function(plan)
                assert max((sum(e) for e in poly.coeffs), default=0) <= 1

    def test_zero_z_row_constant(self):
        plan = exponential_plan(5, 2)
        flat = MbqcPlan(d=5, n=1, N=1, resource=plan.resource, parties=plan.parties,
                        Q=plan.Q, T=plan.T, z=[0], s0=3)
        table, poly = extract_output_function(flat)
        assert set(table.values()) == {3}
        assert is_deterministic(flat)

    def test_empty_input_plan(self):
        plan = exponential_plan(5, 2)
        n0 = MbqcPlan(d=5, n=0, N=1, resource=plan.resource, parties=plan.parties,
                      Q=[[]], T=[[0]], z=[1], s0=0)
        table, poly = extract_output_function(n0)
        assert table == {(): 1}
        assert poly.evaluate(()) == 1

    def test_ordered_plan_extracted(self):
        # Z on |00>, the second setting read from the first outcome
        d = 3
        plan = MbqcPlan(d=d, n=1, N=2, resource=basis_state(d, (0, 0)),
                        parties=[(WeylLabel(d, (1, 0)),
                                  named_clifford(d, "weyl-displacement", x=(0, 0)))] * 2,
                        Q=[[0]] * 2, T=[[0, 0], [1, 0]], z=[1, 1], s0=0)
        table, poly = extract_output_function(plan)
        assert table == {(0,): 0, (1,): 0, (2,): 0}
        assert poly.is_zero()

    @pytest.mark.parametrize("d", [9, 15])
    def test_composite_d_polynomial_matches_analysis(self, d):
        rng = random.Random(d)
        targets = [[x * x % d for x in range(d)], [(2 * x + 5) % d for x in range(d)],
                   [rng.randrange(d) for _ in range(d)], [1] + [0] * (d - 1)]
        for target in targets:
            plan = compile_odd_ring(target).plan
            table, poly = extract_output_function(plan)
            assert table == {(x,): v for x, v in enumerate(target)}
            serialized = analyze_plan(plan).to_json().get("polynomial_serialized")
            assert (poly and poly.serialize()) == serialized
            if poly is not None:
                assert all(poly.evaluate(x) == v for x, v in table.items())

    def test_composite_d_polynomial_or_none(self):
        # x^2 is a polynomial over Z_9; the delta at 0 is none, since its
        # 8th forward difference at 0 is 1 and 8! is 0 mod 9
        square = compile_odd_ring([x * x % 9 for x in range(9)]).plan
        assert extract_output_function(square)[1].serialize() == "d=9;n=1;{(2):1}"
        delta = compile_odd_ring([1] + [0] * 8).plan
        assert extract_output_function(delta)[1] is None


class TestDeterminism:
    def test_nand_deterministic(self):
        assert is_deterministic(nand_plan())

    def test_x_on_basis_not_deterministic(self):
        d = 2
        plan = MbqcPlan(
            d=d, n=1, N=1, resource=basis_state(d, (0,)),
            parties=[(WeylLabel(d, (0, 1)), named_clifford(d, "weyl-displacement", x=(0, 0)))],
            Q=[[0]], T=[[0]], z=[1], s0=0,
        )
        assert not is_deterministic(plan)

    def test_flat_settings_ignore_order(self):
        plan = nand_plan()
        for i in plan.inputs():
            expect = tuple(plan.setting(k, i, ()) for k in range(plan.N))
            tr = run(plan, i, 3)
            assert tr.settings == expect

    def test_ordered_plan_determinism_from_exact_walk(self):
        # adaptive settings on diagonal observables: outcomes feed forward but
        # the output z*m stays input-determined, as the exact walk shows
        d = 3
        fidZ = WeylLabel(d, (1, 0))
        mu = named_clifford(d, "Mu", u=2)
        det = MbqcPlan(d=d, n=1, N=2, resource=basis_state(d, (1, 1)),
                       parties=[(fidZ, mu)] * 2, Q=[[1], [0]],
                       T=[[0, 0], [1, 0]], z=[0, 1], s0=0)
        assert is_deterministic(det)
        # X-measurement feeding a weighted output is genuinely random
        rnd = MbqcPlan(d=2, n=1, N=2, resource=basis_state(2, (0, 0)),
                       parties=[(WeylLabel(2, (0, 1)),
                                 named_clifford(2, "weyl-displacement", x=(0, 0)))] * 2,
                       Q=[[0], [0]], T=[[0, 0], [1, 0]], z=[1, 0], s0=0)
        assert not is_deterministic(rnd)

    def test_irrational_law_is_not_deterministic(self):
        # (|0> + |1>)/sqrt(2) measured in X at d=5 has P(o) = (1 + cos(2 pi o/5))/5
        d = 5
        plan = MbqcPlan(
            d=d, n=1, N=1, resource=SparseState(d, 1, ((0, (0,)), (0, (1,)))),
            parties=[(WeylLabel(d, (0, 1)), named_clifford(d, "weyl-displacement", x=(0, 0)))],
            Q=[[0]], T=[[0]], z=[1], s0=0,
        )
        assert not is_deterministic(plan)
        with pytest.raises(SparseFormError):
            output_distribution(plan, (0,))
        with pytest.raises(QuditMbqcError, match="empirical_success"):
            extract_output_function(plan)

    def test_x_chain_law_is_exact(self):
        # X on 16 qubits in |0..0>: 2^16 leaves, but two merged branches per party
        plan = x_chain(16, {1: 0})
        assert output_distribution(plan, (0,)) == {0: Fraction(1, 2), 1: Fraction(1, 2)}
        assert not is_deterministic(plan)

    def test_long_ghz_chain_law_is_exact(self):
        plan = ghz_chain(3, 200)
        for i in plan.inputs():
            law = output_distribution(plan, i)
            assert sum(law.values()) == 1 and len(law) > 1
            for seed in range(2):
                assert run(plan, i, seed).output in law

    def test_ordered_walk_raises_rather_than_guess(self):
        with pytest.raises(SizeGuardError, match=str(EXACT_BRANCH_BUDGET)):
            is_deterministic(wide_x_chain())
        # an X measurement of (|0> + |1>)/sqrt(2) at d=5 leaves the sparse form
        d = 5
        irrational = MbqcPlan(
            d=d, n=1, N=2, resource=SparseState(d, 2, ((0, (0, 0)), (0, (1, 0)))),
            parties=[(WeylLabel(d, (0, 1)), named_clifford(d, "weyl-displacement", x=(0, 0)))] * 2,
            Q=[[0], [0]], T=[[0, 0], [1, 0]], z=[1, 1], s0=0,
        )
        with pytest.raises(SparseFormError):
            is_deterministic(irrational)
        with pytest.raises(SparseFormError):
            empirical_success(irrational, {(x,): 0 for x in range(d)})

    def test_walk_budget_bounds_the_widest_layer(self, monkeypatch):
        # the 60-party d=3 GHZ chain holds at most nine branches per layer,
        # though its layers add up past 50 by party 6
        plan = ghz_chain(3, 60)
        want = output_distribution(plan, (0,))
        monkeypatch.setattr(engine, "EXACT_BRANCH_BUDGET", 50)
        assert output_distribution(plan, (0,)) == want
        with pytest.raises(SizeGuardError, match="widest-layer limit 50"):
            output_distribution(x_chain(12, {j + 6: j for j in range(6)}), (0,))

    def test_ordered_plan_exact_distribution(self):
        d = 3
        fidZ = WeylLabel(d, (1, 0))
        mu = named_clifford(d, "Mu", u=2)
        plan = MbqcPlan(d=d, n=1, N=2, resource=basis_state(d, (1, 1)),
                        parties=[(fidZ, mu)] * 2, Q=[[1], [0]],
                        T=[[0, 0], [1, 0]], z=[1, 1], s0=0)
        for i in plan.inputs():
            dist = output_distribution(plan, i)
            assert sum(dist.values()) == 1
            (o, p), = dist.items()
            assert p == 1
            for seed in range(4):
                assert run(plan, i, seed).output == o


class TestTemporal:
    def test_flat_graph(self):
        assert longest_path(temporal_graph(nand_plan())) == 1

    def test_chain(self):
        d = 3
        fid = WeylLabel(d, (1, 0))
        ident = named_clifford(d, "weyl-displacement", x=(0, 0))
        T = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        plan = MbqcPlan(d=d, n=1, N=4, resource=basis_state(d, (0, 0, 0, 0)),
                        parties=[(fid, ident)] * 4, Q=[[0]] * 4, T=T, z=[1] * 4, s0=0)
        assert longest_path(temporal_graph(plan)) == 4

    def test_two_chains(self):
        d = 3
        fid = WeylLabel(d, (1, 0))
        ident = named_clifford(d, "weyl-displacement", x=(0, 0))
        N = 5
        T = [[0] * N for _ in range(N)]
        T[1][0] = 1          # chain of 2: 0 -> 1
        T[3][2] = 1          # chain of 3: 2 -> 3 -> 4
        T[4][3] = 1
        plan = MbqcPlan(d=d, n=1, N=N, resource=basis_state(d, (0,) * N),
                        parties=[(fid, ident)] * N, Q=[[0]] * N, T=T, z=[1] * N, s0=0)
        assert longest_path(temporal_graph(plan)) == 3

    def test_long_chain_without_recursion(self):
        N = 5000
        assert longest_path({k: [k + 1] if k + 1 < N else [] for k in range(N)}) == N

    def test_cycle_detection(self):
        from quditmbqc.engine import longest_path

        with pytest.raises(QuditMbqcError, match="cycle"):
            longest_path({0: [1], 1: [0]})

    def test_plan_validation_errors(self):
        d = 2
        fid = WeylLabel(d, (1, 0))
        ident = named_clifford(d, "weyl-displacement", x=(0, 0))
        good = dict(d=d, n=1, N=2, resource=basis_state(d, (0, 0)),
                    parties=[(fid, ident)] * 2, Q=[[0]] * 2,
                    T=[[0, 0]] * 2, z=[1, 1], s0=0)
        MbqcPlan(**good)
        for field, bad, message in [
            ("resource", basis_state(d, (0,)), "resource state shape does not match"),
            ("parties", [(fid, ident)], "expected 2 parties, got 1"),
            ("Q", [[0]], "Q must have 2 rows, got 1"),
            ("Q", [[0, 1]] * 2, "Q row 0 has 2 entries, expected 1"),
            ("z", [1], "z has 1 entries, expected one per party (2)"),
            ("q0", [0, 0, 0], "q0 has 3 entries, expected one per party (2)"),
            ("parties", [(WeylLabel(3, (1, 0)), ident)] * 2, "party dimension does not match"),
            # tau*Z squares to -1
            ("parties", [(WeylLabel(d, (1, 0), 1), ident)] * 2, "party 0 fiducial spectrum"),
            ("parties", [(fid, CliffordSpec(d, ((1, 0), (1, 1))))] * 2,
             "party 0 control needs an upper-triangular symplectic part at even d"),
        ]:
            broken = dict(good)
            broken[field] = bad
            with pytest.raises(QuditMbqcError, match=re.escape(message)):
                MbqcPlan(**broken)
        # a table resource has no measurement order to follow
        table = TableResource.deterministic(2, {(0, 0): (0, 0)})
        with pytest.raises(QuditMbqcError, match="flat"):
            MbqcPlan(**dict(good, resource=table, T=[[0, 0], [1, 0]]))
        three = TableResource.deterministic(3, {(0, 0, 0): (0, 0, 0)})
        with pytest.raises(QuditMbqcError, match="table resource party count does not match"):
            MbqcPlan(**dict(good, resource=three))
        # input 1 reaches settings (1, 0), which the table has no entry for
        with pytest.raises(QuditMbqcError, match=r"settings \(1, 0\)"):
            MbqcPlan(**dict(good, resource=table, Q=[[1], [0]]))
        with pytest.raises(QuditMbqcError, match="needs 2 integers"):
            TableResource.deterministic(2, {(0, 0): ("0", 0)})
        # weights 3/2 and -1/2 sum to 1, but -1/2 is no probability
        with pytest.raises(QuditMbqcError, match=re.escape(
                "probability -1/2 of outcome (1, 1) for settings (0, 0) is negative")):
            TableResource(2, {(0, 0): [((0, 0), Fraction(3, 2)), ((1, 1), Fraction(-1, 2))]})
        # the table does not know d, so the plan checks the outcome range
        for outcome in ((0, 7), (-3, 0)):
            wide = TableResource.deterministic(2, {(0, 0): outcome})
            with pytest.raises(QuditMbqcError, match=re.escape(
                    f"outcome {outcome} for settings (0, 0) lies outside 0..1")):
                MbqcPlan(**dict(good, resource=wide))

    @pytest.mark.parametrize("field, bad, message", [
        ("z", [1.5, 1], "z has 1.5, expected an integer"),
        ("z", [True, 1], "z has True, expected an integer"),
        ("Q", [[1.0], [1]], "Q has an entry that is not an integer"),
        ("q0", [0, 0.5], "q0 has 0.5, expected an integer"),
        ("s0", 1.5, "s0 is 1.5, expected an integer"),
        ("n", 1.0, "n is 1.0, expected an integer"),
        ("N", True, "N is True, expected an integer"),
    ], ids=["z-float", "z-bool", "Q-float", "q0-float", "s0-float", "n-float", "N-bool"])
    def test_non_integer_fields_are_refused_as_in_plan_files(self, field, bad, message):
        # each once built a plan that ran to a fractional output or a bare
        # TypeError, or that dumps wrote and loads refused
        d = 3
        good = dict(d=d, n=1, N=2, resource=make_ghz(d, 2),
                    parties=[(WeylLabel(d, (0, 1)), named_clifford(d, "S"))] * 2,
                    Q=[[1], [1]], T=[[0, 0], [1, 0]], z=[1, 1], s0=0, q0=[0, 0])
        assert run(MbqcPlan(**good), (1,), seed=0).output in range(d)
        with pytest.raises(QuditMbqcError, match=f"^{re.escape(message)}$"):
            MbqcPlan(**dict(good, **{field: bad}))

    def test_non_triangular_T_rejected(self):
        d = 2
        fid = WeylLabel(d, (1, 0))
        ident = named_clifford(d, "weyl-displacement", x=(0, 0))
        with pytest.raises(QuditMbqcError, match="triangular"):
            MbqcPlan(d=d, n=1, N=2, resource=basis_state(d, (0, 0)),
                     parties=[(fid, ident)] * 2, Q=[[0]] * 2,
                     T=[[0, 1], [0, 0]], z=[1, 1], s0=0)

    def test_ordered_quantum_run(self):
        # party 2 measures Z^(m_1+1) style setting; just exercise the path
        d = 3
        fidZ = WeylLabel(d, (1, 0))
        mu = named_clifford(d, "Mu", u=2)
        plan = MbqcPlan(d=d, n=1, N=2, resource=basis_state(d, (1, 1)),
                        parties=[(fidZ, mu)] * 2, Q=[[1], [0]],
                        T=[[0, 0], [1, 0]], z=[1, 1], s0=0)
        tr = run(plan, (1,), 0)
        assert tr.settings[1] == tr.outcomes[0] % d
        assert not plan.temporally_flat


class TestTableResources:
    def test_deterministic_table_nand(self):
        # abstract resource realizing i1*i2 on two parties with q = (i1, i2)
        mapping = {}
        for q1, q2 in itertools.product(range(2), repeat=2):
            mapping[(q1, q2)] = ((q1 * q2) % 2, 0)
        res = TableResource.deterministic(2, mapping)
        plan = MbqcPlan(
            d=2, n=2, N=2, resource=res,
            parties=[(WeylLabel(2, (1, 0)), named_clifford(2, "weyl-displacement", x=(0, 0)))] * 2,
            Q=[[1, 0], [0, 1]], T=[[0, 0]] * 2, z=[1, 0], s0=0,
        )
        table, poly = extract_output_function(plan)
        assert table == {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
        assert poly.coeffs == {(1, 1): 1}
        assert is_deterministic(plan)

    def test_coin_flip_average(self):
        res = TableResource(1, {(0,): [((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))]})
        plan = MbqcPlan(
            d=2, n=1, N=1, resource=res,
            parties=[(WeylLabel(2, (1, 0)), named_clifford(2, "weyl-displacement", x=(0, 0)))],
            Q=[[0]], T=[[0]], z=[1], s0=0,
        )
        target = {(0,): 0, (1,): 1}
        p_min, p_avg = empirical_success(plan, target)
        assert p_min == Fraction(1, 2) and p_avg == Fraction(1, 2)
        assert not is_deterministic(plan)

    def test_table_distribution_normalized(self):
        with pytest.raises(QuditMbqcError):
            TableResource(1, {(0,): [((0,), Fraction(1, 3))]})


class TestEmpiricalSuccess:
    def test_deterministic_match(self):
        plan = nand_plan()
        table, _ = extract_output_function(plan)
        p_min, p_avg = empirical_success(plan, table)
        assert p_min == 1 and p_avg == 1

    def test_constant_plan_vs_nand(self):
        d = 2
        res = TableResource.deterministic(1, {(0,): (0,)})
        plan = MbqcPlan(
            d=d, n=2, N=1, resource=res,
            parties=[(WeylLabel(d, (1, 0)), named_clifford(d, "weyl-displacement", x=(0, 0)))],
            Q=[[0, 0]], T=[[0]], z=[1], s0=0,
        )
        nand = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        p_min, p_avg = empirical_success(plan, nand)
        assert p_min == 0 and p_avg == Fraction(1, 4)

    def test_seeded_run_statistics_on_coin_flip_table(self):
        # seeded runs of a fair coin-flip table resource hit 0 within 3 sigma of 1/2
        res = TableResource(1, {(0,): [((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))]})
        plan = MbqcPlan(
            d=2, n=1, N=1, resource=res,
            parties=[(WeylLabel(2, (1, 0)), named_clifford(2, "weyl-displacement", x=(0, 0)))],
            Q=[[0]], T=[[0]], z=[1], s0=0,
        )
        trials = 10**4
        hits = sum(1 for t in range(trials) if run(plan, (0,), t).output == 0)
        assert abs(hits / trials - 0.5) < 3 * 0.5 / trials**0.5

    def test_output_distribution_exact(self):
        plan = nand_plan()
        dist = output_distribution(plan, (1, 1))
        assert dist == {0: Fraction(1)}

    def test_heavy_deterministic_plan_scored_analytically(self):
        # the 2d-qudit quadratic plan at d=5 is too entangled to simulate
        # but deterministic, so success probabilities come from extraction
        plan = quadratic_plan(5)
        table, _ = extract_output_function(plan)
        p_min, p_avg = empirical_success(plan, table)
        assert p_min == 1 and p_avg == 1
        wrong = dict(table)
        wrong[(0,)] = (wrong[(0,)] + 1) % 5
        p_min, p_avg = empirical_success(plan, wrong)
        assert p_min == 0 and p_avg == Fraction(4, 5)

    def test_nondeterministic_heavy_flat_plan_scored_exactly(self):
        # without the last party in the output, W(i) of the quadratic d=5 plan
        # shifts nine sites of each ket and not the tenth, so W^j psi is
        # orthogonal to psi for 0 < j < 5 and every output law is uniform
        base = quadratic_plan(5)
        plan = MbqcPlan(d=5, n=1, N=10, resource=base.resource, parties=base.parties,
                        Q=base.Q, T=base.T, z=[1] * 9 + [0], s0=0)
        target = {(x,): x for x in range(5)}
        assert empirical_success(plan, target) == (Fraction(1, 5), Fraction(1, 5))

    @pytest.mark.parametrize("target, message", [
        ({(0,): 1}, "table needs 3 entries, got 1"),
        ({(0,): 1.5, (1,): 2, (2,): 0}, "table value 1.5 is not an integer"),
        ({(x, 0): 0 for x in range(3)}, "table needs 9 entries, got 3"),
        ({(x, y): 0 for x in range(3) for y in range(3)},
         "table points have 2 coordinates, expected n = 1"),
    ], ids=["missing_point", "float_value", "short_two_input", "two_input"])
    def test_bad_target_value_error(self, target, message):
        # a missing point used to end in a bare KeyError
        plan = compile_general_prime([1, 2, 0]).plan
        with pytest.raises(ValueError, match=re.escape(message)):
            empirical_success(plan, target)

    def test_int_keyed_target(self):
        plan = compile_general_prime([1, 2, 0]).plan
        assert empirical_success(plan, {0: 1, 1: 2, 2: 0}) == (1, 1)
        assert empirical_success(plan, {0: 1, 1: 2, 2: 1}) == (0, Fraction(2, 3))

    def test_output_distribution_matches_dense_projectors(self, monkeypatch):
        # exact output laws (spectral for flat plans, the merged walk for
        # ordered ones) must match ||P_mN ... P_m1 psi||^2 computed densely
        steps = _spy_steps(monkeypatch)
        rng = random.Random(88)
        order_rng = random.Random(188)
        for d in (2, 3):
            units = [u for u in range(1, d) if math.gcd(u, d) == 1]
            for _trial in range(8):
                N = rng.randrange(2, 4)
                parties = []
                for _ in range(N):
                    fid = WeylLabel(d, (rng.randrange(d), rng.randrange(d)),
                                    2 * rng.randrange(d))
                    kind = rng.randrange(3)
                    if kind == 0:
                        ctrl = named_clifford(d, "S")
                    elif kind == 1:
                        ctrl = named_clifford(d, "Mu", u=rng.choice(units))
                    else:
                        ctrl = named_clifford(d, "weyl-displacement",
                                              x=(rng.randrange(d), rng.randrange(d)))
                    parties.append((fid, ctrl))
                plan = MbqcPlan(
                    d=d, n=1, N=N, resource=make_ghz(d, N),
                    parties=parties,
                    Q=[[rng.randrange(d)] for _ in range(N)],
                    T=[[0] * N] * N,
                    z=[rng.randrange(d) for _ in range(N)],
                    s0=rng.randrange(d),
                )
                for variant in (plan, _ordered(plan, order_rng)):
                    for i in variant.inputs():
                        _assert_matches_dense(output_distribution(variant, i),
                                              _dense_law(variant, i))
        assert _degenerate(steps) > 0

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_spectral_law_matches_dense_projectors(self, d, monkeypatch):
        # the exact output law of random GHZ plans, flat and ordered, against
        # dense site-by-site projective measurement, deterministic or not;
        # at composite d some measurements are degenerate
        steps = _spy_steps(monkeypatch)
        rng = random.Random(40 + d)
        order_rng = random.Random(140 + d)
        units = [u for u in range(1, d) if math.gcd(u, d) == 1]
        nondeterministic = 0
        for _trial in range(6):
            N = rng.randrange(2, 4)
            parties = []
            for _ in range(N):
                fid = WeylLabel(d, (rng.randrange(d), rng.randrange(d)), 2 * rng.randrange(d))
                ctrl = rng.choice([
                    named_clifford(d, "S"),
                    named_clifford(d, "Mu", u=rng.choice(units)),
                    named_clifford(d, "weyl-displacement",
                                   x=(rng.randrange(d), rng.randrange(d))),
                ])
                parties.append((fid, ctrl))
            plan = MbqcPlan(
                d=d, n=1, N=N, resource=make_ghz(d, N), parties=parties,
                Q=[[rng.randrange(d)] for _ in range(N)], T=[[0] * N] * N,
                z=[rng.randrange(d) for _ in range(N)], s0=rng.randrange(d),
            )
            for variant in (plan, _ordered(plan, order_rng)):
                for i in variant.inputs():
                    got = output_distribution(variant, i)
                    nondeterministic += len(got) > 1
                    _assert_matches_dense(got, _dense_law(variant, i))
        assert nondeterministic > 0
        if d in (4, 6):
            assert _degenerate(steps) > 0


def _ordered(plan: MbqcPlan, rng: random.Random) -> MbqcPlan:
    """plan with a random strictly lower-triangular T."""
    d, N = plan.d, plan.N
    T = [[rng.randrange(d) if j < k else 0 for j in range(N)] for k in range(N)]
    return MbqcPlan(d=d, n=plan.n, N=N, resource=plan.resource, parties=plan.parties,
                    Q=plan.Q, T=T, z=plan.z, s0=plan.s0)


def _dense_law(plan: MbqcPlan, i) -> dict[int, float]:
    """Output law from dense site-by-site projectors; each setting reads the
    outcomes before it, so ordered plans are covered too."""
    import numpy as np

    d, N = plan.d, plan.N
    omega = np.exp(2j * np.pi / d)
    psi = plan.resource.to_dense().reshape((d,) * N)
    projectors = {}  # (site, setting) -> the d projectors of its observable
    law: dict[int, float] = {}
    for m in itertools.product(range(d), repeat=N):
        proj = psi
        for k in range(N):
            q = plan.setting(k, i, m[:k])
            if (k, q) not in projectors:
                M = plan.site_observable(k, q).to_dense()
                projectors[k, q] = [sum(omega ** (-o * j) * np.linalg.matrix_power(M, j)
                                        for j in range(d)) / d for o in range(d)]
            proj = np.moveaxis(np.tensordot(projectors[k, q][m[k]], proj, axes=([1], [k])), 0, k)
        p = float(np.vdot(proj, proj).real)
        if p > 1e-12:
            o = plan.output_of(m)
            law[o] = law.get(o, 0.0) + p
    return law


def _assert_matches_dense(got: dict, dense: dict) -> None:
    assert all(isinstance(p, Fraction) for p in got.values())
    assert set(got) == set(dense)
    for o, p in dense.items():
        assert abs(p - float(got[o])) < 1e-9


def _spy_steps(monkeypatch) -> list[tuple[int, list[int]]]:
    """Records every measurement step of runs and exact walks as (terms of
    the measured state, outcome of each branch)."""
    steps = []
    step = states.measurement_distribution

    def spy(psi, site, op):
        branches = step(psi, site, op)
        steps.append((len(psi.terms), [m for m, _, _ in branches]))
        return branches

    monkeypatch.setattr(states, "measurement_distribution", spy)  # measure_local
    monkeypatch.setattr(engine, "measurement_distribution", spy)
    return steps


def _degenerate(steps) -> int:
    """Steps with two branches of one outcome: a degenerate measurement."""
    return sum(len(set(outcomes)) < len(outcomes) for _, outcomes in steps)


class TestPlanSerialization:
    def test_round_trip(self):
        for plan in (nand_plan(), quadratic_plan(3), exponential_plan(5, 2)):
            text = plan.dumps()
            again = MbqcPlan.loads(text)
            assert again == plan
            assert again.dumps() == text

    def test_field_order(self):
        text = nand_plan().dumps()
        top = ['"d"', '"n"', '"N"', '"resource"', '"parties"', '"Q"', '"T"', '"z"', '"s0"']
        positions = [text.index(k) for k in top]
        assert positions == sorted(positions)

    def test_malformed_json(self):
        with pytest.raises(PlanFormatError, match="line"):
            MbqcPlan.loads("{not json")

    def test_missing_field(self):
        with pytest.raises(PlanFormatError):
            MbqcPlan.loads('{"d": 2, "n": 1}')

    def test_table_resource_round_trip(self):
        res = TableResource(1, {(0,): [((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))]})
        plan = MbqcPlan(
            d=2, n=1, N=1, resource=res,
            parties=[(WeylLabel(2, (1, 0)), named_clifford(2, "weyl-displacement", x=(0, 0)))],
            Q=[[0]], T=[[0]], z=[1], s0=0,
        )
        assert MbqcPlan.loads(plan.dumps()) == plan

    def test_setting_offset_round_trip(self):
        from quditmbqc.compiler import compile_general_prime

        plan = compile_general_prime([1, 0, 2]).plan
        assert any(plan.q0)
        again = MbqcPlan.loads(plan.dumps())
        assert again == plan and again.q0 == plan.q0
        assert '"q0"' in plan.dumps()
        assert '"q0"' not in nand_plan().dumps()  # omitted when all zero

    def test_golden_plan_file_byte_exact(self):
        import pathlib

        path = pathlib.Path(__file__).parent / "golden" / "nand_plan.json"
        plan = MbqcPlan.load(path)
        assert plan == nand_plan()
        assert plan.dumps().encode() == path.read_bytes()

    def test_legacy_dense_T_file_loads_and_resaves_as_golden(self):
        import pathlib

        golden = pathlib.Path(__file__).parent / "golden"
        plan = MbqcPlan.load(golden / "nand_plan_dense_T.json")
        assert plan == nand_plan()
        assert plan.dumps().encode() == (golden / "nand_plan.json").read_bytes()

    def test_chained_reference_loads_to_the_same_party(self):
        # party 2 names party 1, which itself names party 0
        obj = nand_plan().to_json()
        obj["parties"][2] = 1
        plan = MbqcPlan.from_json(obj)
        assert plan == nand_plan()
        assert all(a is b for a, b in zip(plan.parties[2], plan.parties[0]))
        assert plan.to_json()["parties"][2] == 0

    def test_matrix_spelling_of_a_named_control_resaves_as_the_first(self):
        # controls compare by matrix: a later party that spells the first
        # party's Mu as its matrix is written as a reference to that party
        d = 5
        named = named_clifford(d, "Mu", u=2)
        matrix = CliffordSpec(d, named.C)
        fid = WeylLabel(d, (1, 0))
        plan = MbqcPlan(d=d, n=1, N=2, resource=basis_state(d, (1, 1)),
                        parties=[(fid, named), (fid, matrix)], Q=[[1], [1]], z=[1, 1], s0=0)
        assert plan.to_json()["parties"][1] == 0
        again = MbqcPlan.loads(plan.dumps())
        assert again == plan
        assert again.parties[1][1].name == "Mu" and again.parties[1][1].u == 2
        # the other order writes the matrix, and the named party re-saves as it
        swapped = MbqcPlan(d=d, n=1, N=2, resource=basis_state(d, (1, 1)),
                           parties=[(fid, matrix), (fid, named)], Q=[[1], [1]], z=[1, 1], s0=0)
        assert swapped.to_json()["parties"] == [{"fiducial": fid.to_json(),
                                                 "control": matrix.to_json()}, 0]
        assert MbqcPlan.loads(swapped.dumps()).parties[1][1].name is None


class TestSparseT:
    """T is stored as each row's nonzero entries; plan.T is a dense view."""

    @staticmethod
    def _plan(T, N=3, d=3):
        return MbqcPlan(d=d, n=1, N=N, resource=basis_state(d, (0,) * N),
                        parties=[(WeylLabel(d, (0, 1)), named_clifford(d, "S"))] * N,
                        Q=[[1]] * N, T=T, z=[1] * N, s0=0)

    def test_row_forms_normalise_alike(self):
        dense = [[0, 0, 0], [5, 0, 0], [0, 3, 0]]  # 5 and 3 reduce mod 3
        forms = [dense, [{}, {0: 2}, {"1": 0}], [{}, {"0": 2}, [0, 0, 0]], [[0] * 3, {0: 5}, {}]]
        plans = [self._plan(T) for T in forms]
        assert all(p == plans[0] for p in plans)
        assert plans[0]._t_nonzero == ((), ((0, 2),), ())
        assert plans[0].T == ((0, 0, 0), (2, 0, 0), (0, 0, 0))

    def test_none_is_flat(self):
        plan = self._plan(None)
        assert plan.temporally_flat and plan == self._plan([[0] * 3] * 3)
        assert plan.T == ((0, 0, 0),) * 3
        assert plan.T[0] is plan.T[2]  # zero rows share one tuple

    def test_dense_view_of_ordered_plan_equals_input(self):
        dense = [[0] * 5 for _ in range(5)]
        for k in range(1, 5):
            dense[k][k - 1] = 1
        dense[4][0] = 2
        plan = self._plan(dense, N=5)
        assert plan.T == tuple(map(tuple, dense))
        assert plan.T is plan.T  # built once
        assert ghz_chain(3, 4).T == tuple(tuple(int(j == k - 1) for j in range(4))
                                         for k in range(4))

    def test_file_writes_one_object_per_row(self):
        plan = self._plan([[0, 0, 0], [2, 0, 0], [1, 2, 0]])
        assert '"T":[{},{"0":2},{"0":1,"1":2}]' in plan.dumps()
        assert MbqcPlan.loads(plan.dumps()) == plan

    @pytest.mark.parametrize("T, message", [
        ([[0] * 3] * 2, "T must have 3 rows, got 2"),
        ("abc", "T must be a list of 3 rows, got str"),
        ([[0] * 3, [0] * 2, [0] * 3], "T row 1 has 2 entries, expected 3"),
        ([[0] * 3, None, [0] * 3], "T row 1 is a NoneType, expected a list"),
        ([[0] * 3, "abc", [0] * 3], "T row 1 is a str, expected a list"),
        ([[0] * 3, [None, 0, 0], [0] * 3], "T row 1 has None for party 0, expected an integer"),
        ([[0] * 3, ["1", 0, 0], [0] * 3], "T row 1 has '1' for party 0, expected an integer"),
        ([[0] * 3, [0, 1, 0], [0] * 3], "T row 1 reads party 1, which is not earlier"),
        ([{}, {}, {"01": 1}], "T row 2 has key '01', expected a party number in plain decimal"),
        ([{}, {}, {5: 1}], "T row 2 reads party 5, which is not earlier"),
        ([{}, {}, {-1: 1}], "T row 2 reads party -1, which is not earlier"),
        ([{}, {}, {0: 1, "0": 1}], "T row 2 names a party twice"),
        ([{}, {}, {"0": None}], "T row 2 has None for party 0, expected an integer"),
    ])
    def test_shape_and_format_errors_name_what_was_found(self, T, message):
        with pytest.raises(QuditMbqcError) as exc:
            self._plan(T)
        assert str(exc.value).startswith(message)

    def test_null_T_in_a_file_is_refused(self):
        obj = json.loads(nand_plan().dumps())
        obj["T"] = None
        with pytest.raises(PlanFormatError, match="T must have 3 rows, got null"):
            MbqcPlan.loads(json.dumps(obj))

    def test_site_operators_built_once_per_party_kind_and_setting(self, monkeypatch, tmp_path,
                                                                     capsys):
        from quditmbqc.cli import main
        from quditmbqc.compiler import compile_general_prime

        path = tmp_path / "p7.json"
        compile_general_prime([3, 1, 4, 1, 5, 2, 6], 7).plan.save(path)
        calls = []
        real = engine.conjugate_weyl
        monkeypatch.setattr(engine, "conjugate_weyl",
                            lambda *args: calls.append(args) or real(*args))
        assert main(["analyze", "--plan", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["table"] == [3, 1, 4, 1, 5, 2, 6]
        # 7 * 6^2 = 252 parties, but 6 distinct controls with 7 settings each
        assert 0 < len(calls) <= 6 * 7
        plan = MbqcPlan.load(path)
        assert plan.site_observable(5, 3) is plan.site_observable(5 + 6, 3)  # both read u^-6
