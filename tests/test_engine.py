import dataclasses
import functools
import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from quditmbqc import engine, states
from quditmbqc.compiler import compile_exponential, compile_general_prime, compile_nand, compile_odd_ring
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
from quditmbqc.states import (MonomialOp, SparseState, _below, basis_state, make_ghz,
                              measure_local, measurement_distribution)
from planlib import (exponential_plan, ghz_chain, memoless, nand_plan, quadratic_plan,
                     random_ghz_plan, wide_x_chain, x_chain)
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
        setting = lambda plan, i: plan.setting(0, i, ())
        for call in (run, output_distribution, weighted_observable, setting):
            with pytest.raises(QuditMbqcError, match=r"^input has .*, expected an integer$"):
                call(plan, i)

    def test_weighted_observable_refuses_an_ordered_plan(self):
        # party 1 reads m_0, so no single W(i) holds the output: the one of
        # the zero-outcome settings q0 + Q*i has no eigenphase on the GHZ
        # state, while the exact law is spread
        party = (WeylLabel(3, (0, 1)), named_clifford(3, "S"))
        plan = MbqcPlan(3, 1, 2, make_ghz(3, 2), [party] * 2, [[1], [0]], [[0, 0], [1, 0]],
                        z=[1, 1], s0=0)
        assert output_distribution(plan, (1,)) == {0: Fraction(5, 9), 1: Fraction(2, 9),
                                                   2: Fraction(2, 9)}
        with pytest.raises(QuditMbqcError, match="^weighted_observable applies to temporally flat plans$"):
            weighted_observable(plan, (1,))

    def test_big_and_negative_input_symbols_reduce_mod_d(self):
        plan = compile_general_prime([2, 0, 1], 3).plan
        assert run(plan, (-1,), 0).input == (2,)
        assert output_distribution(plan, (-1,)) == {1: 1}
        assert output_distribution(plan, (3**80 + 1,)) == {0: 1}

    def test_quadratic_runs_stay_within_resource_support(self, monkeypatch):
        # measured qudits are forgotten, so no measurement step sees more
        # terms than the resource has, and seeded runs give the closed-form
        # table; the step memo stays empty, so every step reaches the kernel
        steps = _spy_steps(monkeypatch)
        for d in (5, 7):
            plan = memoless(quadratic_plan(d))
            steps.clear()
            for x in range(d):
                assert run(plan, (x,), x).output == (x * (x - 1) // 2) % d
            sizes = [size for size, _ in steps]
            assert len(sizes) == d * plan.N
            assert max(sizes) <= len(plan.resource.terms)

    def test_head_steps_build_the_one_rest_they_keep(self, monkeypatch):
        # a d = 5 quadratic run measures its 5 kets through the kernel at
        # every party, 5 branches a step whose rests are distinct until the
        # last party, where every rest is the empty one and the weights
        # need them (_merged_rest): each distinct-rest step builds the rest
        # of the branch it draws and no other, on a plan whose step memo
        # stays empty, so that no step is skipped
        built = []
        phased = states._phased_rest

        def counting(period, group, m):
            built.append(m)
            return phased(period, group, m)

        monkeypatch.setattr(states, "_phased_rest", counting)
        steps = _spy_steps(monkeypatch)
        plan = memoless(quadratic_plan(5))
        for x in range(5):
            steps.clear()
            built.clear()
            trace = run(plan, (x,), x)
            assert [size for size, _ in steps] == [5] * plan.N
            assert [len(outcomes) for _, outcomes in steps[:-1]] == [5] * (plan.N - 1)
            assert built == list(trace.outcomes[:-1])
        # the public step builds every rest
        built.clear()
        assert len(measurement_distribution(plan.resource, 0, plan.site_observable(0, 0))) == 5
        assert sorted(built) == [0, 1, 2, 3, 4]

    def test_runs_decompose_each_site_operator_once(self, monkeypatch):
        # a one-ket run reads one digit row per party from the plan's
        # per-column table _digit_rows, entry c the _digit_cycles of entry c
        # of _site_ops, read from MonomialOp.spectrum, cached on each
        # operator object: seven runs of a compiled p=7 plan (252 parties, 6
        # party kinds x 7 settings) decompose at most 6 operators, each
        # once, where a per-call decomposition made 7 x 252; columns with
        # one label share one operator and one row
        plan = MbqcPlan.loads(compile_general_prime([3, 1, 4, 1, 5, 2, 6], 7).plan.dumps())
        made = []
        cached = MonomialOp.__dict__["spectrum"]

        def counting(op):
            made.append(op)
            return cached.func(op)

        spy = functools.cached_property(counting)
        spy.__set_name__(MonomialOp, "spectrum")
        monkeypatch.setattr(MonomialOp, "spectrum", spy)
        for x in range(7):
            run(plan, (x,), x)
        assert plan.N == 252 and isinstance(plan._digit_rows, tuple)
        assert len(plan._digit_rows) == len(plan._site_ops) == len(plan._sites) == 6 * 7
        assert 0 < len(made) == len({id(op) for op in made}) <= 6
        first = {}
        for label, op, row in zip(plan._sites, plan._site_ops, plan._digit_rows):
            op0, row0 = first.setdefault(label, (op, row))
            assert op is op0 and row is row0 and row == op._digit_cycles
        assert len({id(row) for row in plan._digit_rows}) == len(first) <= 6

    def test_one_ket_steps_bypass_the_kernel(self, monkeypatch):
        # a compiled plan sits on one ket, so its runs never call the
        # K-term kernel or its sampler and never build the step memo; a GHZ
        # run, on a plan whose step memo stays empty, calls both until a Z
        # measurement leaves one ket
        drawn = []
        draw = engine._draw_branch

        def counting(branches, rng):
            drawn.append(len(branches))
            return draw(branches, rng)

        monkeypatch.setattr(engine, "_draw_branch", counting)
        steps = _spy_steps(monkeypatch)
        plan = compile_general_prime([3, 1, 4, 1, 5, 2, 6], 7).plan
        for x in range(7):
            assert run(plan, (x,), x).output == [3, 1, 4, 1, 5, 2, 6][x]
        assert steps == [] and drawn == [] and "_steps" not in vars(plan)
        x_label, z_label = WeylLabel(3, (0, 1)), WeylLabel(3, (1, 0))
        identity = named_clifford(3, "weyl-displacement", x=(0, 0))
        ghz = memoless(MbqcPlan(
            d=3, n=1, N=5, resource=make_ghz(3, 5),
            parties=[(v, identity) for v in (x_label, x_label, z_label, x_label, x_label)],
            Q=[[0]] * 5, z=[1] * 5, s0=0))
        for seed in range(5):
            run(ghz, (0,), seed)
        assert [size for size, _ in steps] == [3, 3, 3] * 5 and len(drawn) == 3 * 5

    def test_draws_read_getrandbits_not_randrange(self):
        # a Random whose randrange raises draws what a plain Random draws,
        # in a GHZ run's kernel head and one-ket tail, a compiled run and
        # measure_local, and is left in the same state
        class NoRandrange(random.Random):
            def randrange(self, *args, **kwargs):
                raise AssertionError("randrange called")

        x_label, z_label = WeylLabel(3, (0, 1)), WeylLabel(3, (1, 0))
        identity = named_clifford(3, "weyl-displacement", x=(0, 0))
        ghz = MbqcPlan(d=3, n=1, N=5, resource=make_ghz(3, 5),
                       parties=[(v, identity) for v in (x_label, x_label, z_label, x_label, x_label)],
                       Q=[[0]] * 5, z=[1] * 5, s0=0)
        compiled = compile_general_prime([3, 1, 4, 1, 5, 2, 6], 7).plan
        x_op = MonomialOp.from_weyl(3, (0, 1))
        for seed in range(20):
            mine, plain = NoRandrange(seed), random.Random(seed)
            for plan in (ghz, compiled):
                for x in range(plan.d):
                    assert run(plan, (x,), mine).outcomes == run(plan, (x,), plain).outcomes
            assert measure_local(make_ghz(3, 3), 1, x_op, mine) == \
                measure_local(make_ghz(3, 3), 1, x_op, plain)
            assert mine.getstate() == plain.getstate()

    @pytest.mark.parametrize("build", [
        lambda: compile_general_prime([1, 0], 2).plan,
        lambda: compile_general_prime([3, 1, 4, 1, 0], 5).plan,
        lambda: compile_general_prime([3, 1, 4, 1, 5, 2, 6], 7).plan,
        lambda: compile_odd_ring([2, 7, 1, 8, 2, 8, 1, 8, 3], 9).plan,
        lambda: compile_exponential(5, 2).plan,
    ], ids=["prime2", "prime5", "prime7", "odd9", "exponential5"])
    def test_compiled_runs_seed_no_random_and_draw_nothing(self, build, monkeypatch):
        # every step of a compiled plan has one outcome, so a run on an int
        # or None seeds no Random and draws nothing; a caller's Random gives
        # the same outcomes and still pays the N one-outcome draws
        plan = build()
        calls = []
        monkeypatch.setattr(engine, "_below", lambda *args: calls.append("_below"))
        monkeypatch.setattr(random.Random, "seed", lambda *args, **kwargs: calls.append("seed"))
        seeds = (0, 7, 2**40 + 1, None)
        traces = {(x, seed): run(plan, (x,), seed).outcomes
                  for x in range(plan.d) for seed in seeds}
        assert calls == []
        monkeypatch.undo()
        for (x, seed), outcomes in traces.items():
            mine = random.Random(seed)
            twin = random.Random()
            twin.setstate(mine.getstate())
            assert run(plan, (x,), mine).outcomes == outcomes
            for _ in range(plan.N):
                assert _below(twin.getrandbits, 1) == 0
            assert mine.getstate() == twin.getstate()

    def test_one_ket_runs_seed_at_their_first_draw_that_chooses(self, monkeypatch):
        # Z, Z, X, Z, X, Z on |000000> at d = 3: L = 1, 1, 3, 1, 3, 1.  A run
        # on an int or None seeds its Random at the first X, after two owed
        # one-outcome draws, and pays one more before the second X; a
        # caller's Random also pays the last one
        x_label, z_label = WeylLabel(3, (0, 1)), WeylLabel(3, (1, 0))
        identity = named_clifford(3, "weyl-displacement", x=(0, 0))
        fiducials = (z_label, z_label, x_label, z_label, x_label, z_label)
        plan = MbqcPlan(d=3, n=1, N=6, resource=basis_state(3, (0,) * 6),
                        parties=[(v, identity) for v in fiducials],
                        Q=[[0]] * 6, z=[1] * 6, s0=0)
        seed_random = random.Random.seed
        for seed in (0, 1, 7, 2**40 + 1, None):
            seeded = []

            def seeding(rng, *args, **kwargs):
                seed_random(rng, *args, **kwargs)
                seeded.append(rng.getstate())

            monkeypatch.setattr(random.Random, "seed", seeding)
            outcomes = run(plan, (0,), seed).outcomes
            monkeypatch.undo()
            assert len(seeded) == 1
            if seed is not None:
                assert seeded[0] == random.Random(seed).getstate()
            mine, twin = random.Random(), random.Random()
            mine.setstate(seeded[0])
            twin.setstate(seeded[0])
            assert run(plan, (0,), mine).outcomes == outcomes
            assert [outcomes[k] for k in (0, 1, 3, 5)] == [0, 0, 0, 0]
            for L in (1, 1, 3, 1, 3, 1):
                _below(twin.getrandbits, L)
            assert mine.getstate() == twin.getstate()


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
        with pytest.raises(SparseFormError, match=r"^output law at input \(0,\) has an irrational probability$"):
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

    def test_walk_matches_the_frozen_fraction_walk(self):
        # 40 seeded ordered random GHZ plans at d = 2..6, half tau-phased,
        # every input, a 2000-party chain and a plan of uneven rests: the
        # integer-weight walk gives the law of the earlier Fraction-per-branch
        # walk, in its order, or its refusal
        seen = set()
        for d in range(2, 7):
            for seed in range(8):
                plan = random_ghz_plan(random.Random(100 * d + seed), d, 3 + seed % 2, 1,
                                       ordered=True, tau_phased=seed % 2 == 1)
                for i in plan.inputs():
                    want = _outcome(_frozen_ordered_walk, plan, i)
                    assert _outcome(output_distribution, plan, i) == want
                    seen.add("refused" if want[0] is SparseFormError
                             else "point mass" if len(want[0]) == 1 else "spread")
        assert seen == {"refused", "point mass", "spread"}
        chain = ghz_chain(3, 2000)
        assert _outcome(output_distribution, chain, (1,)) == _outcome(_frozen_ordered_walk, chain, (1,))
        # Z on both qudits of five kets: party 1 meets rests of two and of
        # three kets, so its branch denominators, 2 and 3, divide neither
        # one another; the law is that of z0 + z1 mod 3 over the kets
        d = 3
        uneven = MbqcPlan(
            d=d, n=1, N=2,
            resource=SparseState(d, 2, tuple((0, ket) for ket in
                                             ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2)))),
            parties=[(WeylLabel(d, (1, 0)), named_clifford(d, "weyl-displacement", x=(0, 0)))] * 2,
            Q=[[0], [0]], T=[[0, 0], [1, 0]], z=[1, 1], s0=0)
        want = {0: Fraction(2, 5), 1: Fraction(2, 5), 2: Fraction(1, 5)}
        assert output_distribution(uneven, (0,)) == _frozen_ordered_walk(uneven, (0,)) == want

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
            # a bare fiducial ended in a TypeError, an int pair in an AttributeError
            ("parties", [(fid, ident), fid],
             f"party 1 is {fid!r}, expected a (WeylLabel, CliffordSpec) pair"),
            ("parties", [(1, 2)] * 2, "party 0 is (1, 2), expected a (WeylLabel, CliffordSpec) pair"),
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

    def test_parties_given_as_lists_build_the_plan_of_tuples(self):
        # a [fid, ctrl] list cannot be hashed, so it is checked and read as a tuple
        d = 3
        fid = WeylLabel(d, (0, 1))
        s_gate, ident = named_clifford(d, "S"), named_clifford(d, "weyl-displacement", x=(0, 0))
        pairs = [(fid, s_gate), (fid, ident), (fid, s_gate)]
        fields = dict(d=d, n=1, N=3, resource=basis_state(d, (0, 0, 0)), Q=[[1]] * 3,
                      z=[1] * 3, s0=0)
        want = MbqcPlan(**fields, parties=pairs)
        assert [c // d for c in want._site_columns] == [0, 1, 0] and want._first == (0, 1)
        for parties in ([list(p) for p in pairs], [list(pairs[0]), pairs[1], list(pairs[2])]):
            plan = MbqcPlan(**fields, parties=parties)
            assert plan.parties == want.parties and type(plan.parties[0]) is tuple
            assert (plan._site_columns, plan._first) == (want._site_columns, want._first)
            assert plan.dumps() == want.dumps()
        for bad in ((fid, [1]), {}):
            with pytest.raises(QuditMbqcError, match=re.escape(
                    f"party 1 is {bad!r}, expected a (WeylLabel, CliffordSpec) pair")):
                MbqcPlan(**fields, parties=[pairs[0], bad, pairs[2]])

    def test_repeated_party_objects_are_hashed_once(self, monkeypatch):
        # a repeated party object that began a kind is numbered without
        # hashing its fiducial and control again; a compiled plan repeats
        # one object per control
        hashes = []
        spec_hash = CliffordSpec.__hash__
        monkeypatch.setattr(CliffordSpec, "__hash__", lambda c: hashes.append(c) or spec_hash(c))
        d = 3
        fid = WeylLabel(d, (0, 1))
        pair, other = (fid, named_clifford(d, "S")), [fid, named_clifford(d, "Mu", u=2)]
        counts = []
        for copies in (1, 40):
            hashes.clear()
            plan = MbqcPlan(d=d, n=1, N=2 * copies, resource=basis_state(d, (0,) * 2 * copies),
                            parties=[pair, other] * copies, Q=[[1]] * 2 * copies,
                            z=[1] * 2 * copies, s0=0)
            assert [c // d for c in plan._site_columns] == [0, 1] * copies
            counts.append(len(hashes))
        assert counts[0] == counts[1] > 0
        plan = compile_general_prime([3, 1, 4, 1, 5, 2, 6], 7).plan
        assert len({id(party) for party in plan.parties}) == len(plan._first) == 6

    @pytest.mark.parametrize("field, bad, message", [
        ("z", [1.5, 1], "z has 1.5, expected an integer"),
        ("z", [True, 1], "z has True, expected an integer"),
        ("Q", [[1.0], [1]], "Q row 0 has 1.0, expected an integer"),
        ("q0", [0, 0.5], "q0 has 0.5, expected an integer"),
        ("s0", 1.5, "s0 is 1.5, expected an integer"),
        ("n", 1.0, "n is 1.0, expected an integer"),
        ("N", True, "N is True, expected an integer"),
        ("d", 3.0, "d is 3.0, expected an integer"),
        ("d", True, "d is True, expected an integer"),
        ("d", 1, "d is 1, expected an integer >= 2"),
    ], ids=["z-float", "z-bool", "Q-float", "q0-float", "s0-float", "n-float", "N-bool",
            "d-float", "d-bool", "d-one"])
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

    @pytest.mark.parametrize("N, dist, message", [
        (1, [((0,), 0.1), ((1,), 0.9)],
         "probability 0.1 of outcome (0,) for settings (0,) is not an integer or a Fraction"),
        (1, [((0,), True)],
         "probability True of outcome (0,) for settings (0,) is not an integer or a Fraction"),
        (1, [((0,), "1")],
         "probability '1' of outcome (0,) for settings (0,) is not an integer or a Fraction"),
        (1.0, [((0,), 1)], "table N is 1.0, expected an integer"),
    ], ids=["float", "bool", "string", "float-N"])
    def test_table_probabilities_are_exact(self, N, dist, message):
        # the float table passed the sum check as floats, then its stored
        # Fractions summed to 36028797018963969/36028797018963968
        with pytest.raises(QuditMbqcError, match=f"^{re.escape(message)}$"):
            TableResource(N, {(0,): dist})


    @pytest.mark.parametrize("q, message", [
        ((0.5, 7), "table q is (0.5, 7), expected a list of 1 integers"),
        ((0.5,), "table q has 0.5, expected an integer"),
        ((True,), "table q has True, expected an integer"),
        (1, "table q is 1, expected a list of 1 integers"),
    ], ids=["float-and-long", "float", "bool", "not-a-tuple"])
    def test_table_settings_keys_are_n_integers(self, q, message):
        # a key that is not N ints would be saved in a plan file that fails to load
        behavior = {(0,): [((0,), 1)], q: [((1,), 1)]}
        with pytest.raises(QuditMbqcError, match=f"^{re.escape(message)}$"):
            TableResource(1, behavior)


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
        # the arity is named before the count, as for a complete table
        ({(x, 0): 0 for x in range(3)}, "table points have 2 coordinates, expected n = 1"),
        ({(x, y): 0 for x in range(3) for y in range(3)},
         "table points have 2 coordinates, expected n = 1"),
        ({}, "table needs 3 entries, got 0"),
    ], ids=["missing_point", "float_value", "short_two_input", "two_input", "empty"])
    def test_bad_target_value_error(self, target, message):
        # a missing point used to end in a bare KeyError
        plan = compile_general_prime([1, 2, 0]).plan
        with pytest.raises(ValueError, match=re.escape(message)):
            empirical_success(plan, target)

    @pytest.mark.parametrize("target", [{(0,): 1}, {(x,): 1 for x in range(2)}],
                             ids=["incomplete", "complete"])
    def test_wrong_arity_target_names_the_arity(self, target):
        # an incomplete one-input target for the two-input NAND plan said
        # "table needs 2 entries, got 1"
        with pytest.raises(ValueError, match=re.escape("table points have 1 coordinates, expected n = 2")):
            empirical_success(compile_nand().plan, target)

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


def _frozen_ordered_walk(plan: MbqcPlan, i) -> dict[int, Fraction]:
    """output_distribution's ordered walk as it was with a Fraction per
    branch and per merge (its widest-layer refusal left out)."""
    d, z, reads = plan.d, plan.z, plan._reads
    settings = plan._settings(i)
    start, levels = plan._trie
    layer = {(start, (), plan.s0): Fraction(1)}
    for k in range(plan.N):
        level = levels[k]
        merged: dict[tuple, Fraction] = {}
        for (terms, later, part), prob in layer.items():
            q = settings[k]
            if later and later[0][0] == k:
                q, later = (q + later[0][1]) % d, later[1:]
            op = plan._site_ops[plan._site_columns[k] + q]
            branches = states._measurement_branches(d, op, terms, level)
            for m_k, weight, den, rest in branches:
                corrections = later
                if m_k and reads[k]:
                    delta = dict(later)
                    for j, v in reads[k]:
                        delta[j] = (delta.get(j, 0) + v * m_k) % d
                    corrections = tuple(sorted((j, x) for j, x in delta.items() if x))
                key = (rest(), corrections, (part + z[k] * m_k) % d)
                p = Fraction(prob.numerator * weight, prob.denominator * den)
                merged[key] = merged.get(key, 0) + p
        layer = merged
    return {o: p for (_, _, o), p in layer.items()}


def _outcome(walk, plan: MbqcPlan, i):
    """(the law's items in order, None), or (SparseFormError, its message)."""
    try:
        return list(walk(plan, i).items()), None
    except SparseFormError as exc:
        return SparseFormError, str(exc)


def _spy_steps(monkeypatch) -> list[tuple[int, list[int]]]:
    """Records every measurement step of runs and exact walks as (terms of
    the measured state, outcome of each branch)."""
    steps = []
    step = states._measurement_branches

    def spy(d, op, terms, level):
        branches = step(d, op, terms, level)
        steps.append((len(terms), [m for m, _, _, _ in branches]))
        return branches

    monkeypatch.setattr(states, "_measurement_branches", spy)  # measurement_distribution
    monkeypatch.setattr(engine, "_measurement_branches", spy)
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

    @staticmethod
    def _plans():
        """Random flat and ordered GHZ plans, table-resource plans and
        compiled plans, each with and without a q0."""
        rng = random.Random(45)
        plans = [random_ghz_plan(rng, d, N, n, ordered, tau_phased)
                 for d, N, n in ((2, 3, 2), (3, 4, 1), (5, 3, 2), (4, 2, 0))
                 for ordered in (False, True) for tau_phased in (False, True)]
        res = TableResource(2, {q: [(q, Fraction(1, 3)), ((1, q[0]), Fraction(2, 3))]
                                for q in itertools.product(range(2), repeat=2)})
        plans += [MbqcPlan(d=2, n=1, N=2, resource=res,
                           parties=[(WeylLabel(2, (1, 0)), named_clifford(2, "weyl-displacement",
                                                                          x=(0, 0)))] * 2,
                           Q=[[1], [0]], z=[1, 1], s0=1, q0=q0) for q0 in (None, [0, 1])]
        plans += [compile_general_prime([3, 1, 4, 1, 5, 2, 6], 7).plan,
                  compile_odd_ring([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9]).plan, nand_plan()]
        for plan in plans[:]:  # the same plan with q0 dropped, or set where it was all zero
            obj = plan.to_json()
            obj["q0"] = None if any(plan.q0) else [1] * plan.N
            plans.append(MbqcPlan.from_json(obj))
        return plans

    def test_dumps_is_one_json_dumps_of_to_json(self):
        plans = self._plans()
        assert {bool(any(plan.q0)) for plan in plans} == {False, True}
        for plan in plans:
            text = plan.dumps()
            assert text == json.dumps(plan.to_json(), separators=(",", ":")) + "\n"
            assert MbqcPlan.loads(text) == plan

    def test_dumps_holds_one_field_at_a_time(self):
        # the p = 13 file is about 30 KB; one json.dumps of the whole
        # to_json() kept every token until its final join, a 1,059 KiB peak
        plan = compile_general_prime([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9], 13).plan
        plan.dumps()  # every cached property the encoding reads is built
        tracemalloc.start()
        try:
            text = plan.dumps()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == json.dumps(plan.to_json(), separators=(",", ":")) + "\n"
        assert peak < 640 * 2**10, peak

    def test_equal_rows_are_one_tuple(self):
        plan = compile_general_prime([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9], 13).plan
        for each in (plan, MbqcPlan.loads(plan.dumps())):
            assert len({id(r) for r in each.Q}) == len(set(each.Q)) == 12
        for plan in self._plans():
            assert len({id(r) for r in plan.Q}) == len(set(plan.Q))
        rng = random.Random(5)  # 40 rows of two symbols, unreduced, many of them equal
        Q = [[rng.randrange(-3, 6) for _ in range(2)] for _ in range(40)]
        plan = MbqcPlan(d=3, n=2, N=40, resource=basis_state(3, (0,) * 40),
                        parties=[(WeylLabel(3, (1, 0)), named_clifford(3, "weyl-displacement",
                                                                       x=(0, 0)))] * 40,
                        Q=Q, z=[1] * 40, s0=0)
        assert plan.Q == tuple(tuple(v % 3 for v in row) for row in Q)
        assert len({id(r) for r in plan.Q}) == len(set(plan.Q))

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
        # party's Mu as its matrix is written as a reference to that party,
        # and a control is written from its matrix, so both orders save alike
        d = 5
        named = named_clifford(d, "Mu", u=2)
        matrix = CliffordSpec(d, named.C)
        fid = WeylLabel(d, (1, 0))
        saved = [{"fiducial": fid.to_json(), "control": {"named": "Mu", "u": 2}}, 0]
        for parties in ([(fid, named), (fid, matrix)], [(fid, matrix), (fid, named)]):
            plan = MbqcPlan(d=d, n=1, N=2, resource=basis_state(d, (1, 1)),
                            parties=parties, Q=[[1], [1]], z=[1, 1], s0=0)
            assert plan.to_json()["parties"] == saved
            assert MbqcPlan.loads(plan.dumps()) == plan

    def test_a_displaced_named_control_keeps_its_law_through_a_file(self):
        # a named Mu given an x is written as its matrix, so the file keeps
        # the x, and a reloaded plan that compares equal has the same law
        d = 5
        control = dataclasses.replace(named_clifford(d, "Mu", u=2), x=(0, 1))
        plan = MbqcPlan(d=d, n=1, N=1, resource=basis_state(d, (1,)),
                        parties=[(WeylLabel(d, (1, 0)), control)], Q=[[1]], z=[1], s0=0)
        laws = [output_distribution(plan, i) for i in plan.inputs()]
        assert laws == [{o: 1} for o in (1, 2, 0, 4, 1)]
        again = MbqcPlan.loads(plan.dumps())
        assert [output_distribution(again, i) for i in again.inputs()] == laws
        assert again == plan


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

    def test_empty_rows_read_no_key(self, monkeypatch):
        # every flat party's row in a file is {}: it reads as empty without
        # a key check, while a non-empty row still checks each key
        monkeypatch.setattr(engine, "_column", lambda k, key: pytest.fail("key read"))
        assert engine._sparse_rows([{}, {}, {}], 3, 5) == ((), (), ())
        with pytest.raises(pytest.fail.Exception, match="key read"):
            engine._sparse_rows([{}, {}, {"0": 1}], 3, 5)

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

    def test_site_operators_built_once_per_label(self, monkeypatch, tmp_path, capsys):
        from quditmbqc.cli import main
        from quditmbqc.compiler import compile_general_prime

        path = tmp_path / "p7.json"
        compile_general_prime([3, 1, 4, 1, 5, 2, 6], 7).plan.save(path)
        walks, built = [], []
        real, post = engine._orbit, MonomialOp.__post_init__
        monkeypatch.setattr(engine, "_orbit", lambda *args: walks.append(args) or real(*args))
        monkeypatch.setattr(MonomialOp, "__post_init__", lambda op: built.append(op) or post(op))
        assert main(["analyze", "--plan", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["table"] == [3, 1, 4, 1, 5, 2, 6]
        # 7 * 6^2 = 252 parties, but 6 distinct controls: one orbit walk
        # each, and the flat law builds no operator
        assert len(walks) == 6 and built == []
        plan = MbqcPlan.load(path)
        walks.clear()
        ops = {id(plan.site_observable(k, q)) for k in range(plan.N) for q in range(7)}
        # 6 kinds x 7 settings read 6 labels, Z^a for a = 1..6: one operator each
        assert len(walks) == 6 and len(ops) == len(built) == len(plan._ops) == 6
        assert plan.site_observable(5, 3) is plan.site_observable(5 + 6, 3)  # both read u^-6
