"""The step memo of MbqcPlan (MbqcPlan._branches): runs and ordered walks
share one kernel result per distinct (site operator, rest terms, trie
level), and a plan whose memo is warm gives the seeded traces, exact laws
and refusals of a plan whose memo stays empty."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc import engine
from quditmbqc.engine import MbqcPlan, output_distribution, run
from quditmbqc.errors import SizeGuardError, SparseFormError
from planlib import ghz_chain, memoless, quadratic_plan, random_ghz_plan


def _spy_kernel(monkeypatch) -> list:
    """Records the memo key of every kernel call of runs and walks, and
    whether the call returned (True) or refused (False)."""
    calls = []
    kernel = engine._measurement_branches

    def spy(d, op, terms, level):
        calls.append([(id(op), id(level), terms), False])
        branches = kernel(d, op, terms, level)
        calls[-1][1] = True
        return branches

    monkeypatch.setattr(engine, "_measurement_branches", spy)
    return calls


def _outcome(call):
    """What call returns, or the type and message of its refusal."""
    try:
        return call()
    except (SparseFormError, SizeGuardError) as exc:
        return type(exc), str(exc)


def _results(plan: MbqcPlan, seeds) -> list:
    """Seeded runs of every input, and an ordered plan's exact laws, in one
    order that interleaves them."""
    out = []
    for i in plan.inputs():
        out += [_outcome(lambda: run(plan, i, seed)) for seed in seeds]
        if not plan.temporally_flat:
            out.append(_outcome(lambda: output_distribution(plan, i)))
    return out


@st.composite
def ghz_plans(draw):
    d = draw(st.sampled_from([2, 3, 4, 5]))
    N = draw(st.integers(1, 5))
    n = draw(st.integers(1, 2))
    ordered, tau_phased = draw(st.booleans()), draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    tag = f"{'ordered' if ordered else 'flat'}, {'tau-phased' if tau_phased else 'stabilizer'}"
    return random_ghz_plan(rng, d, N, n, ordered, tau_phased), tag


def test_warm_plans_give_what_memoless_plans_give(monkeypatch):
    # a cold pass computes each distinct step once and fills the memo, and a
    # warm pass reads it: both give the RunTraces, laws and refusals of a
    # copy that calls the kernel at every step, and a refusing step is met
    # again, never stored
    seen = set()
    calls = _spy_kernel(monkeypatch)

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(ghz_plans(), st.lists(st.integers(0, 2**32), min_size=1, max_size=3))
    def check(case, seeds):
        plan, tag = case
        want = _results(memoless(plan), seeds)
        refused = sum(isinstance(r, tuple) and r[0] is SparseFormError for r in want)
        visits = []
        step = plan._branches
        plan._branches = lambda *args: visits.append(args) or step(*args)
        calls.clear()
        assert _results(plan, seeds) == want
        computed = [key for key, ok in calls if ok]
        assert len(computed) == len(set(computed)) == len(plan._steps)
        assert len(calls) == len(computed) + refused
        if len(visits) > len(calls):
            seen.add("a cold pass shares steps")
        calls.clear()
        assert _results(plan, seeds) == want
        # the warm pass calls the kernel at the refusing steps alone
        assert len(calls) == refused and not any(ok or key in plan._steps for key, ok in calls)
        seen.add(tag)
        if refused:
            seen.add("refused")
            if plan.d == 4 and "tau-phased" in tag:
                seen.add("tau-phased d = 4 refused")

    check()
    assert seen == {"flat, stabilizer", "flat, tau-phased", "ordered, stabilizer",
                    "ordered, tau-phased", "refused", "a cold pass shares steps",
                    "tau-phased d = 4 refused"}


def test_each_distinct_step_calls_the_kernel_once(monkeypatch):
    # the ordered law of a GHZ chain and 20 seeded runs of it repeat a few
    # steps thousands of times: each distinct step is computed once and
    # every result is that of a plan without the memo
    plan = ghz_chain(3, 300)
    want = [output_distribution(memoless(plan), (0,))]
    want += [run(memoless(plan), (0,), seed) for seed in range(20)]
    calls = _spy_kernel(monkeypatch)
    got = [output_distribution(plan, (0,))] + [run(plan, (0,), seed) for seed in range(20)]
    assert got == want
    keys = [key for key, _ in calls]
    assert len(keys) == len(set(keys)) == len(plan._steps) < 60
    assert set(keys) == set(plan._steps)


def test_memo_is_bounded_by_the_branch_budget(monkeypatch):
    # with the budget at 5, the memo is emptied whenever it holds 5 steps,
    # so it never holds more, and every result stays that of a memoless plan
    plans = [quadratic_plan(5), ghz_chain(3, 12)]
    rng = random.Random(7)
    plans += [random_ghz_plan(rng, d, 4, 1, ordered, False) for d in (3, 5) for ordered in (False, True)]
    monkeypatch.setattr(engine, "EXACT_BRANCH_BUDGET", 5)
    emptied = 0
    for plan in plans:
        want = _results(memoless(plan), range(4))
        sizes = []
        kernel = engine._measurement_branches

        def spy(d, op, terms, level):
            sizes.append(len(plan._steps))
            return kernel(d, op, terms, level)

        monkeypatch.setattr(engine, "_measurement_branches", spy)
        for _ in range(2):
            assert _results(plan, range(4)) == want
            assert len(plan._steps) <= 5
        monkeypatch.setattr(engine, "_measurement_branches", kernel)
        assert max(sizes) <= 5
        emptied += 5 in sizes
    assert emptied >= 2
