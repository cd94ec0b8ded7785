"""The step memo of MbqcPlan (MbqcPlan._branches): runs and ordered walks
share one kernel result per distinct (site operator, rest terms, trie
level), with its draw table and each rest built once, and a plan whose
memo is warm gives the seeded traces, exact laws, refusals and rests of a
plan whose memo stays empty."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmbqc import engine, states
from quditmbqc.engine import MbqcPlan, output_distribution, run
from quditmbqc.errors import SizeGuardError, SparseFormError
from planlib import ghz_chain, memoless, mermin_plan, quadratic_plan, random_ghz_plan


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


def _spy_rests(monkeypatch) -> list:
    """Records every rest a memo entry hands to a run or a walk, in order."""
    handed = []
    rest = engine._Step.rest

    def spy(entry, j):
        handed.append(rest(entry, j))
        return handed[-1]

    monkeypatch.setattr(engine._Step, "rest", spy)
    return handed


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
    calls, handed = _spy_kernel(monkeypatch), _spy_rests(monkeypatch)

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(ghz_plans(), st.lists(st.integers(0, 2**32), min_size=1, max_size=3))
    def check(case, seeds):
        plan, tag = case
        handed.clear()
        want = _results(memoless(plan), seeds)
        want_rests = handed[:]
        refused = sum(isinstance(r, tuple) and r[0] is SparseFormError for r in want)
        visits = []
        step = plan._branches
        plan._branches = lambda *args: visits.append(args) or step(*args)
        calls.clear()
        handed.clear()
        assert _results(plan, seeds) == want
        assert handed == want_rests
        computed = [key for key, ok in calls if ok]
        assert len(computed) == len(set(computed)) == len(plan._steps)
        assert len(calls) == len(computed) + refused
        if len(visits) > len(calls):
            seen.add("a cold pass shares steps")
        calls.clear()
        handed.clear()
        assert _results(plan, seeds) == want
        assert handed == want_rests
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
    # with the budget at 5, the memo is emptied before its entries and its
    # distinct rests together pass 5, so they never do, and every result
    # and every rest handed out stays that of a memoless plan
    handed = _spy_rests(monkeypatch)
    plans = [quadratic_plan(5), ghz_chain(3, 12)]
    rng = random.Random(7)
    plans += [random_ghz_plan(rng, d, 4, 1, ordered, False) for d in (3, 5) for ordered in (False, True)]
    monkeypatch.setattr(engine, "EXACT_BRANCH_BUDGET", 5)
    emptied = 0
    for plan in plans:
        handed.clear()
        want = _results(memoless(plan), range(4))
        want_rests = handed[:]
        calls = []
        kernel = engine._measurement_branches

        def spy(d, op, terms, level):
            memo = plan._steps
            assert len(memo) + len(memo.shared) <= 5
            calls.append(1)
            return kernel(d, op, terms, level)

        monkeypatch.setattr(engine, "_measurement_branches", spy)
        for _ in range(2):
            handed.clear()
            assert _results(plan, range(4)) == want
            assert handed == want_rests
            assert len(plan._steps) + len(plan._steps.shared) <= 5
        monkeypatch.setattr(engine, "_measurement_branches", kernel)
        emptied += len(calls) > len(plan._steps)  # every call stores its entry
    assert emptied >= 2


def test_equal_rests_are_one_object():
    # different steps leave equal rests; the memo hands out one object for
    # each value, the one its shared table holds, and the runs stay those
    # of a memoless plan
    plan = quadratic_plan(7)
    want = _results(memoless(plan), range(10))
    assert _results(plan, range(10)) == want
    memo = plan._steps
    rests = [rest for entry in memo.values() for rest in entry.rests if rest is not None]
    assert len(rests) > len(memo.shared) == len(set(rests)) == len({id(rest) for rest in rests})
    assert all(memo.shared[rest] is rest for rest in rests)


def test_warm_runs_build_each_rest_once_per_entry(monkeypatch):
    # a rest is built at the first run that draws its branch, or walk that
    # visits it, and kept in its memo entry: runs of GHZ plans, one ordered
    # (with its laws) and one flat, call _phased_rest at most once per
    # (entry, branch), and a second pass builds no rest and makes no draw
    # table; both passes give the runs and laws of a memoless plan
    built = []
    phased = states._phased_rest

    def counting(period, group, m):
        built.append((id(group), m))
        return phased(period, group, m)

    tables = []
    tabulate = engine._draw_table
    monkeypatch.setattr(engine, "_draw_table", lambda branches: tables.append(1) or tabulate(branches))
    for plan in (ghz_chain(3, 6), mermin_plan(3, 4)):
        want = _results(memoless(plan), range(6))
        monkeypatch.setattr(states, "_phased_rest", counting)
        built.clear()
        tables.clear()
        assert _results(plan, range(6)) == want
        entries = plan._steps.values()
        assert 0 < len(built) == len(set(built)) <= sum(len(entry.branches) for entry in entries)
        assert len(tables) == sum(entry.table is not None for entry in entries)
        cold = len(built)
        tables.clear()
        assert _results(plan, range(6)) == want
        assert len(built) == cold and tables == []
        monkeypatch.setattr(states, "_phased_rest", phased)
