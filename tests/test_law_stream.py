"""The law stream, engine._laws, against a frozen copy of the one-input
flat law it replaced: one _flat_labels call for the one input, its
_eigenphases verdict, then the moment sum over the kets W^j psi shares
with psi.  output_distribution, _point_table and empirical_success all
read the stream, chunk by chunk, and must give that law, that point table
and those scores on every input, and refuse the same first irrational
input, wherever it falls in its chunk and whatever the chunk size."""

import random
import re
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from planlib import mermin_plan, random_ghz_plan
from quditmbqc import engine
from quditmbqc.engine import (MbqcPlan, _point_table, empirical_success, is_deterministic,
                              output_distribution)
from quditmbqc.errors import SparseFormError
from quditmbqc.phases import _as_integer, _reduce, _tau_sum, tau_period
from quditmbqc.states import SparseState
from quditmbqc.weyl import WeylLabel, named_clifford


def _frozen_law(plan, i):
    """The exact law of input i on a flat quantum plan, one input per
    _flat_labels call, as output_distribution computed it before the
    stream."""
    labels = engine._flat_labels(plan, [i])
    (o,) = engine._eigenphases(plan, *labels)
    if o is not None:
        return {o: Fraction(1)}
    d, P, s0, f = plan.d, tau_period(plan.d), plan.s0, plan._flat
    A1, A2, AX, beta = int(labels[0][0]), int(labels[1][0]), labels[2][0].tolist(), labels[3][0]
    terms = [(j, f.taus[r] - f.taus[f.row_of[ket]] + j * A1 + j * j * A2 + 2 * j * (AX[r] + s0))
             for j in range(d) for r, ket in enumerate(map(tuple, ((f.kets + j * beta) % d).tolist()))
             if ket in f.row_of]
    weights = [_as_integer(_reduce(_tau_sum([e - 2 * j * o for j, e in terms], P), P)) for o in range(d)]
    if None in weights:
        raise SparseFormError(f"output law at input {i} has an irrational probability")
    return {o: Fraction(w, d * len(f.taus)) for o, w in enumerate(weights) if w}


def _frozen_laws(plan):
    """Each input's frozen law, or the SparseFormError it raised."""
    out = []
    for i in plan.inputs():
        try:
            out.append(_frozen_law(plan, i))
        except SparseFormError as exc:
            out.append(exc)
    return out


def _refused(error):
    return pytest.raises(SparseFormError, match=f"^{re.escape(str(error))}$")


def _check_stream(plan, rng):
    """output_distribution, _point_table and empirical_success against the
    frozen laws of plan; the frozen laws are returned."""
    inputs, laws = plan.inputs(), _frozen_laws(plan)
    for i, want in zip(inputs, laws):
        if isinstance(want, SparseFormError):
            with _refused(want):
                output_distribution(plan, i)
        else:
            assert output_distribution(plan, i) == want, i
    points = [next(iter(law)) if isinstance(law, dict) and len(law) == 1 else None for law in laws]
    assert _point_table(plan) == (None if None in points else dict(zip(inputs, points)))
    target = {i: rng.randrange(plan.d) for i in inputs}
    errors = [law for law in laws if isinstance(law, SparseFormError)]
    if errors:
        with _refused(errors[0]):
            empirical_success(plan, target)
    else:
        scores = [law.get(target[i], Fraction(0)) for i, law in zip(inputs, laws)]
        assert empirical_success(plan, target) == (min(scores), sum(scores, Fraction(0)) / len(scores))
    return laws


# _FLAT_CHUNK is counted in (input, party) pairs: 1 and 3 give one input a
# chunk on these plans (N >= 2), "3 inputs" three, and the default all of them
CHUNKS = {"1": lambda N: 1, "3": lambda N: 3, "3 inputs": lambda N: 3 * N,
          "default": lambda N: engine._FLAT_CHUNK}


@pytest.mark.parametrize("chunk", list(CHUNKS))
@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(st.integers(0, 2**32), st.integers(2, 7), st.integers(2, 4), st.integers(0, 2), st.booleans())
def test_stream_matches_frozen_law(chunk, seed, d, N, n, tau_phased):
    rng = random.Random(seed)
    plan = random_ghz_plan(rng, d, N, n, False, tau_phased)
    with mock.patch.object(engine, "_FLAT_CHUNK", CHUNKS[chunk](N)):
        _check_stream(plan, rng)


def _late_irrational_plans():
    """Seeded tau-phased GHZ plans at d = 4..7 whose first irrational input
    is not their first input, with the index of that input."""
    for seed in range(120):
        plan = random_ghz_plan(random.Random(seed), 4 + seed % 4, 3, 2, False, True)
        first = next((k for k, law in enumerate(_frozen_laws(plan))
                      if isinstance(law, SparseFormError)), None)
        if first:
            yield plan, first


@pytest.mark.parametrize("chunk", list(CHUNKS))
def test_refusal_names_the_first_irrational_input_anywhere_in_its_chunk(chunk):
    # on one chunk of three inputs or of all inputs, the irrational input
    # often sits behind inputs of its own chunk, spread or not
    middle = 0
    for plan, first in _late_irrational_plans():
        step = max(1, CHUNKS[chunk](plan.N) // plan.N)
        middle += first % step > 0
        with mock.patch.object(engine, "_FLAT_CHUNK", CHUNKS[chunk](plan.N)):
            _check_stream(plan, random.Random(first))
    assert middle > 10 or chunk in ("1", "3")


def _irrational_plan():
    # (|0> + |1>)/sqrt(2) measured in X at d=5 has P(o) = (1 + cos(2 pi o/5))/5
    d = 5
    return MbqcPlan(d=d, n=1, N=1, resource=SparseState(d, 1, ((0, (0,)), (0, (1,)))),
                    parties=[(WeylLabel(d, (0, 1)), named_clifford(d, "weyl-displacement", x=(0, 0)))],
                    Q=[[0]], T=[[0]], z=[1], s0=0)


@pytest.mark.parametrize("chunk", [1, 3, None])
def test_irrational_law_is_still_not_deterministic(chunk):
    plan = _irrational_plan()
    with mock.patch.object(engine, "_FLAT_CHUNK", chunk or engine._FLAT_CHUNK):
        assert not is_deterministic(plan)
        with _refused("output law at input (0,) has an irrational probability"):
            output_distribution(plan, (0,))


class _Spy:
    """Wraps engine.<name>, counting its calls."""

    def __init__(self, monkeypatch, name):
        self.calls, real = 0, getattr(engine, name)

        def spy(*args):
            self.calls += 1
            return real(*args)

        monkeypatch.setattr(engine, name, spy)


@pytest.mark.parametrize("d, N, chunk", [(2, 12, None), (2, 5, 1), (3, 4, 10), (2, 3, 7)])
def test_empirical_success_makes_one_label_call_per_chunk(monkeypatch, d, N, chunk):
    plan = mermin_plan(d, N)
    if chunk is not None:
        monkeypatch.setattr(engine, "_FLAT_CHUNK", chunk)
    step = max(1, engine._FLAT_CHUNK // N)
    spread = sum(len(law) > 1 for law in _frozen_laws(plan))
    labels, sums = _Spy(monkeypatch, "_flat_labels"), _Spy(monkeypatch, "_tau_sum")
    empirical_success(plan, {i: 0 for i in plan.inputs()})
    assert labels.calls == -(-d**N // step)
    # the moment sum, one _tau_sum per outcome, runs for the spread inputs alone
    assert sums.calls == d * spread > 0


@pytest.mark.parametrize("plan", [mermin_plan(2, 4), mermin_plan(3, 3), _irrational_plan()],
                         ids=["mermin2.4", "mermin3.3", "irrational"])
def test_point_table_reads_no_law(monkeypatch, plan):
    laws = _Spy(monkeypatch, "_spectral_law")
    monkeypatch.setattr(engine, "_FLAT_CHUNK", 1)  # every chunk until the first spread one
    assert _point_table(plan) is None
    assert laws.calls == 0


def test_output_distribution_makes_one_label_call(monkeypatch):
    plan = mermin_plan(2, 12)
    labels = _Spy(monkeypatch, "_flat_labels")
    for i in [(0,) * 12, (1,) + (0,) * 11]:  # a point mass, then a spread law
        output_distribution(plan, i)
    assert labels.calls == 2


@pytest.mark.parametrize("N, points", [(3, 4), (4, 8), (5, 16), (6, 32)])
def test_mermin_baseline_read_off_the_stream(N, points):
    # Mermin's GHZ paradox at d = 2: an input of even weight w gives the
    # point mass at w/2 mod 2, and every other input the uniform law
    plan = mermin_plan(2, N)
    sure = {}
    for chunk, outs, law in engine._laws(plan, plan.inputs()):
        for r, (i, o) in enumerate(zip(chunk, outs)):
            if o is None:
                assert law(r) == {0: Fraction(1, 2), 1: Fraction(1, 2)}, i
            else:
                assert law(r) == {o: 1}
                sure[i] = o
    assert len(sure) == points
    assert sure == {i: sum(i) // 2 % 2 for i in plan.inputs() if sum(i) % 2 == 0}
