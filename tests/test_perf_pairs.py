"""tools/perf_pairs.py judges paired benchmark runs by the gain rule and
each metric's bound, and refuses runs that are incorrect or failed an op."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perf_pairs", ROOT / "tools" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_s.tail", "unit": "s", "better": "lower", "bound": 0.25},
]


def _line(ops_per_s, tail, correct=True, failed=0):
    """A result line as perfbench/run.py prints it last."""
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_s.tail": {"value": tail, "unit": "s"}}})


def _rows(parent, change):
    return {r["name"]: r for r in perf_pairs.summarize(
        [json.loads(_line(*v)) for v in parent], [json.loads(_line(*v)) for v in change], END_TO_END)}


def test_a_clear_gain_meets_the_rule():
    parent = [(1000 + 10 * i, 0.004) for i in range(10)]  # IQR 45
    change = [(1100 + 10 * i, 0.004) for i in range(10)]
    rows = _rows(parent, change)
    ops = rows["ops_per_s"]
    assert ops["parent"] == (1022.5, 1045.0, 1067.5) and ops["change"][1] == 1145.0
    assert (ops["wins"], ops["pairs"], ops["gain"], ops["within_bound"]) == (10, 10, True, True)
    tail = rows["op_s.tail"]  # equal in every pair: no wins, no gain, within the bound
    assert (tail["wins"], tail["gain"], tail["within_bound"], tail["relative"]) == (0, False, True, 0.0)


def test_eight_wins_or_a_gap_inside_the_spread_is_no_gain():
    parent = [(1000 + 10 * i, 0.004) for i in range(10)]
    lost_two = [(1100 + 10 * i if i < 8 else 900, 0.004) for i in range(10)]
    assert _rows(parent, lost_two)["ops_per_s"]["wins"] == 8
    assert not _rows(parent, lost_two)["ops_per_s"]["gain"]
    small = [(1001 + 10 * i, 0.004) for i in range(10)]  # wins 10/10 by 1, IQR 45
    assert _rows(parent, small)["ops_per_s"]["wins"] == 10
    assert not _rows(parent, small)["ops_per_s"]["gain"]


def test_a_lower_is_better_metric_past_its_bound_is_worse():
    parent = [(1000, 0.004)] * 10
    slower = [(1000, 0.0051)] * 10  # +27.5 %
    tail = _rows(parent, slower)["op_s.tail"]
    assert (tail["wins"], tail["gain"], tail["within_bound"]) == (0, False, False)
    faster = [(1000, 0.003)] * 10
    tail = _rows(parent, faster)["op_s.tail"]
    assert (tail["wins"], tail["gain"], tail["within_bound"]) == (10, True, True)
    assert "WORSE" in perf_pairs.report(list(_rows(parent, slower).values()))


def test_incorrect_or_failed_runs_are_not_sound():
    assert perf_pairs.run_sound(json.loads(_line(1000, 0.004)))
    assert not perf_pairs.run_sound(json.loads(_line(1000, 0.004, correct=False)))
    assert not perf_pairs.run_sound(json.loads(_line(1000, 0.004, failed=1)))
    assert not perf_pairs.run_sound(None)  # no result line


CANNED = """workload compile_prime  seed 11  trace 0
ops: 33 in the list, 1 pass(es) in 0.153 s; timings are each op's median pass at the reference pace
  malformed.d_zero                1 ops     0.0004 s  median 0.00036 s
  odd21                           9 ops     0.0126 s  median 0.00135 s
  prime7                          8 ops     0.0198 s  median 0.00228 s
compile_s.p50 0.000612 s (26 samples, as measured)
ops_per_s 496.5 1/s
"""


def test_kind_medians_are_read_from_the_per_kind_lines():
    assert perf_pairs.kind_medians(CANNED) == {
        "malformed.d_zero": 0.00036, "odd21": 0.00135, "prime7": 0.00228}
    assert perf_pairs.kind_medians("ops_per_s 496.5 1/s\n") == {}


def test_kind_report_gives_each_sides_median_per_kind():
    parent = [{"kinds": {"odd21": v, "prime7": 0.002}} for v in (0.0010, 0.0012, 0.0020)]
    change = [{"kinds": {"odd21": v, "prime7": 0.002}} for v in (0.0009, 0.0006, 0.0030)]
    lines = perf_pairs.kind_report(parent, change).splitlines()
    assert lines[0].split() == ["op", "kind", "parent", "median", "change", "median", "change"]
    assert lines[1].split() == ["odd21", "0.0012", "0.0009", "-25.0%"]
    assert lines[2].split() == ["prime7", "0.002", "0.002", "+0.0%"]
