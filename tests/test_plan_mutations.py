"""Property: `analyze` on any single mutation of a valid plan file exits 0
with JSON on stdout, or exits 4; it never raises."""

import contextlib
import copy
import io
import json
import pathlib
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditmbqc.cli import main
from quditmbqc.compiler import compile_general_prime
from quditmbqc.engine import MbqcPlan, TableResource
from quditmbqc.weyl import WeylLabel, named_clifford

GOLDEN = pathlib.Path(__file__).parent / "golden" / "nand_plan.json"
# a flat table-resource plan: two parties whose settings follow the two inputs
TABLE_PLAN = MbqcPlan(
    d=2, n=2, N=2,
    resource=TableResource.deterministic(2, {(a, b): (a * b, 0) for a in range(2) for b in range(2)}),
    parties=[(WeylLabel(2, (1, 0)), named_clifford(2, "weyl-displacement", x=(0, 0)))] * 2,
    Q=[[1, 0], [0, 1]], T=[[0, 0]] * 2, z=[1, 1], s0=0)
BASES = [json.loads(GOLDEN.read_text()), compile_general_prime([1, 0, 2]).plan.to_json(),
         TABLE_PLAN.to_json()]
# one value of every JSON type; a type change draws one whose type differs
OTHER_TYPES = [None, True, 2.0, "2", [], [2], {}]


def _sites(obj, path=()):
    """(path, value) for every value below the root."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _sites(value, path + (key,))


def _mutations(base: int):
    sites = list(_sites(BASES[base]))
    ints = [p for p, v in sites if type(v) is int]
    keys = [p for p, _ in sites if isinstance(p[-1], str)]
    return st.tuples(st.just(base), st.one_of(
        st.tuples(st.just("set"), st.sampled_from(ints), st.integers(-3, 12)),
        st.tuples(st.just("delete"), st.sampled_from(keys), st.none()),
        st.tuples(st.just("set"), st.sampled_from(sites), st.sampled_from(OTHER_TYPES))
        .filter(lambda m: type(m[1][1]) is not type(m[2]))
        .map(lambda m: (m[0], m[1][0], m[2])),
    ))


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(st.integers(0, len(BASES) - 1).flatmap(_mutations))
# one of each kind of failure a sweep of every single mutation found
@example((0, ("set", ("n",), 2.0)))
@example((1, ("set", ("Q", 3, 0), 2.0)))
@example((0, ("set", ("parties", 0, "control", "C", 0), {})))
@example((1, ("set", ("resource",), [])))
@example((1, ("set", ("resource", "terms"), {})))
@example((2, ("set", ("resource", "entries", 3, "q", 1), 12)))
@example((2, ("set", ("resource", "entries", 0, "dist", 0, "m"), "2")))
# malformed T row objects of the compiled plan (12 parties), which exit 4
@example((1, ("set", ("T", 2, "01"), 1)))
@example((1, ("set", ("T", 2, "-1"), 1)))
@example((1, ("set", ("T", 2, " 1"), 1)))
@example((1, ("set", ("T", 2, "1_0"), 1)))
@example((1, ("set", ("T", 2, "2"), 1)))
@example((1, ("set", ("T", 2, "12"), 1)))
@example((1, ("set", ("T", 2, "0"), "1")))
@example((1, ("set", ("T", 2, "0"), None)))
# malformed party references of the compiled plan (parties 2.. name 0 or 1)
@example((1, ("set", ("parties", 5), 7)))
@example((1, ("set", ("parties", 5), 5)))
@example((1, ("set", ("parties", 5), -1)))
@example((1, ("set", ("parties", 0), 0)))
@example((1, ("set", ("parties", 5), True)))
@example((1, ("set", ("parties", 5), 2.0)))
@example((1, ("set", ("parties", 5), "0")))
def test_analyze_exits_0_or_4_on_mutated_plans(mutation):
    code, _ = _analyze_mutated(mutation)
    assert code in (0, 4)


@pytest.mark.parametrize("key, value, message", [
    ("01", 1, "T row 2 has key '01', expected a party number in plain decimal"),
    ("-1", 1, "T row 2 has key '-1'"),
    (" 1", 1, "T row 2 has key ' 1'"),
    ("1_0", 1, "T row 2 has key '1_0'"),
    ("2", 1, "T row 2 reads party 2, which is not earlier"),
    ("12", 0, "T row 2 reads party 12, which is not earlier"),
    ("0", "1", "T row 2 has '1' for party 0, expected an integer"),
    ("0", None, "T row 2 has None for party 0, expected an integer"),
])
def test_malformed_T_row_objects_exit_4(key, value, message):
    code, err = _analyze_mutated((1, ("set", ("T", 2, key), value)))
    assert code == 4
    assert err.startswith(f"error: malformed plan: {message}")


@pytest.mark.parametrize("k, value, message", [
    (5, 7, "party 5 repeats party 7, which is not earlier"),
    (5, 5, "party 5 repeats party 5, which is not earlier"),
    (5, -1, "party 5 repeats party -1, which is not earlier"),
    (0, 0, "party 0 repeats party 0, which is not earlier"),
    (2, True, "party 2 is True, expected a party object or the index of an earlier party"),
    (2, "0", "party 2 is '0', expected a party object or the index of an earlier party"),
    (2, None, "party 2 is None, expected a party object or the index of an earlier party"),
    (2, [0], "party 2 is [0], expected a party object or the index of an earlier party"),
    (2, 0.0, "0.0 is not an integer"),
], ids=["later", "itself", "negative", "first", "true", "string", "null", "list", "float"])
def test_malformed_party_references_exit_4(k, value, message):
    code, err = _analyze_mutated((1, ("set", ("parties", k), value)))
    assert code == 4
    assert err == f"error: malformed plan: {message}\n"


# a JSON true is a Python int, and a vector was once read by its first two
# entries: each of these loaded and analyzed with exit 0
@pytest.mark.parametrize("base, path, value, message", [
    (1, ("parties", 0, "fiducial", "tau_exp"), True, "fiducial tau_exp is True, expected an integer"),
    (1, ("parties", 0, "fiducial", "v"), [1, 0, 0],
     "fiducial v is [1, 0, 0], expected a list of 2 integers"),
    (1, ("parties", 0, "control"), {"C": [[1, 0], [0, 1]], "x": [0, 0, 0], "tau_exp": 0},
     "control x is [0, 0, 0], expected a list of 2 integers"),
    (1, ("parties", 0, "control"), {"C": [[1, 0], [0, True]], "x": [0, 0], "tau_exp": 0},
     "control C row has True, expected an integer"),
    (1, ("parties", 0, "control"), {"C": [[1, 0], [0, 1], [0, 0]], "x": [0, 0], "tau_exp": 0},
     "control C is [[1, 0], [0, 1], [0, 0]], expected 2 rows of 2 integers"),
    (1, ("parties", 0, "control", "u"), True, "control u is True, expected an integer"),
    (1, ("resource", "terms", 0, "ket", 0), True, "resource ket has True, expected an integer"),
    (1, ("resource", "terms", 0, "tau_exp"), True, "resource tau_exp is True, expected an integer"),
    (1, ("T", 2, "0"), True, "T row 2 has True for party 0, expected an integer"),
    (1, ("Q", 3, 0), True, "Q row 3 has True, expected an integer"),
    (1, ("z", 0), True, "z has True, expected an integer"),
    (1, ("q0", 4), False, "q0 has False, expected an integer"),
    (1, ("s0",), True, "s0 is True, expected an integer"),
    (1, ("n",), True, "n is True, expected an integer"),
    (1, ("d",), True, "d is True, expected an integer"),
    (2, ("resource", "entries", 0, "q", 0), False, "table q has False, expected an integer"),
    (2, ("resource", "entries", 0, "dist", 0, "m", 0), False, "outcome (False, 0)"),
    (2, ("resource", "entries", 0, "dist", 0, "den"), True, "table num, den has True, expected an integer"),
], ids=["fiducial_tau_exp", "fiducial_v_long", "control_x_long", "control_C", "control_C_rows",
        "control_u", "ket", "resource_tau_exp", "T_entry", "Q", "z", "q0", "s0", "n", "d", "table_q",
        "table_m", "table_den"])
def test_booleans_and_long_vectors_exit_4(base, path, value, message):
    code, err = _analyze_mutated((base, ("set", path, value)))
    assert code == 4
    assert err.startswith(f"error: malformed plan: {message}")


def _analyze_mutated(mutation) -> tuple[int, str]:
    """The exit code and standard error of analyze on one mutated base plan."""
    base, (action, path, value) = mutation
    obj = copy.deepcopy(BASES[base])
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        plan_file = pathlib.Path(tmp) / "plan.json"
        plan_file.write_text(json.dumps(obj))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--plan", str(plan_file), "--json"])
    if code == 0:
        json.loads(out.getvalue())
    return code, err.getvalue()
