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
def test_analyze_exits_0_or_4_on_mutated_plans(mutation):
    base, (action, path, value) = mutation
    obj = copy.deepcopy(BASES[base])
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        plan_file = pathlib.Path(tmp) / "plan.json"
        plan_file.write_text(json.dumps(obj))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["analyze", "--plan", str(plan_file), "--json"])
    assert code in (0, 4)
    if code == 0:
        json.loads(out.getvalue())
