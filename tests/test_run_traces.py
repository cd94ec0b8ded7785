"""Seeded run traces against tests/golden/run_traces.json.

Each line of the golden file is one seeded `run`: the plan, input and seed,
then the settings, outcomes and output, or the error the run raised.  The
file pins how `run` consumes its random stream, so a change to the
measurement step that draws differently shows here.  To rewrite it after a
deliberate change: PYTHONPATH=src:tests python tests/test_run_traces.py
"""

import json
import pathlib
import random

from quditmbqc import compiler
from quditmbqc.engine import run
from quditmbqc.errors import QuditMbqcError
from planlib import random_ghz_plan

GOLDEN = pathlib.Path(__file__).parent / "golden" / "run_traces.json"


def _plans():
    """(name, plan) of every traced plan, the same on every call."""
    rng = random.Random(1313)
    yield "nand", compiler.compile_nand().plan
    yield "quadratic3", compiler.compile_quadratic(3).plan
    for name, build, d in [("prime5", compiler.compile_general_prime, 5),
                           ("prime7", compiler.compile_general_prime, 7),
                           ("odd15", compiler.compile_odd_ring, 15)]:
        yield name, build([rng.randrange(d) for _ in range(d)], d).plan
    for d in (2, 3, 4, 5):
        for tau_phased in (False, True):
            for ordered in (False, True):
                for c in range(3):
                    N, n = rng.randrange(2, 5), rng.choice([1, 2])
                    name = (f"ghz{d}.{'tau' if tau_phased else 'quad'}"
                            f".{'ordered' if ordered else 'flat'}.{c}")
                    yield name, random_ghz_plan(rng, d, N, n, ordered, tau_phased)


def trace_lines() -> str:
    lines = []
    for name, plan in _plans():
        inputs = plan.inputs()[:8]
        for i in inputs:
            for seed in range(3):
                rec = {"plan": name, "input": list(i), "seed": seed}
                try:
                    tr = run(plan, i, seed)
                    rec.update(settings=list(tr.settings), outcomes=list(tr.outcomes),
                               output=tr.output)
                except QuditMbqcError as exc:
                    rec["error"] = f"{type(exc).__name__}: {exc}"
                lines.append(json.dumps(rec, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def test_seeded_runs_reproduce_golden_traces():
    assert trace_lines() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(trace_lines(), encoding="utf-8")
