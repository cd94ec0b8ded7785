"""Run a parent and a change checkout's benchmark in alternating pairs and
judge every end-to-end metric that BENCHMARK.json declares.

    python3 tools/perf_pairs.py PARENT CHANGE --workload W --seed S --pairs N

PARENT and CHANGE are two checkouts of this repository.  Each pair runs
`perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0`
once in each checkout, one after the other; the parent goes first in
even pairs and the change in odd ones, so a drift of the host's pace
falls on both sides alike.  The metric list, each metric's direction and
its bound, and the run length are read from the parent's BENCHMARK.json,
which a change may not edit.

For each metric it prints each side's median and quartiles (linear
interpolation between the sorted runs), the pairs the change won (a tie
counts for neither side), the change's median against the parent's, and
two verdicts:

  gain   the change won at least 9 of every 10 pairs and its median is
         better than the parent's by more than the parent's quartile
         spread (Q3 - Q1);
  bound  the change's median is no worse than the parent's by more than
         the metric's bound, a fraction of the parent's median.

Then it prints each op kind's median for each side: the median over a
side's runs of the kind's median op time, read from the per-kind lines
that perfbench/run.py prints, so a change shows which kinds moved.

It exits 1 when any run failed to give a result line, read incorrect, or
had a failed operation; otherwise 0, whatever the verdicts.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path


# a per-kind line of perfbench/run.py: "  odd21    9 ops  0.0126 s  median 0.00135 s"
KIND_LINE = re.compile(r"^\s+(\S+)\s+\d+ ops\s+\S+ s\s+median (\S+) s$")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The JSON result line of one benchmark run in a checkout, with the
    run's median op time per op kind under "kinds", or None when the run
    printed no result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        return None
    if isinstance(result, dict):
        result["kinds"] = kind_medians(proc.stdout)
    return result


def kind_medians(stdout: str) -> dict[str, float]:
    """Each op kind's median op time, in seconds, from a run's per-kind lines."""
    return {m[1]: float(m[2]) for m in map(KIND_LINE.match, stdout.splitlines()) if m}


def run_sound(result: dict | None) -> bool:
    """Whether a run gave a result that is correct and has no failed op."""
    return result is not None and result.get("correct") is True and result.get("failed") == 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Q1, the median and Q3, interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One verdict row per end-to-end metric, from the result lines of the
    parent's and the change's runs, listed pair by pair (parent[i] and
    change[i] ran as pair i), and the metric entries of BENCHMARK.json."""
    rows = []
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        sign = 1 if higher else -1  # sign * (b - a) > 0: the change is better
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        pa, pb = quartiles(a), quartiles(b)
        gap = sign * (pb[1] - pa[1])  # > 0: the change's median is better
        rows.append({
            "name": name, "unit": spec["unit"], "parent": pa, "change": pb,
            "wins": wins, "pairs": len(a),
            "relative": (pb[1] - pa[1]) / pa[1] if pa[1] else 0.0,
            "gain": 10 * wins >= 9 * len(a) and gap > pa[2] - pa[0],
            "within_bound": -gap <= spec["bound"] * abs(pa[1]),
        })
    return rows


def report(rows: list[dict]) -> str:
    """The verdict rows as a text table."""
    def spread(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    lines = [f"{'metric':<12} {'unit':<5} {'parent median [Q1, Q3]':<34} "
             f"{'change median [Q1, Q3]':<34} {'wins':>6} {'change':>8}  gain  bound"]
    for r in rows:
        lines.append(f"{r['name']:<12} {r['unit']:<5} {spread(r['parent']):<34} "
                     f"{spread(r['change']):<34} {r['wins']:>3}/{r['pairs']:<2} "
                     f"{r['relative']:>+8.1%}  {'yes' if r['gain'] else 'no':<4}  "
                     f"{'ok' if r['within_bound'] else 'WORSE'}")
    return "\n".join(lines)


def kind_report(parent: list[dict], change: list[dict]) -> str:
    """Each op kind's median over a side's runs of its per-run median, for
    both sides, and the change's against the parent's, as a text table."""
    lines = [f"{'op kind':<28} {'parent median':>14} {'change median':>14} {'change':>8}"]
    for kind in sorted({kind for run in parent + change for kind in run["kinds"]}):
        a, b = ([run["kinds"][kind] for run in side if kind in run["kinds"]] for side in (parent, change))
        pa, pb = (statistics.median(v) if v else float("nan") for v in (a, b))
        lines.append(f"{kind:<28} {pa:>14.6g} {pb:>14.6g} {(pb - pa) / pa if pa else 0.0:>+8.1%}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {"parent": [], "change": []}
    sound = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, args.seed, spec["run_seconds"])
            if not run_sound(result):
                sound = False
                print(f"pair {i}: the {side} run failed or read incorrect: {result}", file=sys.stderr)
            runs[side].append(result)
        print(f"pair {i} done ({' first, '.join(order)} second)", file=sys.stderr, flush=True)
    if not sound:
        return 1
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {spec['run_seconds']:g} --trace 0")
    print(report(summarize(runs["parent"], runs["change"], spec["end_to_end"])))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        pairs = (f"{p['metrics'][name]['value']:.6g}/{c['metrics'][name]['value']:.6g}"
                 for p, c in zip(runs["parent"], runs["change"]))
        print(f"{name} by pair (parent/change): {', '.join(pairs)}")
    print(kind_report(runs["parent"], runs["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
