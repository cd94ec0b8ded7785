"""Command-line front end.

Subcommands: demo (run a built-in computation and analyze it), compile
(target table -> verified plan file), analyze (inspect a plan file), table
(reference exponent-sum table), verify-all (run the built-in golden suite).

Exit codes: 0 success, 2 compile/parameter error, 3 verification failure,
4 plan parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import compiler as comp
from .engine import MbqcPlan, run
from .errors import PlanFormatError, QuditMbqcError, VerificationError
from .fields import is_prime
from .witnesses import analyze_plan

EXIT_OK = 0
EXIT_COMPILE = 2
EXIT_VERIFY = 3
EXIT_PARSE = 4

DEMO_FLAGS = {"nand": (), "quadratic": ("d",), "exponential": ("d", "u")}  # flags each demo reads


@functools.cache  # one parser per process; each parse_args fills a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditmbqc",
        description="simulate, analyze and compile measurement-based "
                    "computations with Z_d-linear classical control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a built-in computation")
    demo.add_argument("name", choices=list(DEMO_FLAGS))
    demo.add_argument("--d", type=int, default=None,
                      help="qudit dimension (quadratic: default 3, exponential: default 5)")
    demo.add_argument("--u", type=int, default=None,
                      help="multiplier unit (exponential only, default 2)")
    demo.add_argument("--seed", type=int, default=0, help="seed for the simulation cross-check")
    demo.add_argument("--json", action="store_true", dest="as_json")

    compile_p = sub.add_parser("compile", help="compile a single-variable target table")
    compile_p.add_argument("--d", type=int, required=True)
    compile_p.add_argument("--table", required=True, help="comma-separated values m(0),..,m(d-1)")
    compile_p.add_argument("--odd-ring", action="store_true", dest="odd_ring",
                           help="use the 2d-qudit compilation (odd d, composite allowed)")
    compile_p.add_argument("--out", default=None, help="write the verified plan file here")
    compile_p.add_argument("--json", action="store_true", dest="as_json")

    analyze = sub.add_parser("analyze", help="analyze a plan file")
    analyze.add_argument("--plan", required=True)
    analyze.add_argument("--json", action="store_true", dest="as_json")

    table = sub.add_parser("table", help="print reference tables")
    table.add_argument("--appendix-b", action="store_true", dest="exponent_table",
                       required=True, help="the exponent-sum table for prime p")
    table.add_argument("--p", type=int, default=5)

    verify_all = sub.add_parser("verify-all", help="compile and verify the golden suite")
    verify_all.add_argument("--seed", type=int, default=0)

    return parser


def _cross_check(report: comp.CompileReport, seed: int) -> None:
    """Seeded simulation of every input against the verified target table."""
    for i in sorted(report.target):
        if run(report.plan, i, seed).output != report.target[i] % report.plan.d:
            raise VerificationError(f"simulation disagrees with the target at input {i}")


def _print_header(report: comp.CompileReport) -> None:
    print(f"construction: {report.construction}")
    print(f"qudits: {report.qudit_count}")
    print(f"verified: {'true' if report.verified else 'false'}")


def cmd_demo(args) -> int:
    for flag in ("d", "u"):
        if getattr(args, flag) is not None and flag not in DEMO_FLAGS[args.name]:
            print(f"error: --{flag} does not apply to demo {args.name}", file=sys.stderr)
            return EXIT_COMPILE
    try:
        if args.name == "nand":
            report = comp.compile_nand()
        elif args.name == "quadratic":
            report = comp.compile_quadratic(args.d if args.d is not None else 3)
        else:
            report = comp.compile_exponential(args.d if args.d is not None else 5,
                                              args.u if args.u is not None else 2)
        _cross_check(report, args.seed)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except QuditMbqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPILE
    analysis = analyze_plan(report.plan)
    if args.as_json:
        out = {"construction": report.construction, "qudits": report.qudit_count,
               "verified": report.verified, **analysis.to_json(), "simulated": True}
        print(json.dumps(out, separators=(",", ":")))
    else:
        _print_header(report)
        print(analysis.to_text())
    return EXIT_OK


def cmd_compile(args) -> int:
    if args.d < 2:
        print(f"error: --d must be at least 2, got {args.d}", file=sys.stderr)
        return EXIT_COMPILE
    try:
        values = [int(v) for v in args.table.split(",")]
    except ValueError:
        print("error: --table must be comma-separated integers", file=sys.stderr)
        return EXIT_COMPILE
    try:
        if args.odd_ring:
            report = comp.compile_odd_ring(values, args.d)
        elif is_prime(args.d):
            report = comp.compile_general_prime(values, args.d)
        else:
            hint = "use --odd-ring for odd d" if args.d % 2 else "no construction compiles an even d"
            print(f"error: d={args.d} is not prime; {hint}", file=sys.stderr)
            return EXIT_COMPILE
    except VerificationError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except QuditMbqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPILE
    if args.out:
        try:
            report.plan.save(args.out)
        except OSError as exc:
            print(f"error: cannot write plan file {args.out}: {exc}", file=sys.stderr)
            return EXIT_COMPILE
    summary = {
        "construction": report.construction,
        "qudits": report.qudit_count,
        "verified": report.verified,
        "out": args.out,
    }
    if args.as_json:
        print(json.dumps(summary, separators=(",", ":")))
    else:
        _print_header(report)
        if args.out:
            print(f"plan written to {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        plan = MbqcPlan.load(args.plan)
    except FileNotFoundError:
        print(f"error: no such plan file: {args.plan}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read plan file {args.plan}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PlanFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    analysis = analyze_plan(plan)
    if args.as_json:
        print(json.dumps(analysis.to_json(), separators=(",", ":")))
    else:
        print(analysis.to_text())
    return EXIT_OK


def cmd_table(args) -> int:
    p = args.p
    if p > 13 or not is_prime(p) or p == 2:
        print("error: --p must be an odd prime <= 13", file=sys.stderr)
        return EXIT_COMPILE
    u = comp.primitive_element(p)
    labels = [f"u^{k}x" for k in range(1, p)] + [f"sigma_{p}"]
    width = max(len("x"), *(len(lab) for lab in labels))
    print(f"p = {p}, u = {u}")
    print(f"{'x':<{width}} : " + " ".join(str(x) for x in range(p)))
    for k in range(1, p):
        row = [pow(u, k * x, p) for x in range(p)]
        print(f"{labels[k - 1]:<{width}} : " + " ".join(str(v) for v in row))
    sigma = comp.sigma_table(p, u)
    print(f"{labels[-1]:<{width}} : " + " ".join(str(v) for v in sigma))
    return EXIT_OK


def cmd_verify_all(args) -> int:
    jobs = [
        ("nand", comp.compile_nand),
        ("quadratic d=3", lambda: comp.compile_quadratic(3)),
        ("quadratic d=5", lambda: comp.compile_quadratic(5)),
        ("exponential d=3 u=2", lambda: comp.compile_exponential(3, 2)),
        ("exponential d=5 u=2", lambda: comp.compile_exponential(5, 2)),
        ("general p=3 delta", lambda: comp.compile_general_prime([1, 0, 0])),
        ("general p=5 delta", lambda: comp.compile_general_prime([1, 0, 0, 0, 0])),
        ("odd-ring d=9 identity", lambda: comp.compile_odd_ring(list(range(9)))),
    ]
    failures = 0
    for name, job in jobs:
        try:
            _cross_check(job(), args.seed)
            print(f"PASS {name}")
        except QuditMbqcError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "demo": cmd_demo,
        "compile": cmd_compile,
        "analyze": cmd_analyze,
        "table": cmd_table,
        "verify-all": cmd_verify_all,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
