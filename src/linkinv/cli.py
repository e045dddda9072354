"""Command-line surface.

Subcommands: `invariants` (full report for one diagram), `polys` (a single
polynomial), `decompose` (the brace-monomial parts), and `verify` (the
bundled verification suites).  Exit codes: 0 success, 1 verification
failure, 2 input error, 3 resource cap exceeded (the node budget of the
HOMFLY or Dubrovnik descent, however deep the diagram).
"""

from __future__ import annotations

import argparse
import json
import sys

from .alexander import potential_function
from .diagram import DiagramError, braid_closure, parse_braid, parse_pd
from .invariants import build_report
from .skein import SkeinBudgetError, conway, homfly, kauffman_f, scope
from .suites import SUITES, run_suites
from .transforms import DEFAULT_CAP, decompose, reduced_polynomial

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _read_diagram(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    colors = None
    if args.colors:
        colors = tuple(int(c) for c in args.colors.split(","))
    if text.lstrip().startswith("braid("):
        d = braid_closure(parse_braid(text), colors=colors)
    else:
        d = parse_pd(text)
        if colors:
            d = d.recolor(colors)
    return d


def cmd_invariants(args) -> int:
    d = _read_diagram(args)
    report = build_report(d, args.cap)
    if args.json:
        print(report.to_json())
    else:
        data = report.to_json_dict()
        for key, value in data.items():
            if value is None or key == "schema":
                continue
            print(f"{key}: {value}")
    return EXIT_OK


def cmd_polys(args) -> int:
    d = _read_diagram(args)
    if args.which == "conway":
        out = conway(d).render()
    elif args.which == "homfly":
        out = homfly(d).render()
    elif args.which == "kauffman":
        out = kauffman_f(d).render()
    elif args.which == "omega":
        out = potential_function(d).render()
    elif args.which == "nbl":
        out = reduced_polynomial(decompose(potential_function(d))).render()
    else:  # pragma: no cover - argparse restricts choices
        raise DiagramError(f"unknown polynomial {args.which}")
    if args.json:
        print(json.dumps({"schema": "linkinv-poly-1", "which": args.which, "value": out}))
    else:
        print(out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    d = _read_diagram(args)
    dec = decompose(potential_function(d))
    payload = {
        "schema": "linkinv-decomposition-1",
        "colors": dec.n,
        "parts": {
            "{" + ",".join(map(str, sorted(s))) + "}": poly.render()
            for s, poly in sorted(dec.parts.items(), key=lambda kv: sorted(kv[0]))
        },
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload["parts"].items():
            print(f"P{key}: {value}")
        if not payload["parts"]:
            print("P{}: 0")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else None
    checks = run_suites(names, corpus_path=args.corpus, cap=args.cap)
    failed = [c for c in checks if not c.passed]
    if args.json:
        print(json.dumps({
            "schema": "linkinv-verify-1",
            "total": len(checks),
            "failed": len(failed),
            "checks": [{"suite": c.suite, "name": c.name,
                        "passed": c.passed, "detail": c.detail}
                       for c in checks],
        }, indent=2))
    else:
        for c in checks:
            print(c.line())
        print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"cap and budget must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkinv",
        description="Exact link invariants from PD codes and braid words.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="diagram file (PD or braid grammar), or - for stdin")
            p.add_argument("--colors", help="comma-separated colors per component")
        p.add_argument("--cap", type=nonnegative_int, default=DEFAULT_CAP,
                       help="total-degree bound for series (default 12)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--budget", type=nonnegative_int, default=None,
                       help="skein node budget of HOMFLY and Dubrovnik/Kauffman "
                            "(default 10^6); nothing else spends it")

    p = sub.add_parser("invariants", help="full invariant report")
    add_common(p)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("polys", help="print one polynomial")
    add_common(p)
    p.add_argument("--which", required=True,
                   choices=["conway", "homfly", "kauffman", "omega", "nbl"])
    p.set_defaults(fn=cmd_polys)

    p = sub.add_parser("decompose", help="brace-monomial decomposition parts")
    add_common(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="run the verification suites")
    add_common(p, with_input=False)
    p.add_argument("--corpus", default=None, help="corpus directory (default: bundled)")
    p.add_argument("--suite", default=None, choices=sorted(SUITES),
                   help="run a single suite (default: all)")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with scope(args.budget):
            return args.fn(args)
    except SkeinBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DiagramError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
