"""Command-line surface.

Subcommands: `invariants` (full report for one diagram), `polys` (a single
polynomial), `decompose` (the brace-monomial parts), and `verify` (the
bundled verification suites).  Exit codes: 0 success, 1 verification
failure, 2 input error (a usage error too), 3 any `skein.ResourceError`:
a resource limit reached, such as the node budget of the HOMFLY or
Dubrovnik descent, however deep the diagram.

`COMMANDS` is the one table of the command line: each command's handler,
whether it reads a diagram, and its options with their kinds.
`parse_args` reads argv against it, and the usage and help text come
from it, so no argument parser is built or imported on start-up.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from .alexander import potential_function
from .diagram import DiagramError, _excerpt, _excerpt_int, braid_closure, parse_braid, parse_pd
from .invariants import build_report
from .skein import ResourceError, conway, homfly, kauffman_f, scope
from .suites import SUITES, run_suites
from .transforms import DEFAULT_CAP, decompose, reduced_polynomial

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# the largest --cap: the series work grows without limit in the cap and
# never reaches a node budget, so a larger one is refused as input
MAX_CAP = 64


def _read_diagram(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    colors = None
    if args.colors:
        try:
            colors = tuple(int(c) for c in args.colors.split(","))
        except ValueError:
            raise DiagramError(
                f"--colors takes comma-separated integers, not {_excerpt(args.colors)}")
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
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            if value is not None and key != "schema":
                print(f"{key}: {value}")
    return EXIT_OK


# --which -> the polynomial of a diagram that `polys` prints; each engine
# is looked up by its name in this module when called, not held
POLYS = {
    "conway": lambda d: conway(d),
    "homfly": lambda d: homfly(d),
    "kauffman": lambda d: kauffman_f(d),
    "omega": lambda d: potential_function(d),
    "nbl": lambda d: reduced_polynomial(decompose(potential_function(d))),
}


def cmd_polys(args) -> int:
    out = POLYS[args.which](_read_diagram(args)).render()
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


# The command line as one table: command -> (handler, help, whether it
# reads an input diagram, {option: (kind, default, help)}).  A kind is
# bool (a flag), str (a text), int (a count >= 0) or the tuple of its
# choices; an option or input still at _REQUIRED after parsing is missing.
_REQUIRED = object()
_INPUT = "diagram file (PD or braid grammar), or - for stdin"
_CAP = {"--cap": (int, DEFAULT_CAP,
                  f"total-degree bound for series, at most {MAX_CAP} (default 12)")}
_COMMON = {
    "--json": (bool, False, "machine-readable output"),
    "--budget": (int, None, "skein node budget of HOMFLY and Dubrovnik/Kauffman "
                            "(default 10^6); nothing else spends it"),
}
_COLORS = {"--colors": (str, None, "comma-separated colors per component")}
_DIAGRAM = {**_COLORS, **_COMMON}
COMMANDS = {
    "invariants": (cmd_invariants, "full invariant report", True, {**_COLORS, **_CAP, **_COMMON}),
    "polys": (cmd_polys, "print one polynomial", True,
              {**_DIAGRAM, "--which": (tuple(POLYS), _REQUIRED, "the polynomial to print")}),
    "decompose": (cmd_decompose, "brace-monomial decomposition parts", True, _DIAGRAM),
    "verify": (cmd_verify, "run the verification suites", False, {
        **_CAP, **_COMMON,
        "--corpus": (str, None, "corpus directory (default: bundled)"),
        "--suite": (tuple(sorted(SUITES)), None, "run a single suite (default: all)")}),
}
_HELP = ("-h", "--help")


def _synopsis(option, kind) -> str:
    if kind is bool:
        return option
    if type(kind) is tuple:
        return f"{option} {{{','.join(kind)}}}"
    return f"{option} {option[2:].upper()}"


def _usage(name) -> str:
    if name is None:
        return "usage: linkinv [-h] {" + ",".join(COMMANDS) + "} ..."
    _, _, takes_input, options = COMMANDS[name]
    words = [_synopsis(option, kind) if default is _REQUIRED else f"[{_synopsis(option, kind)}]"
             for option, (kind, default, _) in options.items()]
    return " ".join([f"usage: linkinv {name} [-h]", *words] + ["input"] * takes_input)


def _help(name) -> str:
    if name is None:
        about = "Exact link invariants from PD codes and braid words."
        rows = [(command, spec[1]) for command, spec in COMMANDS.items()]
    else:
        _, about, takes_input, options = COMMANDS[name]
        rows = [("input", _INPUT)] * takes_input + [("-h, --help", "show this help and exit")]
        rows += [(_synopsis(option, kind), text) for option, (kind, _, text) in options.items()]
    lines = [f"  {left:<22}  {text}" for left, text in rows]
    return "\n".join([_usage(name), "", about, "", *lines])


def _fail(name, message):
    """A usage error: the usage line and `message` on stderr, exit 2."""
    prog = "linkinv" if name is None else f"linkinv {name}"
    print(f"{_usage(name)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT)


def _read(name, names, token):
    """What `token` is among the options `names`, read as argparse reads it:
    (option, its `=` value or None), (None, None) for a positional and
    ("", None) for an unknown option.  A long option may be abbreviated to
    any prefix that names one option only."""
    if token[:1] != "-" or token in ("-", "--"):
        return None, None
    if token in names:
        return token, None
    option, eq, value = token.partition("=")
    if eq and option in names:
        return option, value
    if token.startswith("--"):
        found = [n for n in names if n.startswith(option)]
        if len(found) > 1:
            _fail(name, f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    if re.fullmatch(r"-\d+|-\d*\.\d+", token) or " " in token:  # a negative number is a value
        return None, None
    return "", None


def _flag(name, option, value):
    """Refuse a flag's `=` value, and answer -h/--help."""
    if value is not None:
        shown = "/".join(_HELP) if option in _HELP else option
        _fail(name, f"argument {shown}: ignored explicit argument {value!r}")
    if option in _HELP:
        print(_help(name))
        raise SystemExit(EXIT_OK)


def _value(name, option, kind, text):
    if kind is int:
        try:
            value = int(text)
        except ValueError:
            _fail(name, f"argument {option}: invalid int value: {_excerpt(text)}")
        shown = _excerpt_int(value)
        if value < 0:
            _fail(name, f"argument {option}: cap and budget must be >= 0, got {shown}")
        if option == "--cap" and value > MAX_CAP:
            _fail(name, f"argument {option}: cap must be <= {MAX_CAP}, got {shown}")
        return value
    if kind is not str and text not in kind:
        choices = ", ".join(map(repr, kind))
        _fail(name, f"argument {option}: invalid choice: {text!r} (choose from {choices})")
    return text


def parse_args(argv) -> SimpleNamespace:
    """Read `argv` (without the program name) against `COMMANDS`: the
    command first, then its options and input in any order.  An option
    takes its value as `--opt value` or `--opt=value`, the last repeat
    wins and `--` ends the options.  Every misuse exits 2 through `_fail`
    with argparse's message, found in argparse's order: every token is
    read (an ambiguous prefix fails at once), then the options are taken
    in turn, then what is missing is named, then what is left over."""
    tokens, extras = list(argv), []
    while tokens:  # before the command, only -h/--help is known
        option, value = _read(None, _HELP, tokens[0])
        if option is None:
            break
        if option:
            _flag(None, option, value)
        extras.append(tokens.pop(0))
    if not tokens:
        _fail(None, "the following arguments are required: command")
    name = tokens.pop(0)
    if name not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {name!r} (choose from {choices})")
    fn, _, takes_input, options = COMMANDS[name]
    args = SimpleNamespace(command=name, fn=fn, **{"input": _REQUIRED} if takes_input else {},
                           **{option[2:]: default for option, (_, default, _) in options.items()})
    names = _HELP + tuple(options)
    read = []
    for k, token in enumerate(tokens):
        if token == "--":
            read += [(None, None, rest) for rest in tokens[k + 1:]]
            break
        read.append((*_read(name, names, token), token))
    i = 0
    while i < len(read):
        option, value, token = read[i]
        i += 1
        if option is None and getattr(args, "input", None) is _REQUIRED:
            args.input = token
        elif not option:
            extras.append(token)
        elif option in _HELP or options[option][0] is bool:
            _flag(name, option, value)
            setattr(args, option[2:], True)
        else:
            if value is None:
                if i == len(read) or read[i][0] is not None:
                    _fail(name, f"argument {option}: expected one argument")
                value, i = read[i][2], i + 1
            setattr(args, option[2:], _value(name, option, options[option][0], value))
    missing = [key if key == "input" else "--" + key
               for key, value in vars(args).items() if value is _REQUIRED]
    if missing:
        _fail(name, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _fail(name, "unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        with scope(args.budget):
            return args.fn(args)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DiagramError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
