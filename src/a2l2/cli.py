"""Command line interface: batch verification, object dumps, and the
classified weight list, with exact-rational JSON output.

The parser is the standard library's `argparse`.  Each command imports the
pipeline modules it runs inside its own function, so `classify` loads only
its integer table (`classify`, `affroots`): neither the algebra half
(`checks`, `twzhu`, `vacuum`, `envelope`, `liealg`, `linalg`) nor
`fractions`.

Exit codes: 0 pass, 1 a check failed, 2 usage error, 3 internal error.
As the process's entry point (no `args`), `main` freezes the heap before it
exits with that code: shutdown skips collecting it, and runs atexit as ever.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import NoReturn

from . import _exact_list, level, level_string, validated_rank


def _validated_rank(args: argparse.Namespace) -> int:
    try:
        return validated_rank(args.l)
    except ValueError as exc:
        args.parser.error(str(exc))


def _verify(args: argparse.Namespace) -> int:
    """Run the registered checks and report pass/fail per check."""
    if args.out is not None and os.path.isdir(args.out):
        args.parser.error(f"argument --out: cannot write {args.out!r}: Is a directory")
    from .checks import render_report, run_checks

    if args.checks.strip() == "all":
        ids: str | tuple[str, ...] = "all"
    else:
        ids = tuple(s.strip() for s in args.checks.split(",") if s.strip())
    try:
        report = run_checks(args.l, ids)
    except ValueError as exc:
        args.parser.error(str(exc))
    rendered = render_report(report, args.fmt)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            args.parser.error(f"argument --out: cannot write {args.out!r}: {exc.strerror}")
    else:
        sys.stdout.write(rendered)
    return 0 if report.overall == "pass" else 1


def _dump(args: argparse.Namespace) -> int:
    """Print one of the central symbolic objects in plain text."""
    l = _validated_rank(args)
    from .checks import DUMP_OBJECTS, dump_object

    if args.which not in DUMP_OBJECTS:
        args.parser.error(
            f"argument --object: invalid choice: {args.which!r}"
            f" (choose from {', '.join(DUMP_OBJECTS)})"
        )
    sys.stdout.write(dump_object(l, args.which))
    return 0


# the flags of the text format, in print order; each prints with "-" for "_"
_FLAGS = ("dominant_integral", "admissible", "kw_positive")


def _classify(args: argparse.Namespace) -> int:
    """List the classified highest weights with their status flags."""
    l = _validated_rank(args)
    from .classify import admissibility_table, dominant_integral, eps4, weight_strings

    # every weight lifts to the studied level, whose sum with the dual
    # Coxeter number 2l+1 decides the flag for all of them
    num, den = level(l)
    kw_positive = num + (2 * l + 1) * den > 0
    rows = [
        {
            "weight": name,
            "coroot_values": _exact_list(x, 2),
            "eps_coordinates": _exact_list(eps4(x), 4),
            "dominant_integral": dominant_integral(x),
            "admissible": report.passed,
            "kw_positive": kw_positive,
        }
        for name, (x, report) in zip(weight_strings(l), admissibility_table(l))
    ]
    if args.fmt == "json":
        payload = {"l": l, "level": level_string(l), "weights": rows}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    lines = [f"rank l = {l}, level {level_string(l)}"]
    for row in rows:
        flags = ", ".join(key.replace("_", "-") for key in _FLAGS if row[key])
        lines.append(f"  {row['weight']}  [{flags}]")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _parser(prog_name: str) -> argparse.ArgumentParser:
    def new(factory, *args, **kwargs) -> argparse.ArgumentParser:
        # no abbreviated options and no -h: the accepted input stays exact
        parser = factory(*args, allow_abbrev=False, add_help=False, **kwargs)
        parser.add_argument("--help", action="help", help="Show this message and exit.")
        return parser

    parser = new(
        argparse.ArgumentParser,
        prog=prog_name,
        description="Exact verification of the twisted highest-weight classification.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, run) -> argparse.ArgumentParser:
        sub = new(commands.add_parser, name, help=run.__doc__, description=run.__doc__)
        sub.add_argument("--l", type=int, required=True, help="Rank l of so(2l+1).")
        sub.set_defaults(run=run, parser=sub)
        return sub

    verify = command("verify", _verify)
    verify.add_argument("--checks", default="all", help="Comma-separated ids, or 'all'.")
    verify.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    verify.add_argument("--out", help="Write the report to a file instead of stdout.")
    dump = command("dump", _dump)
    dump.add_argument("--object", dest="which", metavar="OBJECT", required=True)
    classify = command("classify", _classify)
    classify.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    return parser


def main(args: list[str] | None = None, prog_name: str = "a2l2") -> NoReturn:
    """Parse `args` (default: sys.argv[1:]), run the command, exit with its
    code.  In-process callers pass `args` and keep a collectable heap."""
    parsed = _parser(prog_name).parse_args(args)
    try:
        code = parsed.run(parsed)
    except Exception as exc:
        print(f"Error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 3
    if args is None:
        gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
