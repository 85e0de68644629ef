"""Command line interface: batch verification, object dumps, and the
classified weight list, with exact-rational JSON output."""

from __future__ import annotations

import json
import sys
from typing import NoReturn

import click

from .affroots import kw_positivity
from .checks import (
    CHECK_IDS,
    DUMP_OBJECTS,
    _exact_list,
    dump_object,
    level_string,
    render_report,
    run_checks,
    validated_rank,
)
from .classify import admissibility_table


def _validated_rank(l: int) -> int:
    try:
        return validated_rank(l)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _exit_internal_error(exc: Exception) -> NoReturn:
    click.echo(f"Error: internal error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(3)


@click.group()
def main() -> None:
    """Exact verification of the twisted highest-weight classification."""


@main.command()
@click.option("--l", "l", type=int, required=True, help="Rank of the horizontal algebra.")
@click.option(
    "--checks",
    "checks",
    default="all",
    show_default=True,
    help="Comma-separated check ids, or 'all'. Known ids: " + ", ".join(CHECK_IDS) + ".",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
)
@click.option(
    "--out",
    "out",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write the report to a file instead of stdout.",
)
def verify(l: int, checks: str, fmt: str, out: str | None) -> None:
    """Run the registered checks and report pass/fail per check."""
    if checks.strip() == "all":
        ids: str | tuple[str, ...] = "all"
    else:
        ids = tuple(s.strip() for s in checks.split(",") if s.strip())
    try:
        report = run_checks(l, ids)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    rendered = render_report(report, fmt)
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            raise click.BadParameter(
                f"cannot write {out!r}: {exc.strerror}", param_hint="'--out'"
            ) from exc
    else:
        click.echo(rendered, nl=False)
    sys.exit(0 if report.overall == "pass" else 1)


@main.command()
@click.option("--l", "l", type=int, required=True, help="Rank of the horizontal algebra.")
@click.option(
    "--object",
    "which",
    type=click.Choice(list(DUMP_OBJECTS)),
    required=True,
    help="Which symbolic object to print.",
)
def dump(l: int, which: str) -> None:
    """Print one of the central symbolic objects in plain text."""
    l = _validated_rank(l)
    try:
        text = dump_object(l, which)
    except Exception as exc:
        _exit_internal_error(exc)
    click.echo(text, nl=False)


@main.command(name="classify")
@click.option("--l", "l", type=int, required=True, help="Rank of the horizontal algebra.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "text"]),
    default="json",
    show_default=True,
)
def classify_cmd(l: int, fmt: str) -> None:
    """List the classified highest weights with their status flags."""
    l = _validated_rank(l)
    try:
        rows = [
            {
                "weight": w.omega_string(),
                "coroot_values": _exact_list(w.coroot_vals),
                "eps_coordinates": _exact_list(w.eps_coords),
                "dominant_integral": w.is_dominant_integral(),
                "admissible": report.passed,
                "kw_positive": kw_positivity(lam),
            }
            for w, lam, report in admissibility_table(l)
        ]
    except Exception as exc:
        _exit_internal_error(exc)
    if fmt == "json":
        payload = {"l": l, "level": level_string(l), "weights": rows}
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        click.echo(f"rank l = {l}, level {level_string(l)}")
        for row in rows:
            flags = []
            if row["dominant_integral"]:
                flags.append("dominant-integral")
            if row["admissible"]:
                flags.append("admissible")
            if row["kw_positive"]:
                flags.append("kw-positive")
            click.echo(f"  {row['weight']}  [{', '.join(flags)}]")


if __name__ == "__main__":
    main()
