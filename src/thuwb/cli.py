"""Command-line entry point: analytic sweeps, simulation sweeps, and checks.

Subcommands::

    thuwb analyze  <spec.json>   closed-form curves only
    thuwb simulate <spec.json>   Monte Carlo estimates only
    thuwb compare  <spec.json>   both, with a per-point relative-error column
    thuwb validate-lemmas        empirical variance checks vs the closed forms

Exit codes: 0 on success, 2 on validation failure (bad spec, failed check,
a ``--symbols`` above ``MAX_SYMBOLS`` or too small to resolve a check), 1 on
runtime error.
``THUWB_WORKERS`` sets the sweep-point worker count, capped at the number of
sweep points and CPUs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .experiment import SpecValidationError, parse_spec, run
from .validation import DEFAULT_SEED, DEFAULT_SYMBOLS, format_check, run_lemma_checks

MAX_SYMBOLS = 1000 * DEFAULT_SYMBOLS  # a check's arrays grow with --symbols


def _workers() -> int:
    raw = os.environ.get("THUWB_WORKERS", "1")
    try:
        count = int(raw)
    except ValueError:
        raise SpecValidationError(f"THUWB_WORKERS must be an integer, got {raw!r}")
    return max(1, count)


def _integer_at_least(low: int, high: int | None = None):
    """An argparse ``type`` that accepts whole numbers ``>= low`` (and ``<= high``)."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
            if value >= low and (high is None or value <= high):
                return value
        except ValueError:
            pass
        bound = "" if high is None else f" and <= {high}"
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}{bound}, got {raw!r}")

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thuwb",
        description="BER analysis and Monte Carlo simulation of time-hopping impulse-radio UWB links",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "evaluate the requested closed-form curves"),
        ("simulate", "run the Monte Carlo sweep"),
        ("compare", "run both and report per-point relative errors"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("spec", help="experiment spec (JSON file)")
        cmd.add_argument("--seed", type=int, default=None, help="override the spec seed")
    check = sub.add_parser("validate-lemmas", help="empirical variance checks vs the closed forms")
    check.add_argument("--lemma", type=int, choices=range(1, 6), default=None, help="run one numbered check only")
    check.add_argument(
        "--symbols", type=_integer_at_least(1, MAX_SYMBOLS), default=DEFAULT_SYMBOLS, help="symbols per check"
    )
    check.add_argument("--seed", type=_integer_at_least(0), default=DEFAULT_SEED)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate-lemmas":
            checks = run_lemma_checks(args.lemma, args.symbols, args.seed)
            for check in checks:
                print(format_check(check))
            failed = [c for c in checks if not c.passed]
            print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
            if not all(c.resolved for c in checks):
                print(f"error: --symbols {args.symbols} is too small to resolve every check", file=sys.stderr)
            return 0 if not failed else 2

        spec = parse_spec(args.spec)
        if args.command != "simulate" and not spec.analytic_modes:
            raise SpecValidationError(f"{args.command} requires analytic_modes in the spec")
        # one replace, so the overridden spec is validated as a whole
        overrides = {"simulate": args.command != "analyze"}
        if args.command == "simulate":
            overrides["analytic_modes"] = ()
        if args.seed is not None:
            overrides["seed"] = args.seed
        spec = replace(spec, **overrides)
        result = run(spec, workers=_workers(), compare=args.command == "compare")
        print(f"wrote {result.csv_path} ({len(result.rows)} rows) and {result.manifest_path}")
        return 0
    except SpecValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
