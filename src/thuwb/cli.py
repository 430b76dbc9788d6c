"""Command-line entry point: analytic sweeps, simulation sweeps, and checks.

Subcommands::

    thuwb analyze  <spec.json>   closed-form curves only
    thuwb simulate <spec.json>   Monte Carlo estimates only
    thuwb compare  <spec.json>   both, with a per-point relative-error column
    thuwb validate-lemmas        empirical variance checks vs the closed forms

Exit codes: 0 on success, 2 on validation failure (bad spec, failed check,
a ``--symbols`` above ``MAX_SYMBOLS`` or too small to resolve a check), 1 on
runtime error.
``THUWB_WORKERS`` sets the sweep-point worker count, a whole number from 1 to
``MAX_COUNT`` (exit 2 otherwise), capped at the number of sweep points and of
CPUs this process may run on.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .experiment import MAX_COUNT, MAX_SYMBOLS, SEED_LIMIT, SpecValidationError, parse_spec, run
from .validation import DEFAULT_SEED, DEFAULT_SYMBOLS, format_check, run_lemma_checks


def _workers() -> int:
    try:
        return _integer_in(1, MAX_COUNT)(os.environ.get("THUWB_WORKERS", "1"))
    except argparse.ArgumentTypeError as exc:
        raise SpecValidationError(f"THUWB_WORKERS {exc}")


def _integer_in(low: int, high: int):
    """An argparse ``type`` that accepts whole numbers from ``low`` to ``high``.

    Its message quotes an argument of more than 40 characters (a seed's
    bound has 39 digits) only in part, and counts them.
    """

    def parse(raw: str) -> int:
        try:
            value = int(raw)
            if low <= value <= high:
                return value
        except ValueError:  # not a whole number, or more digits than int() takes
            pass
        shown = repr(raw) if len(raw) <= 40 else f"{raw[:40]!r}... ({len(raw):,} characters)"
        raise argparse.ArgumentTypeError(f"must be an integer >= {low} and <= {high}, got {shown}")

    return parse


# every subcommand's --seed: the spec's own bound
_seed = _integer_in(0, SEED_LIMIT - 1)


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
        cmd.add_argument("--seed", type=_seed, default=None, help="override the spec seed")
    check = sub.add_parser("validate-lemmas", help="empirical variance checks vs the closed forms")
    check.add_argument("--lemma", type=_integer_in(1, 5), default=None, help="run one numbered check (1 to 5) only")
    check.add_argument(
        "--symbols", type=_integer_in(1, MAX_SYMBOLS), default=DEFAULT_SYMBOLS, help="symbols per check"
    )
    check.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
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
