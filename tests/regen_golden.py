"""Rewrite ``tests/golden_tiny.json``: every cell of the ten tiny benchmark-workload CSVs.

Run from the repository root::

    PYTHONPATH=src python tests/regen_golden.py

The reports are ``bench/workloads.make_spec(..., tiny=True)`` at seeds 1 and
7, each run plain and, where the workload compares, with ``compare``. The
file also records the numpy version and the platform it was made on, which
``test_golden.py`` prints beside a mismatch. Rewriting the file is a
re-baseline of every output it holds, and CHANGES.md must say so.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import os
import platform
import sys
import tempfile

import numpy as np

from thuwb import experiment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden_tiny.json")
SEEDS = (1, 7)

_spec = importlib.util.spec_from_file_location("workloads", os.path.join(ROOT, "bench", "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def cases() -> list[tuple[str, int, bool]]:
    """``(workload, seed, compare)`` of every report the golden file holds."""
    return [
        (workload, seed, compare)
        for workload in workloads.WORKLOADS
        for seed in SEEDS
        for compare in ((False, True) if workloads.is_compare(workload) else (False,))
    ]


def key(workload: str, seed: int, compare: bool) -> str:
    return f"{workload} seed {seed} {'compare' if compare else 'plain'}"


def report(workload: str, seed: int, compare: bool, directory: str) -> list[list[str]]:
    """Every cell of one tiny report as written, the header row first."""
    path = os.path.join(directory, f"{workload}_{seed}.csv")
    spec = experiment.parse_spec(workloads.make_spec(workload, seed, path, tiny=True))
    experiment.run(spec, workers=1, compare=compare)
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        reports = {key(*case): report(*case, directory) for case in cases()}
    made_with = {"numpy": np.__version__, "python": platform.python_version(), "platform": platform.platform()}
    with open(GOLDEN, "w") as fh:
        json.dump({"made_with": made_with, "reports": reports}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(reports)} reports to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
