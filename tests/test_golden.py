"""Golden outputs: the ten tiny benchmark-workload CSVs, cell for cell.

Any change to an output, even in the last bit, fails here. A change that
means to move an output rewrites the file with ``tests/regen_golden.py``
and states the re-baseline in CHANGES.md. Another numpy build may move a
last bit through its SIMD loops; the message names the numpy version and
platform the file was made on, so such a move shows as what it is.
"""

import json
import math

import pytest

from regen_golden import GOLDEN, cases, key, report

with open(GOLDEN) as _fh:
    _GOLDEN = json.load(_fh)


def _relative_change(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return "not numbers"
    if a == 0.0:
        return "from zero" if b else "none"
    return f"{abs(b - a) / abs(a):.3g}" if math.isfinite(a) and math.isfinite(b) else "not finite"


def mismatches(name: str, golden: list[list[str]], rows: list[list[str]]) -> list[str]:
    """One line per cell of ``rows`` that differs from ``golden``, naming its row and column."""
    if len(rows) != len(golden) or rows[0] != golden[0]:
        return [f"{name}: {len(rows) - 1} rows of {rows[0]}, golden {len(golden) - 1} rows of {golden[0]}"]
    header = golden[0]
    out = []
    for i, (want, got) in enumerate(zip(golden[1:], rows[1:]), start=1):
        for column, old, new in zip(header, want, got):
            if old != new:
                where = f"row {i} ({want[1]}, {want[2]})"
                out.append(
                    f"{name}: {where} column {column}: golden {old!r}, now {new!r}, "
                    f"relative change {_relative_change(old, new)}"
                )
    return out


@pytest.mark.parametrize("case", cases(), ids=lambda case: key(*case).replace(" ", "-"))
def test_tiny_report_matches_the_golden_file(tmp_path, case):
    name = key(*case)
    problems = mismatches(name, _GOLDEN["reports"][name], report(*case, str(tmp_path)))
    made_with = ", ".join(f"{k} {v}" for k, v in _GOLDEN["made_with"].items())
    assert not problems, "\n".join(problems + [f"the golden file was made with {made_with}"])


def test_a_moved_cell_is_named_with_its_change():
    golden = [["variable", "value", "mode", "bep"], ["sinr_db", "0", "awgn_sync", "0.5"]]
    moved = [golden[0], ["sinr_db", "0", "awgn_sync", "0.55"]]
    (line,) = mismatches("w seed 1 plain", golden, moved)
    assert line.startswith("w seed 1 plain: row 1 (0, awgn_sync) column bep: golden '0.5', now '0.55'")
    assert "relative change 0.1" in line
