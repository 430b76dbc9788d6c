"""Self-test of the benchmark: ``python3 -m pytest bench/test_bench.py`` from the root.

Runs every workload at a tiny size, traced and untraced, and checks that each
metric BENCHMARK.json names is reported with its unit, that each layer's
counts are non-zero exactly where ``run.EXERCISED`` says, that the gate
counts corrupted reports as failures, that broken hooks and a checkout
without the package fail loudly, and that the calibration and the
``analytic_ms`` estimator compute what they document.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracing import HookError, Hooks

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


@pytest.fixture(scope="module", params=[(w, t) for w in workloads.WORKLOADS for t in (False, True)])
def record(request):
    workload, trace = request.param
    return run.run_benchmark(workload, seed=5, seconds=0, trace=trace, tiny=True)


def test_every_metric_is_printed_with_its_unit(record):
    section = "per_layer" if record["trace"] else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    metrics = record["result"]["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run._print_record(record)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == record["result"]
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
    for name, unit in declared.items():
        assert printed.get(name) == unit, name
    if not record["trace"]:
        assert all(v["value"] > 0 for v in metrics.values())
        assert "failed_share" in printed


def test_layer_counts_are_nonzero_exactly_where_mapped(record):
    if not record["trace"]:
        pytest.skip("per-layer metrics come from the traced run")
    assert run.mapping_problems(record["workload"], record["layers"]) == ([], [])


def _tiny_report(workload, tmp_path):
    sys.path.insert(0, run.SRC)
    from thuwb import experiment

    spec = workloads.make_spec(workload, 7, str(tmp_path / "r.csv"), tiny=True)
    experiment.run(experiment.parse_spec(spec), workers=1, compare=workloads.is_compare(workload))
    return spec, workloads.read_report(spec["output_path"])


def _failures(spec, rows):
    return {name for name, ok in workloads.gate(spec, rows) if not ok}


def test_gate_counts_corrupted_rows(tmp_path):
    # a tiny run is too short for the tolerance checks to pass reliably, so
    # each corruption must add a failure to whatever the clean report has
    spec, rows = _tiny_report(workloads.AWGN_REF_COMPARE, tmp_path)
    clean = _failures(spec, rows)
    first = rows.index(next(r for r in rows if r["mode"] == "simulated"))
    value = rows[first]["value"]
    for field, bad, check in (
        ("bep", "nan", f"{value}/simulated: bep finite in [0, 1]"),
        ("bep", "1.5", f"{value}/simulated: bep finite in [0, 1]"),
        ("bep", "-0.1", f"{value}/simulated: bep finite in [0, 1]"),
        ("trials", "1", f"{value}/simulated: trials"),
    ):
        corrupted = [dict(r) for r in rows]
        corrupted[first][field] = bad
        assert check in _failures(spec, corrupted) - clean, (field, bad)
    ref = next(r for r in rows if r["value"] == value and r["mode"] == "awgn_async")
    far = [dict(r) for r in rows]
    far[first]["bep"] = repr(2.0 * float(ref["bep"]))
    assert f"{value}/simulated vs awgn_async: within 15%" in _failures(spec, far)


def test_gate_requires_bep_to_rise_with_users(tmp_path):
    spec, rows = _tiny_report(workloads.FADING_EXACT_ANALYZE, tmp_path)
    assert _failures(spec, rows) == set()
    flat = [dict(r) for r in rows]
    for r in flat:
        if r["mode"] == "sync":
            r["bep"] = "0.01"
    assert _failures(spec, flat) == {"sync: bep strictly increases with n_users"}


def test_missing_hook_names_the_cause():
    sys.path.insert(0, run.SRC)
    import thuwb.experiment  # noqa: F401

    with pytest.raises(HookError, match="thuwb.experiment.no_such_stage no longer exists"):
        with Hooks() as hooks:
            hooks.stage("experiment", "no_such_stage", lambda fn: fn)
    with pytest.raises(HookError, match="thuwb.model.PulseShape.gone no longer exists"):
        with Hooks() as hooks:
            hooks.layer("model", "PulseShape.gone", lambda fn: fn)


def test_hooks_restore_every_binding():
    sys.path.insert(0, run.SRC)
    from thuwb import analytic, experiment

    before = (experiment.bep, analytic.bep, analytic.PulseShape.autocorrelation)
    with Hooks() as hooks:
        run.install_layer_hooks(hooks, run.Recorder())
        run.install_stage_hooks(hooks, run.Recorder())
        assert experiment.bep is not before[0] and analytic.bep is not before[1]
    assert (experiment.bep, analytic.bep, analytic.PulseShape.autocorrelation) == before


def test_checkout_without_package_fails_without_result(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workloads.AWGN_REF_COMPARE, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "no thuwb package" in done.stderr


def test_calibration_scales_each_segment_and_skips_kernels():
    cal = run.Calibration.__new__(run.Calibration)
    ref_drop, ref_dot = run.REFERENCE_DROP_KERNEL_S, run.REFERENCE_DOT_KERNEL_S
    # marks on the CPU clock at [0, 1], [3, 4] and [6, 7]; the middle one ran at half speed
    cal.marks = [
        (0.0, 1.0, 0.5, ref_drop, ref_dot),
        (3.0, 4.0, 0.5, 2 * ref_drop, 2 * ref_dot),
        (6.0, 7.0, 0.5, ref_drop, ref_dot),
    ]
    span = {"cpu_start": 1.0, "cpu": 5.0}  # two 2 s segments around the middle mark
    assert cal.scaled(span) == pytest.approx(2 * 2.0 * 2 / 3)
    assert cal.scaled(span, dots=True) == pytest.approx(2 * 2.0 * 2 / 3)
    assert cal.scaled({"cpu_start": 1.5, "cpu": 1.0}) == pytest.approx(2 / 3)
    assert cal.kernel_wall(span) == pytest.approx(0.5)


def test_analytic_ms_takes_each_calls_median_over_repeats():
    stages = [
        {"analytic_calls": [("a", 2, 0.002), ("b", 1, 0.010)]},
        {"analytic_calls": [("a", 2, 0.004), ("b", 1, 0.011)]},
        {"analytic_calls": [("a", 2, 0.003), ("b", 1, 0.500)]},
    ]
    assert run.analytic_ms(stages, "a") == pytest.approx(1.5)
    assert run.analytic_ms(stages, "b") == pytest.approx(11.0)
    assert run.analytic_ms(stages) == pytest.approx((2 * 1.5 + 11.0) / 3)


def test_malloc_thresholds_are_fixed_under_glibc():
    if run.platform.libc_ver()[0] != "glibc":
        pytest.skip("mallopt is glibc's")
    assert run.fix_malloc_thresholds()
