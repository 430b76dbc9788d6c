"""The benchmark's hooks still name functions that exist in the package.

Installs every layer and stage hook of ``bench/run.py`` without running a
workload, so renaming or deleting a hooked name fails here with
``HookError`` rather than only as a benchmark exit code; then runs each
workload at its tiny size under those hooks, so a layer the benchmark maps
to a workload that goes silent fails here too.
"""

import importlib
import importlib.util
import os

import pytest

# imported before any hook is installed: a package module first imported
# inside a Hooks block would bind the wrappers, and keep them after restore
import thuwb.experiment as experiment

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

_spec = importlib.util.spec_from_file_location("workloads", os.path.join(BENCH, "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def test_every_benchmark_hook_installs(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    with tracing.Hooks() as hooks:
        run.install_layer_hooks(hooks, tracing.Recorder())
        run.install_stage_hooks(hooks, tracing.Recorder())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_counts_are_nonzero_exactly_where_mapped(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(BENCH)
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    spec = workloads.make_spec(workload, 5, str(tmp_path / "run.csv"), tiny=True)
    rec = tracing.Recorder()
    with tracing.Hooks() as hooks:
        run.install_layer_hooks(hooks, rec)
        run.install_stage_hooks(hooks, rec)
        parsed = experiment.parse_spec(spec)
        with rec.span("experiment.run"):
            experiment.run(parsed, workers=1, compare=workloads.is_compare(workload))
    metrics = run.layer_metrics(list(zip(rec.spans, tracing.self_times(rec.spans))), rec.calls, rec.seconds)
    assert run.mapping_problems(workload, metrics) == ([], [])
