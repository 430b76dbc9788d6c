"""The benchmark's hooks still name functions that exist in the package.

Installs every layer and stage hook of ``bench/run.py`` without running a
workload, so renaming or deleting a hooked name fails here with
``HookError`` rather than only as a benchmark exit code.
"""

import importlib
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_every_benchmark_hook_installs(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    with tracing.Hooks() as hooks:
        run.install_layer_hooks(hooks, tracing.Recorder())
        run.install_stage_hooks(hooks, tracing.Recorder())
