import dataclasses
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import thuwb
from thuwb import analytic, channel, cli, experiment, model, rake, simulator

MODULES = sorted(info.name for info in pkgutil.iter_modules(thuwb.__path__))


@pytest.mark.parametrize("name", ["thuwb"] + [f"thuwb.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_package_exports_no_test_only_helper():
    assert "dump_components_csv" not in thuwb.__all__
    # channels and Rake weights are plain arrays, and no closed form exists
    # only for tests: no wrapper type, fixed-channel factory or
    # jitter-conditional mode
    for module in (thuwb, channel, rake):
        assert [n for n in vars(module) if n.endswith(("Realization", "Weights")) or n.startswith("fixed_")] == []
    assert "async_conditional" not in {mode.value for mode in analytic.BepMode}
    assert "jitters" not in {f.name for f in dataclasses.fields(analytic.BepQuery)}
    # the noise-level conversions and the closed-form list have one owner each in
    # experiment, and the oversampled pulse waveform lives with the test oracles
    for name in ("noise_psd_from_sinr", "noise_psd_from_ebno", "ANALYTIC_MODES"):
        assert not hasattr(experiment, name) and name not in thuwb.__all__
    assert not hasattr(model.PulseShape, "waveform")
    # async_exact reads mai_variance_jitter itself: no quadratic-form helpers,
    # and the breakdown's variance takes no MAI sums from outside
    assert not hasattr(analytic, "_form_coefficients") and not hasattr(analytic, "_jitter_form")
    assert list(inspect.signature(analytic.VarianceBreakdown.variance).parameters) == ["self", "params"]
    # the closed forms' noise-sweep state is a plain record like NoiseSweep: bep
    # fills and checks it
    assert [f.name for f in dataclasses.fields(analytic.ClosedFormSweep)] == ["taps", "key", "breakdown"]
    record = vars(analytic.ClosedFormSweep).items()
    assert [name for name, value in record if callable(value) and name not in ("__init__", "__repr__", "__eq__")] == []
    assert not hasattr(analytic.ClosedFormSweep, "breakdown_of")
    # each noise key is a field of its own, and every JSON key is a field name
    assert "noise" not in {f.name for f in dataclasses.fields(experiment.ExperimentSpec)}
    assert not hasattr(experiment, "_json_keys") and not hasattr(experiment, "_TOP_KEYS")
    # ExperimentSpec owns every count bound and cap: no parse-only coercer, and
    # the CLI's --symbols cap is the run's symbols cap
    assert not hasattr(experiment, "_count")
    assert cli.MAX_SYMBOLS is experiment.MAX_SYMBOLS


def test_every_channel_kind_is_exported_through_its_constant():
    # experiment and validation import each kind by its constant's name
    exported = {getattr(simulator, name): name for name in simulator.__all__ if name.isupper()}
    kinds = simulator._CHANNEL_KINDS
    assert {kind: exported.get(kind) for kind in kinds} == {kind: kind.upper() for kind in kinds}


def test_every_closed_form_is_reachable_from_a_spec():
    values = [mode.value for mode in analytic.BepMode]
    spec = experiment.parse_spec({"sweep": {"variable": "sinr_db", "values": [0.0]}, "analytic_modes": values})
    assert spec.analytic_modes == tuple(analytic.BepMode)
    assert spec.to_dict()["analytic_modes"] == values
    assert experiment.parse_spec(spec.to_dict()) == spec


def test_readme_quick_tour_runs():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md (Library quick tour)", "exec"), namespace)
    assert 0.0 < namespace["theory"] < 0.5
    assert namespace["ensemble"].shape == (200, 10, 20)
    assert namespace["per_realization"].shape == (200,)
    assert namespace["measured"].trials == 100 * 2000


def test_readme_states_every_spec_cap():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    exit_2 = readme[readme.index("Exit codes:") : readme.index("`THUWB_WORKERS`")]
    caps = {name: value for name, value in vars(experiment).items() if name.startswith("MAX_")}
    assert {"MAX_COUNT", "MAX_SYMBOLS", "MAX_TAPS", "MAX_USERS"} <= set(caps) and caps["MAX_COUNT"] == 2**53
    assert [name for name, value in caps.items() if f"{value:,}" not in exit_2] == []


def test_no_scipy_on_the_run_path():
    # a fresh interpreter, so that no module the suite imported counts
    code = (
        "import sys, thuwb, thuwb.experiment, thuwb.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(pathlib.Path(thuwb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
