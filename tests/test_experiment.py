import errno
import importlib.util
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from thuwb import cli, experiment, simulator, validation
from thuwb.analytic import BepMode, average_bep, bep
from thuwb.channel import FIXED_CHANNEL_TAPS, SyncMode, gen_lognormal_channel
from thuwb.cli import main
from thuwb.experiment import (
    _ANALYTIC_ENSEMBLE_STREAM,
    SpecValidationError,
    parse_spec,
    run,
)
from thuwb.model import substream
from thuwb.simulator import FIXED, ChannelSource

_spec = importlib.util.spec_from_file_location(
    "workloads", pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

MINIMAL = {"sweep": {"variable": "sinr_db", "values": [0.0, 2.0]}}


@pytest.fixture
def inline_pool(monkeypatch):
    """Run the worker pool's points in this process; returns the requested pool sizes."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # run imports the pool where it starts one, so the patch goes on the name it looks up
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    return pools


@pytest.fixture
def recording_pool(monkeypatch):
    """Start the real process pool, recording each started pool's worker count."""
    import concurrent.futures

    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools


def usable_cpus(monkeypatch, count):
    """Let this process run on ``count`` CPUs of a machine that has eight."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def tiny_spec(tmp_path, **overrides):
    spec = {
        "n_users": 3,
        "n_frames": 3,
        "n_chips_per_frame": 3,
        "e1": 0.5,
        "interferer_energy": 1.0,
        "channel": {"source": "awgn"},
        "sync_mode": "chip_sync",
        "n_drops": 3,
        "symbols_per_drop": 200,
        "seed": 99,
        "sweep": {"variable": "sinr_db", "values": [0.0, 2.0]},
        "analytic_modes": ["awgn_sync", "awgn_async"],
        "output_path": str(tmp_path / "run.csv"),
    }
    spec.update(overrides)
    return spec


class TestParseSpec:
    def test_minimal_gets_defaults(self):
        spec = parse_spec(MINIMAL)
        assert spec.n_users == 10
        assert spec.n_frames == 15
        assert spec.n_chips_per_frame == 5
        assert spec.e1 == 0.5
        assert spec.interferer_energy == 1.0
        assert spec.sync_mode is SyncMode.CHIP_SYNC
        assert spec.scheme == "arake"
        assert spec.polarity is True
        assert spec.channel.kind == "fixed"
        assert spec.simulate is True
        assert spec.pulse.kind == "gaussian_doublet"

    def test_unknown_keys_listed(self):
        with pytest.raises(SpecValidationError, match="unknown keys in spec: frames, users"):
            parse_spec({**MINIMAL, "users": 4, "frames": 2})
        with pytest.raises(SpecValidationError, match="unknown keys in sweep"):
            parse_spec({"sweep": {"variable": "sinr_db", "values": [1], "step": 2}})
        with pytest.raises(SpecValidationError, match="unknown keys in pulse"):
            parse_spec({**MINIMAL, "pulse": {"kind": "rectangular", "width": 2}})

    def test_sweep_must_increase(self):
        with pytest.raises(SpecValidationError, match="sweep values must be strictly increasing"):
            parse_spec({"sweep": {"variable": "sinr_db", "values": [3.0, 1.0, 2.0]}})

    def test_reference_awgn_scenario_accepted(self):
        spec = parse_spec(
            {
                "n_users": 10,
                "n_frames": 15,
                "n_chips_per_frame": 5,
                "e1": 0.5,
                "interferer_energy": 1.0,
                "channel": {"source": "awgn"},
                "sweep": {"variable": "sinr_db", "values": [0, 2, 4, 6]},
                "analytic_modes": ["awgn_sync", "awgn_async", "awgn_no_polarity_sync"],
            }
        )
        assert spec.sweep.values == (0.0, 2.0, 4.0, 6.0)
        assert BepMode.AWGN_NO_POLARITY_SYNC in spec.analytic_modes

    def test_readme_reference_spec_parses(self):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        raw = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        echo = parse_spec(raw).to_dict()
        # the block names every field; only the pulse gains its resolved shape_param
        assert echo.pop("pulse") == {"kind": "gaussian_doublet", "shape_param": 0.4}
        raw.pop("pulse")
        assert echo == raw

    def test_requires_some_output(self):
        with pytest.raises(SpecValidationError, match="at least one of"):
            parse_spec({**MINIMAL, "simulate": False})

    @pytest.mark.parametrize("modes", [["sync", "sync"], ["awgn_sync", "awgn_async", "awgn_sync"]])
    def test_repeated_analytic_mode_rejected(self, tmp_path, capsys, modes):
        # each mode writes one row per point, so a repeat would only evaluate it twice
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**MINIMAL, "analytic_modes": modes, "output_path": str(tmp_path / "run.csv")}))
        assert main(["analyze", str(spec_path)]) == 2
        assert f"analytic_modes lists {modes[0]} more than once" in capsys.readouterr().err

    def test_drop_size_cap(self):
        # the fixed 10-tap channel keeps 2 guard symbols per side at any frame length
        cap = experiment.MAX_DROP_CODE_ELEMENTS
        at_cap = {**MINIMAL, "n_users": 1, "n_frames": 1000, "symbols_per_drop": cap // 1000 - 4}
        parse_spec(at_cap)
        with pytest.raises(SpecValidationError, match=r"symbols_per_drop \(9997\).*above the cap"):
            parse_spec({**at_cap, "symbols_per_drop": cap // 1000 - 3})
        # an n_users sweep is sized by its largest point
        users = {**at_cap, "noise_psd": 0.1, "sweep": {"variable": "n_users", "values": [1, 2]}}
        with pytest.raises(SpecValidationError, match=r"n_users \(2\)"):
            parse_spec(users)
        # a spec that simulates nothing builds no drop
        parse_spec({**users, "simulate": False, "analytic_modes": ["awgn_sync"]})

    def test_simulated_symbols_cap(self):
        assert experiment.MAX_SYMBOLS == 100_000_000
        # a noise sweep decides all its points from one drop pass
        at_cap = {**MINIMAL, "n_drops": 10**6, "symbols_per_drop": 100}
        parse_spec(at_cap)
        with pytest.raises(SpecValidationError, match=r"n_drops \(1000001\) x symbols_per_drop \(100\) x 1 drop passes"):
            parse_spec({**at_cap, "n_drops": 10**6 + 1})
        # any other sweep runs one pass per point
        users = {**at_cap, "noise_psd": 0.1, "sweep": {"variable": "n_users", "values": [1, 2]}}
        with pytest.raises(SpecValidationError, match=r"x 2 drop passes = 200,000,000 is above the cap of 100,000,000 symbols"):
            parse_spec(users)
        parse_spec({**users, "simulate": False, "analytic_modes": ["awgn_sync"]})

    def test_path_and_analysis_size_caps(self):
        assert (experiment.MAX_TAPS, experiment.MAX_ANALYTIC_ELEMENTS) == (1024, 10_000_000)
        parse_spec({**MINIMAL, "channel": {"source": "custom", "taps": [0.1] * 1024}})
        with pytest.raises(SpecValidationError, match=r"channel.taps \(1025 entries\) is above the cap of 1,024 paths"):
            parse_spec({**MINIMAL, "channel": {"source": "custom", "taps": [0.1] * 1025}})
        # 3125 x 5 x 640 taps is the cap exactly; a 64-node floor counts short channels
        fading = {
            **MINIMAL, "n_users": 5, "channel": {"source": "lognormal", "n_taps": 640},
            "analytic_modes": ["sync"], "analytic_realizations": 3125, "simulate": False,
        }
        parse_spec(fading)
        with pytest.raises(SpecValidationError, match=r"analytic_realizations \(3126\) x n_users \(5\)"):
            parse_spec({**fading, "analytic_realizations": 3126})
        short = {**fading, "channel": {"source": "lognormal", "n_taps": 2}, "analytic_realizations": 31_250}
        parse_spec(short)
        with pytest.raises(SpecValidationError, match=r"max\(channel.n_taps \(2\), 64\)"):
            parse_spec({**short, "analytic_realizations": 31_251})
        # a channel that does not fade is one realization; the AWGN modes draw no ensemble
        parse_spec({**fading, "channel": {"source": "fixed"}, "analytic_realizations": 10**12})
        parse_spec({**fading, "analytic_modes": ["awgn_sync"], "analytic_realizations": 10**12})

    def test_non_noise_sweep_needs_noise_field(self):
        base = {
            "scheme": "srake",
            "sweep": {"variable": "fingers", "values": [1, 3, 5]},
        }
        with pytest.raises(SpecValidationError, match="exactly one of"):
            parse_spec(base)
        spec = parse_spec({**base, "sinr_db": 3.0})
        assert spec.sweep.values == (1, 3, 5)
        with pytest.raises(SpecValidationError, match="cannot be set"):
            parse_spec({**MINIMAL, "noise_psd": 0.1})

    def test_at_most_one_noise_key(self):
        users = {"sweep": {"variable": "n_users", "values": [2, 3]}}
        message = "^set at most one of noise_psd, sinr_db, ebno_db, got sinr_db, ebno_db$"
        with pytest.raises(SpecValidationError, match=message):
            parse_spec({**users, "sinr_db": 3.0, "ebno_db": 3.0})
        # null is unset
        spec = parse_spec({**users, "sinr_db": None, "ebno_db": 3})
        assert (spec.noise_psd, spec.sinr_db, spec.ebno_db) == (None, None, 3.0)
        # every construction is checked, replace included
        with pytest.raises(SpecValidationError, match=message):
            replace(spec, sinr_db=1.0)

    def test_fingers_scheme_consistency(self):
        with pytest.raises(SpecValidationError, match="requires fingers"):
            parse_spec({**MINIMAL, "scheme": "srake"})
        with pytest.raises(SpecValidationError, match="finger-limited"):
            parse_spec({"scheme": "arake", "sweep": {"variable": "fingers", "values": [1, 2]}, "noise_psd": 0.1})

    def test_bad_json_and_missing_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(SpecValidationError, match="not found"):
            parse_spec(str(missing))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SpecValidationError, match="not valid JSON"):
            parse_spec(str(bad))
        # an integer beyond the interpreter's digit limit used to raise a bare ValueError
        bad.write_text('{"n_frames": 1' + "0" * 5000 + "}")
        with pytest.raises(SpecValidationError, match="not valid JSON"):
            parse_spec(str(bad))

    @pytest.mark.parametrize(
        "spec",
        [
            {
                "n_users": 4,
                "n_frames": 6,
                "n_chips_per_frame": 4,
                "e1": 0.7,
                "interferer_energy": 1.5,
                "pulse": {"kind": "rectangular"},
                "sync_mode": "async",
                "scheme": "prake",
                "polarity": False,
                "channel": {"source": "lognormal", "n_taps": 8, "decay": 0.3, "log_variance": 0.8},
                "n_drops": 7,
                "symbols_per_drop": 90,
                "seed": 5,
                "sweep": {"variable": "fingers", "values": [1, 2, 4]},
                "analytic_modes": ["sync", "async_sga"],
                "simulate": False,
                "analytic_realizations": 11,
                "sinr_db": 1.5,
                "output_path": "out/round.csv",
            },
            {
                "pulse": {"kind": "gaussian_doublet", "shape_param": 0.3},
                "scheme": "egc",
                "fingers": 2,
                "polarity": False,
                "channel": {"source": "custom", "taps": [0.8, -0.5, 0.2]},
                "sweep": {"variable": "n_users", "values": [2, 3]},
                "sinr_db": -2.0,
            },
            {
                "scheme": "srake",
                "fingers": 3,
                "channel": {"source": "fixed"},
                "sweep": {"variable": "n_users", "values": [2, 5]},
                "noise_psd": 0.05,
            },
            {
                "sync_mode": "symbol_sync",
                "channel": {"source": "awgn"},
                "sweep": {"variable": "n_users", "values": [1, 4]},
                "analytic_modes": ["awgn_no_polarity_sync"],
                "ebno_db": 12.0,
            },
            {
                "scheme": "srake",
                "fingers": 2,
                "channel": {"source": "shared_lognormal", "n_taps": 6, "decay": 0.5},
                "sweep": {"variable": "ebno_db", "values": [0, 5]},
                "analytic_modes": ["async_exact"],
            },
            MINIMAL,
            {
                "fingers": None,
                "pulse": {"kind": "rectangular", "shape_param": None},
                "sweep": {"variable": "n_users", "values": [2, 3]},
                "noise_psd": None,
                "sinr_db": 1.0,
                "ebno_db": None,
            },
        ],
        ids=["lognormal", "custom", "fixed-noise_psd", "awgn-ebno_db", "shared_lognormal", "defaults", "nulls"],
    )
    def test_round_trip_through_to_dict(self, spec):
        parsed = parse_spec(spec)
        # the echo leaves out unset fields
        assert None not in parsed.to_dict().values()
        assert parse_spec(parsed.to_dict()) == parsed
        assert parse_spec(json.loads(json.dumps(parsed.to_dict()))) == parsed

    def test_fingers_must_be_an_integer(self):
        with pytest.raises(SpecValidationError, match="fingers"):
            parse_spec({**MINIMAL, "scheme": "srake", "fingers": "x"})

    def test_fingers_cannot_exceed_paths(self):
        awgn = {"source": "awgn"}
        with pytest.raises(SpecValidationError, match=r"fingers \(3\) exceeds"):
            parse_spec({**MINIMAL, "scheme": "srake", "fingers": 3, "channel": awgn})
        with pytest.raises(SpecValidationError, match=r"fingers \(11\) exceeds"):
            parse_spec(
                {"scheme": "prake", "sweep": {"variable": "fingers", "values": [2, 11]}, "noise_psd": 0.1}
            )
        spec = parse_spec({"scheme": "prake", "sweep": {"variable": "fingers", "values": [2, 10]}, "noise_psd": 0.1})
        assert spec.sweep.values == (2, 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "3"])
    @pytest.mark.parametrize(
        "field,spec",
        [
            ("sweep.values", {"sweep": {"variable": "sinr_db", "values": [0.0, "BAD"]}}),
            ("noise_psd", {"sweep": {"variable": "n_users", "values": [2, 3]}, "noise_psd": "BAD"}),
            ("sinr_db", {"sweep": {"variable": "n_users", "values": [2, 3]}, "sinr_db": "BAD"}),
            ("ebno_db", {"sweep": {"variable": "n_users", "values": [2, 3]}, "ebno_db": "BAD"}),
            ("e1", {**MINIMAL, "e1": "BAD"}),
            ("interferer_energy", {**MINIMAL, "interferer_energy": "BAD"}),
            ("channel.decay", {**MINIMAL, "channel": {"source": "lognormal", "decay": "BAD"}}),
            ("channel.taps", {**MINIMAL, "channel": {"source": "custom", "taps": [1.0, "BAD"]}}),
            ("pulse.shape_param", {**MINIMAL, "pulse": {"shape_param": "BAD"}}),
            ("n_users", {**MINIMAL, "n_users": "BAD"}),
            ("n_frames", {**MINIMAL, "n_frames": "BAD"}),
            ("n_chips_per_frame", {**MINIMAL, "n_chips_per_frame": "BAD"}),
            ("n_drops", {**MINIMAL, "n_drops": "BAD"}),
            ("symbols_per_drop", {**MINIMAL, "symbols_per_drop": "BAD"}),
            ("seed", {**MINIMAL, "seed": "BAD"}),
            ("analytic_realizations", {**MINIMAL, "analytic_realizations": "BAD"}),
            ("fingers", {**MINIMAL, "scheme": "srake", "fingers": "BAD"}),
            ("channel.n_taps", {**MINIMAL, "channel": {"source": "lognormal", "n_taps": "BAD"}}),
            ("sweep.values", {"sweep": {"variable": "n_users", "values": [2, "BAD"]}, "noise_psd": 0.1}),
            ("sweep.values", {"scheme": "srake", "sweep": {"variable": "fingers", "values": [1, "BAD"]}, "noise_psd": 0.1}),
        ],
    )
    def test_non_finite_numbers_rejected(self, field, spec, bad):
        text = json.dumps(spec).replace('"BAD"', json.dumps(bad))
        with pytest.raises(SpecValidationError, match=f"^{field} must be a finite number"):
            parse_spec(json.loads(text))

    @pytest.mark.parametrize("field", ["polarity", "simulate"])
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_flags_must_be_booleans(self, field, value):
        with pytest.raises(SpecValidationError, match=f"^{field} must be true or false"):
            parse_spec({**MINIMAL, field: value})


class TestNoiseConversions:
    # MINIMAL's link: 10 users, e1 0.5, unit interferers and 15 x 5 chips
    def test_sinr_inversion_anchor(self):
        params, _ = experiment._point_settings(parse_spec(MINIMAL), 2.0)
        assert params.noise_psd == pytest.approx(0.195479, abs=1e-6)
        assert params.noise_psd == 0.5 * 10.0 ** (-2.0 / 10.0) - 9 * 1.0 / (15 * 5)

    def test_sinr_unattainable(self):
        with pytest.raises(SpecValidationError, match=r"^SINR unattainable: MAI floor exceeds target \(sinr_db=10\)$"):
            experiment._point_settings(parse_spec(MINIMAL), 10.0)

    def test_ebno_mapping(self):
        # Eb/N0 = E1 / (2 noise_psd), two-sided density convention
        spec = parse_spec({"e1": 1.0, "sweep": {"variable": "ebno_db", "values": [16.0]}})
        params, _ = experiment._point_settings(spec, 16.0)
        assert params.noise_psd == pytest.approx(10 ** -1.6 / 2.0, abs=1e-12)
        assert params.noise_psd == 1.0 * 10.0 ** (-16.0 / 10.0) / 2.0


class TestRun:
    def test_csv_deterministic_and_complete(self, tmp_path):
        spec = parse_spec(tiny_spec(tmp_path))
        first = run(spec)
        content_a = pathlib.Path(first.csv_path).read_bytes()
        second = run(spec)
        content_b = pathlib.Path(second.csv_path).read_bytes()
        assert content_a == content_b
        header = content_a.decode().splitlines()[0]
        assert header == "sweep_var,value,mode,bep,ci_low,ci_high,trials,seed"
        # two points x (two analytic modes + simulated)
        assert len(first.rows) == 6

    def test_analytic_only_leaves_trials_empty(self, tmp_path):
        spec = parse_spec(tiny_spec(tmp_path, simulate=False))
        result = run(spec)
        lines = pathlib.Path(result.csv_path).read_text().splitlines()
        assert len(lines) == 5
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] in ("awgn_sync", "awgn_async")
            assert cells[4] == "" and cells[5] == "" and cells[6] == ""

    def test_compare_adds_relative_error(self, tmp_path):
        spec = parse_spec(tiny_spec(tmp_path))
        result = run(spec, compare=True)
        lines = pathlib.Path(result.csv_path).read_text().splitlines()
        assert lines[0].endswith(",rel_err")
        for line in lines[1:]:
            cells = line.split(",")
            if cells[2] == "simulated":
                assert cells[-1] == ""
            else:
                assert float(cells[-1]) >= 0.0

    def test_compare_requires_both(self, tmp_path):
        spec = parse_spec(tiny_spec(tmp_path, simulate=False))
        with pytest.raises(SpecValidationError, match="compare requires"):
            run(spec, compare=True)

    @pytest.mark.parametrize("compare", [False, True])
    def test_manifest_round_trip(self, tmp_path, compare):
        spec = parse_spec(tiny_spec(tmp_path))
        result = run(spec, compare=compare)
        manifest = json.loads(pathlib.Path(result.manifest_path).read_text())
        assert manifest["tool"] == "thuwb"
        replay_spec = parse_spec(manifest["spec"])
        replay_spec = replace(replay_spec, output_path=str(tmp_path / "replay.csv"))
        replay = run(replay_spec, compare=manifest["compare"])
        original = pathlib.Path(result.csv_path).read_text()
        replayed = pathlib.Path(replay.csv_path).read_text()
        assert original == replayed

    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch, recording_pool):
        usable_cpus(monkeypatch, 2)
        # analysis-only and simulating n_users sweeps start a two-worker pool; a simulating noise sweep starts none
        n_users_sweep = {"sweep": {"variable": "n_users", "values": [2, 3]}, "noise_psd": 0.2}
        for overrides, pools in (({"simulate": False}, [2]), (n_users_sweep, [2]), ({}, [])):
            spec = parse_spec(tiny_spec(tmp_path, **overrides))
            serial = run(spec)
            serial_bytes = pathlib.Path(serial.csv_path).read_bytes()
            assert recording_pool == []
            parallel = run(replace(spec, output_path=str(tmp_path / "par.csv")), workers=2)
            parallel_bytes = pathlib.Path(parallel.csv_path).read_bytes()
            assert recording_pool == pools
            assert serial_bytes == parallel_bytes
            recording_pool.clear()

    # one usable CPU of eight starts no pool
    @pytest.mark.parametrize("n_values,cpus,expected", [(2, 8, 2), (4, 3, 3), (2, 1, 1)])
    def test_worker_count_is_capped(self, tmp_path, monkeypatch, inline_pool, n_values, cpus, expected):
        usable_cpus(monkeypatch, cpus)
        values = [float(v) for v in range(n_values)]
        spec = parse_spec(
            tiny_spec(tmp_path, simulate=False, sweep={"variable": "sinr_db", "values": values})
        )
        run(spec, workers=10_000)
        assert inline_pool == ([expected] if expected > 1 else [])

    def test_only_a_started_pool_loads_multiprocessing(self, tmp_path):
        # a fresh interpreter, so that no module the suite imported counts
        root = pathlib.Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        reference = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        spec = workloads.make_spec(workloads.AWGN_REF_COMPARE, 1, str(tmp_path / "run.csv"), tiny=True)
        code = (
            f"import json, sys\n"
            f"sys.path.insert(0, {str(root / 'src')!r})\n"
            f"import thuwb.experiment, thuwb.cli\n"
            f"from thuwb.experiment import parse_spec, run\n"
            f"parse_spec(json.loads({json.dumps(reference)!r}))\n"
            f"run(parse_spec(json.loads({json.dumps(spec)!r})), workers=2, compare=True)\n"
            f"print(sorted(m for m in sys.modules if m.startswith(('concurrent.futures', 'multiprocessing'))))"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        assert (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("simulate", [True, False])
    def test_manifest_points_carry_timings_off_the_csv(self, tmp_path, monkeypatch, inline_pool, simulate):
        usable_cpus(monkeypatch, 8)
        spec = parse_spec(tiny_spec(tmp_path, simulate=simulate))
        serial = run(spec)
        pooled = run(replace(spec, output_path=str(tmp_path / "pooled.csv")), workers=2)
        # a simulating SINR sweep runs in this process; an n_users sweep keeps the pool
        assert inline_pool == ([] if simulate else [2])
        users = replace(spec, sweep=experiment.Sweep("n_users", (2, 3)), noise_psd=0.2)
        run(replace(users, output_path=str(tmp_path / "users.csv")), workers=2)
        assert inline_pool[-1] == 2
        assert pathlib.Path(serial.csv_path).read_bytes() == pathlib.Path(pooled.csv_path).read_bytes()
        header = pathlib.Path(serial.csv_path).read_text().splitlines()[0]
        assert "cpu" not in header and "symbols" not in header
        for result in (serial, pooled):
            points = json.loads(pathlib.Path(result.manifest_path).read_text())["points"]
            assert [p["value"] for p in points] == list(spec.sweep.values)
            for point in points:
                assert set(point) == {"value", "analytic_cpu_s", "analytic_se", "simulate_cpu_s", "symbols_per_cpu_s"}
                assert point["analytic_cpu_s"] >= 0.0
                # the AWGN closed forms average over no ensemble
                assert point["analytic_se"] == {"awgn_sync": None, "awgn_async": None}
                if simulate:
                    assert point["simulate_cpu_s"] > 0.0
                if simulate and point is points[0]:
                    trials = spec.n_drops * spec.symbols_per_drop
                    assert point["symbols_per_cpu_s"] == pytest.approx(trials / point["simulate_cpu_s"])
                elif simulate:
                    # the later points of a noise sweep only read the first point's drop pass
                    assert point["symbols_per_cpu_s"] is None
                else:
                    assert point["simulate_cpu_s"] == 0.0
                    assert point["symbols_per_cpu_s"] is None

    @pytest.mark.parametrize("variable", ["sinr_db", "ebno_db"])
    def test_noise_sweep_runs_each_drop_once(self, tmp_path, monkeypatch, inline_pool, variable):
        calls = []
        drop = simulator.run_drop
        monkeypatch.setattr(simulator, "run_drop", lambda *a: calls.append(1) or drop(*a))
        spec = parse_spec(tiny_spec(tmp_path, sweep={"variable": variable, "values": [0.0, 1.0, 2.0]}))
        serial = run(spec)
        assert len(calls) == spec.n_drops
        pooled = run(replace(spec, output_path=str(tmp_path / "pooled.csv")), workers=2)
        assert len(calls) == 2 * spec.n_drops
        assert inline_pool == []
        assert pathlib.Path(serial.csv_path).read_bytes() == pathlib.Path(pooled.csv_path).read_bytes()
        points = json.loads(pathlib.Path(serial.manifest_path).read_text())["points"]
        # the first point's simulate time carries the one drop pass
        assert points[0]["simulate_cpu_s"] > max(p["simulate_cpu_s"] for p in points[1:])

    def test_n_users_sweep_runs_drops_per_point(self, tmp_path, monkeypatch):
        calls = []
        drop = simulator.run_drop
        monkeypatch.setattr(simulator, "run_drop", lambda *a: calls.append(1) or drop(*a))
        sweep = {"variable": "n_users", "values": [1, 2, 3]}
        spec = parse_spec(tiny_spec(tmp_path, sweep=sweep, noise_psd=0.2))
        run(spec)
        assert len(calls) == spec.n_drops * 3

    def test_manifest_times_the_ensemble(self, tmp_path):
        spec = parse_spec(tiny_spec(tmp_path))
        assert json.loads(pathlib.Path(run(spec).manifest_path).read_text())["ensemble_cpu_s"] == 0.0
        fading = parse_spec(fading_spec(tmp_path, SINR_SWEEP))
        assert json.loads(pathlib.Path(run(fading).manifest_path).read_text())["ensemble_cpu_s"] > 0.0

    def test_unattainable_point_fails_run(self, tmp_path):
        # found when the spec is parsed, before any point runs
        with pytest.raises(SpecValidationError, match="SINR unattainable"):
            parse_spec(tiny_spec(tmp_path, sweep={"variable": "sinr_db", "values": [0.0, 30.0]}))

    def test_n_users_sweep(self, tmp_path):
        spec = parse_spec(
            tiny_spec(
                tmp_path,
                sweep={"variable": "n_users", "values": [2, 3]},
                noise_psd=0.2,
                analytic_modes=["awgn_sync"],
                simulate=False,
            )
        )
        result = run(spec)
        beps = [row["bep"] for row in result.rows]
        assert beps[0] < beps[1]  # more interferers, more errors

    def test_numpy_float_cells_are_plain_numbers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiment, "bep", lambda query: np.float64(0.125))
        result = run(parse_spec(tiny_spec(tmp_path, simulate=False)))
        cells = [line.split(",")[3] for line in pathlib.Path(result.csv_path).read_text().splitlines()[1:]]
        assert cells == ["0.125"] * 4

    def test_silent_channel_is_a_coin_flip_without_warnings(self, tmp_path):
        # no signal, no interference, no noise: every variance is zero; n_users
        # 1, 3 and 6 reach the single-user, quadrature and Monte Carlo branches
        spec = parse_spec(
            tiny_spec(
                tmp_path,
                channel={"source": "custom", "taps": [0, 0]},
                scheme="arake",
                sweep={"variable": "n_users", "values": [1, 3, 6]},
                noise_psd=0.0,
                analytic_modes=["sync", "async_sga", "async_exact"],
                simulate=False,
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(spec)
        assert [row["bep"] for row in result.rows] == [0.5] * 9

    @pytest.mark.parametrize(
        "sweep,noise", [({"variable": "sinr_db", "values": [0.0, 2.0]}, {}), ({"variable": "n_users", "values": [1, 2, 3]}, {"noise_psd": 0.2})]
    )
    def test_manifest_reports_run_throughput(self, tmp_path, sweep, noise):
        spec = parse_spec(tiny_spec(tmp_path, sweep=sweep, **noise))
        manifest = json.loads(pathlib.Path(run(spec).manifest_path).read_text())
        points = manifest["points"]
        assert manifest["simulate_cpu_s"] == sum(p["simulate_cpu_s"] for p in points) > 0.0
        # a noise sweep makes one drop pass for all its points, any other sweep one per point
        passes = 1 if sweep["variable"] == "sinr_db" else len(points)
        trials = passes * spec.n_drops * spec.symbols_per_drop
        assert manifest["symbols_per_cpu_s"] == trials / manifest["simulate_cpu_s"]
        analytic = parse_spec(tiny_spec(tmp_path, sweep=sweep, simulate=False, **noise))
        manifest = json.loads(pathlib.Path(run(analytic).manifest_path).read_text())
        assert manifest["simulate_cpu_s"] == 0.0 and manifest["symbols_per_cpu_s"] is None


def fading_spec(tmp_path, sweep, **overrides):
    fading = {
        "channel": {"source": "lognormal", "n_taps": 6},
        "scheme": "srake",
        "fingers": 2,
        "sweep": sweep,
        "analytic_modes": ["sync", "async_sga"],
        "analytic_realizations": 5,
        "simulate": False,
    }
    return tiny_spec(tmp_path, **{**fading, **overrides})


N_USERS_SWEEP = {"variable": "n_users", "values": [2, 3, 5]}
SINR_SWEEP = {"variable": "sinr_db", "values": [0.0, 2.0]}


def ensemble_draw(spec, n_users):
    """Every realization's ``n_users`` tap vectors, in one draw from the analytic ensemble's stream."""
    rng = substream(spec.seed, _ANALYTIC_ENSEMBLE_STREAM)
    return gen_lognormal_channel(spec.channel.fading, rng, (spec.analytic_realizations, n_users))


class TestFadingEnsemble:
    @pytest.mark.parametrize(
        "sweep,overrides,users",
        [(N_USERS_SWEEP, {"noise_psd": 0.1}, 5), (SINR_SWEEP, {}, 3)],
        ids=["n_users", "sinr"],
    )
    def test_drawn_once_per_run(self, tmp_path, monkeypatch, sweep, overrides, users):
        # one draw of every realization's channel set, for the most users of any
        # point; one draw per point and mode would be 6 and 4 draws
        shapes = []
        draw = simulator.gen_lognormal_channel
        monkeypatch.setattr(simulator, "gen_lognormal_channel", lambda *a: shapes.append(a[2]) or draw(*a))
        spec = parse_spec(fading_spec(tmp_path, sweep, **overrides))
        run(spec)
        assert shapes == [(5, users)]
        run(spec)
        assert shapes == [(5, users)] * 2

    def test_points_read_a_prefix_of_the_same_draws(self, tmp_path):
        spec = parse_spec(fading_spec(tmp_path, N_USERS_SWEEP, noise_psd=0.1))
        rows = run(spec).rows
        # every point reads the first n_users of the 5 users each realization draws
        ensemble = ensemble_draw(spec, 5)
        assert {row["value"] for row in rows} == {2, 3, 5}
        for row in rows:
            params, fingers = experiment._point_settings(spec, row["value"])
            queries = [
                experiment._analytic_query(spec, params, fingers, BepMode(row["mode"]), taps[: params.n_users])
                for taps in ensemble
            ]
            assert row["bep"] == average_bep(queries)[0]

    def test_ensemble_is_one_read_only_array_of_the_same_draws(self, tmp_path):
        spec = parse_spec(fading_spec(tmp_path, N_USERS_SWEEP, noise_psd=0.1))
        ensemble = experiment._analytic_ensemble(spec)
        assert ensemble.shape == (5, 5, 6) and not ensemble.flags.writeable
        assert ensemble.tobytes() == ensemble_draw(spec, 5).tobytes()
        # the same draws again: the ensemble owns its stream
        assert experiment._analytic_ensemble(spec).tobytes() == ensemble.tobytes()
        fixed = experiment._analytic_ensemble(replace(spec, channel=ChannelSource(FIXED)))
        assert fixed.shape == (1, 5, 10) and not fixed.flags.writeable
        assert fixed.tobytes() == np.tile(FIXED_CHANNEL_TAPS, (1, 5, 1)).tobytes()

    def test_manifest_reports_each_ensemble_standard_error(self, tmp_path):
        modes = ["sync", "async_sga", "async_exact", "awgn_sync"]
        spec = parse_spec(fading_spec(tmp_path, N_USERS_SWEEP, noise_psd=0.1, analytic_modes=modes))
        points = json.loads(pathlib.Path(run(spec).manifest_path).read_text())["points"]
        assert [p["value"] for p in points] == list(N_USERS_SWEEP["values"])
        ensemble = ensemble_draw(spec, N_USERS_SWEEP["values"][-1])
        for point in points:
            params, fingers = experiment._point_settings(spec, point["value"])
            assert point["analytic_se"]["awgn_sync"] is None
            for mode in modes[:3]:
                values = [
                    bep(experiment._analytic_query(spec, params, fingers, BepMode(mode), chs[: params.n_users]))
                    for chs in ensemble
                ]
                expected = np.std(values, ddof=1) / math.sqrt(len(values))
                assert point["analytic_se"][mode] == pytest.approx(expected, rel=1e-12)
        # one realization gives no standard error
        single = replace(spec, analytic_realizations=1, output_path=str(tmp_path / "single.csv"))
        for point in json.loads(pathlib.Path(run(single).manifest_path).read_text())["points"]:
            assert point["analytic_se"] == dict.fromkeys(modes)

    @pytest.mark.parametrize(
        "sweep,overrides", [(N_USERS_SWEEP, {"noise_psd": 0.1}), (SINR_SWEEP, {})], ids=["n_users", "sinr"]
    )
    def test_worker_count_does_not_change_output(self, tmp_path, sweep, overrides):
        spec = parse_spec(fading_spec(tmp_path, sweep, **overrides))
        serial = run(spec)
        parallel = run(replace(spec, output_path=str(tmp_path / "par.csv")), workers=2)
        assert pathlib.Path(serial.csv_path).read_bytes() == pathlib.Path(parallel.csv_path).read_bytes()


MULTIPATH_MODES = ["sync", "async_sga", "async_exact"]
NOISE_SWEEP = {"variable": "sinr_db", "values": [0.0, 1.0, 2.0]}


def recording_average_bep(monkeypatch):
    """Record ``(mode, shared, result)`` of each ``average_bep`` call of a run."""
    calls = []
    original = experiment.average_bep

    def recording(queries, sweep=None):
        out = original(queries, sweep)
        calls.append((queries[0].mode.value, sweep is not None, out))
        return out

    monkeypatch.setattr(experiment, "average_bep", recording)
    return calls


def counting_noise_free_parts(monkeypatch):
    """Count the calls of the closed forms' noise-free steps."""
    from thuwb import analytic

    calls = dict.fromkeys(["mai_variance_sync", "mai_variance_async", "mai_variance_jitter", "_binned_sum"], 0)
    for name in calls:
        original = getattr(analytic, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(analytic, name, counting)
    return calls


def point_by_point(spec, tmp_path, compare=False) -> bytes:
    """The CSV of ``spec`` with each sweep value run alone, as a one-value noise sweep that has nothing to share."""
    body = b""
    for i, value in enumerate(spec.sweep.values):
        alone = replace(spec, sweep=spec.sweep._replace(values=(value,)), output_path=str(tmp_path / f"alone{i}.csv"))
        header, rows = pathlib.Path(run(alone, compare=compare).csv_path).read_bytes().split(b"\n", 1)
        body += rows
    return header + b"\n" + body


class TestClosedFormSweep:
    """A noise sweep run in one process computes each sync or async_sga variance breakdown once."""

    @pytest.mark.parametrize("simulate", [False, True], ids=["analyze", "compare"])
    def test_shared_pass_is_bit_identical(self, tmp_path, monkeypatch, simulate):
        spec = parse_spec(fading_spec(tmp_path, NOISE_SWEEP, analytic_modes=MULTIPATH_MODES, simulate=simulate))
        calls = recording_average_bep(monkeypatch)
        shared = run(spec, compare=simulate)
        assert pathlib.Path(shared.csv_path).read_bytes() == point_by_point(spec, tmp_path, compare=simulate)
        # one call per (point, mode), sync and async_sga sharing their breakdown, and the same (mean, se) point by point
        assert [c[:2] for c in calls] == [("sync", True), ("async_sga", True), ("async_exact", False)] * 6
        assert [c[2] for c in calls[:9]] == [c[2] for c in calls[9:]]

    def test_noise_free_steps_run_once_per_sweep(self, tmp_path, monkeypatch):
        spec = parse_spec(fading_spec(tmp_path, NOISE_SWEEP, analytic_modes=MULTIPATH_MODES))
        calls = counting_noise_free_parts(monkeypatch)
        run(spec)
        # sync and async_sga once per sweep (async_sga's one jitter call); async_exact
        # at every point, one jitter call and two binned sums (two interferers) per realization
        once = {"mai_variance_sync": 1, "mai_variance_async": 1, "mai_variance_jitter": 1 + 3 * 5, "_binned_sum": 3 * 2 * 5}
        assert calls == once
        calls.update(dict.fromkeys(calls, 0))
        point_by_point(spec, tmp_path)
        assert calls == {**once, "mai_variance_sync": 3, "mai_variance_async": 3, "mai_variance_jitter": 3 + 3 * 5}

    @pytest.mark.parametrize("sweep,workers", [(N_USERS_SWEEP, 1), (NOISE_SWEEP, 2)], ids=["n_users", "pooled-noise"])
    def test_other_runs_share_nothing(self, tmp_path, monkeypatch, inline_pool, sweep, workers):
        noise = {"noise_psd": 0.1} if sweep is N_USERS_SWEEP else {}
        spec = parse_spec(fading_spec(tmp_path, sweep, analytic_modes=MULTIPATH_MODES, **noise))
        calls = recording_average_bep(monkeypatch)
        counts = counting_noise_free_parts(monkeypatch)
        run(spec, workers=workers)
        assert inline_pool == ([] if workers == 1 else [2])
        assert [c[:2] for c in calls] == [(mode, False) for mode in MULTIPATH_MODES] * 3
        assert counts["mai_variance_async"] == 3


class TestCli:
    def test_spec_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sweep": {"variable": "sinr_db", "values": [2.0, 1.0]}}))
        assert main(["analyze", str(bad)]) == 2

    @pytest.mark.parametrize(
        "case", ["spec-is-a-directory", "spec-nests-too-deeply", "csv-is-a-directory", "under-a-file", "manifest-is-a-directory"]
    )
    def test_bad_spec_or_output_path_exits_2_before_any_point_runs(self, tmp_path, capsys, monkeypatch, case):
        # each of these once ran to a runtime error, exit 1, the output ones after every point had run
        points = []
        original = experiment._point_rows
        monkeypatch.setattr(experiment, "_point_rows", lambda *args: points.append(args) or original(*args))
        spec_path = tmp_path / "spec.json"
        output = tmp_path / "run.csv"
        if case == "csv-is-a-directory":
            output.mkdir()
        elif case == "under-a-file":
            (tmp_path / "file").write_text("")
            output = tmp_path / "file" / "run.csv"
        elif case == "manifest-is-a-directory":
            (tmp_path / "run.manifest.json").mkdir()
        n_users_sweep = {"sweep": {"variable": "n_users", "values": [2, 3]}, "noise_psd": 0.1}
        spec_path.write_text(json.dumps(tiny_spec(tmp_path, output_path=str(output), **n_users_sweep)))
        if case == "spec-nests-too-deeply":
            spec_path.write_text("[" * 100_000 + "]" * 100_000)
        argv_spec = tmp_path if case == "spec-is-a-directory" else spec_path
        assert main(["compare", str(argv_spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "runtime error" not in err
        assert (str(argv_spec) if case.startswith("spec") else f"output_path {str(output)!r}") in err
        assert points == []
        assert not output.is_file()

    def test_analyze_requires_modes(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path, analytic_modes=[])))
        assert main(["analyze", str(spec_path)]) == 2

    def test_full_cycle(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path)))
        assert main(["compare", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "run.csv" in out

    def test_seed_override_changes_manifest(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path)))
        assert main(["simulate", str(spec_path), "--seed", "7"]) == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["spec"]["seed"] == 7
        assert manifest["spec"]["analytic_modes"] == []

    def test_worker_env_variable(self, tmp_path, monkeypatch, capsys, recording_pool):
        usable_cpus(monkeypatch, 2)
        spec_path = tmp_path / "spec.json"
        n_users_sweep = {"sweep": {"variable": "n_users", "values": [2, 3]}, "noise_psd": 0.2}
        spec_path.write_text(json.dumps(tiny_spec(tmp_path, **n_users_sweep)))
        monkeypatch.setenv("THUWB_WORKERS", "2")
        assert main(["simulate", str(spec_path)]) == 0
        assert recording_pool == [2]
        parallel = (tmp_path / "run.csv").read_bytes()
        monkeypatch.setenv("THUWB_WORKERS", "1")
        assert main(["simulate", str(spec_path)]) == 0
        assert recording_pool == [2]
        serial = (tmp_path / "run.csv").read_bytes()
        assert parallel == serial
        capsys.readouterr()
        points = []
        monkeypatch.setattr(experiment, "_point_rows", lambda *args: points.append(args))
        # the CLI's bounded integer rule, 1 to MAX_COUNT, with no silent clamp
        for raw in ("many", "0", "-3", "1.5", "9" * 5000):
            monkeypatch.setenv("THUWB_WORKERS", raw)
            assert main(["simulate", str(spec_path)]) == 2
            err = capsys.readouterr().err
            assert "THUWB_WORKERS" in err and len(err) < 200
        assert points == []

    def test_compare_with_zero_closed_form(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                tiny_spec(
                    tmp_path,
                    n_users=1,
                    analytic_modes=["awgn_sync"],
                    sweep={"variable": "ebno_db", "values": [200.0]},
                )
            )
        )
        assert main(["compare", str(spec_path)]) == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        analytic = lines[1].split(",")
        assert analytic[2] == "awgn_sync" and float(analytic[3]) == 0.0
        assert analytic[-1] == ""

    @pytest.mark.parametrize(
        "field,overrides",
        [
            ("fingers", {"scheme": "srake", "fingers": "x"}),
            ("fingers", {"scheme": "srake", "fingers": 3}),
            ("noise_psd", {"noise_psd": math.nan, "sweep": {"variable": "n_users", "values": [2, 3]}}),
            ("polarity", {"polarity": "false"}),
            ("n_users", {"n_users": 2.7}),
            ("n_frames", {"n_frames": 2.5}),
            ("n_chips_per_frame", {"n_chips_per_frame": 1.5}),
            ("n_drops", {"n_drops": 2.5}),
            ("symbols_per_drop", {"symbols_per_drop": 100.5}),
            ("seed", {"seed": 1.5}),
            ("analytic_realizations", {"analytic_realizations": 1.5}),
            ("fingers", {"scheme": "srake", "fingers": True}),
            ("channel.n_taps", {"channel": {"source": "lognormal", "n_taps": 3.5}}),
            ("sweep.values", {"sweep": {"variable": "n_users", "values": [2, 2.5]}, "noise_psd": 0.1}),
            ("sweep.values", {"scheme": "srake", "sweep": {"variable": "fingers", "values": [1, 1.5]}, "noise_psd": 0.1}),
            ("e1", {"e1": True}),
            ("seed", {"seed": -1}),
            ("analytic_modes", {"analytic_modes": [["x"]]}),
            ("output_path", {"output_path": 5}),
            ("n_users", {"n_users": "3"}),
            ("e1", {"e1": "0.5"}),
            ("n_frames", {"n_frames": "1_0"}),
            ("channel.taps", {"channel": {"source": "lognormal", "taps": [1, 2, 3]}}),
            ("channel.n_taps", {"channel": {"source": "fixed", "n_taps": 4, "decay": 9}}),
            ("channel.decay", {"channel": {"source": "fixed", "n_taps": 4, "decay": 9}}),
            ("channel.taps", {"channel": {"source": "awgn", "taps": [1.0]}}),
            ("channel.log_variance", {"channel": {"source": "custom", "taps": [1.0], "log_variance": 1.0}}),
            ("output_path", {"output_path": ""}),
            ("channel.decay", {"channel": {"source": "lognormal", "decay": 1e-17}}),
            ("channel.decay", {"channel": {"source": "lognormal", "decay": 1e-300}}),
            ("channel.decay", {"channel": {"source": "shared_lognormal", "decay": -0.5}}),
            ("channel.n_taps", {"channel": {"source": "lognormal", "n_taps": 0}}),
            ("channel.log_variance", {"channel": {"source": "lognormal", "log_variance": 0.0}}),
            ("channel.log_variance", {"channel": {"source": "lognormal", "n_taps": 5, "log_variance": 400}}),
            ("channel.log_variance", {"channel": {"source": "lognormal", "n_taps": 5, "log_variance": 1e6}}),
            ("channel.log_variance", {"channel": {"source": "shared_lognormal", "log_variance": math.nextafter(100.0, math.inf)}}),
            ("sinr_db, ebno_db", {"sweep": {"variable": "n_users", "values": [2, 3]}, "sinr_db": 3.0, "ebno_db": 3.0}),
            ("channel.taps", {"channel": {"source": "custom", "taps": [0, 0]}, "scheme": "arake"}),
            ("channel.taps", {"channel": {"source": "custom", "taps": [0, 0.5, 1]}, "scheme": "prake", "fingers": 1}),
            (
                "channel.taps",
                {
                    "channel": {"source": "custom", "taps": [0, 0.5, 1]},
                    "scheme": "prake",
                    "sweep": {"variable": "fingers", "values": [1, 2]},
                    "noise_psd": 0.1,
                },
            ),
        ],
        ids=[
            "fingers-not-int",
            "fingers-beyond-paths",
            "nan-noise",
            "string-flag",
            "fractional-n_users",
            "fractional-n_frames",
            "fractional-n_chips_per_frame",
            "fractional-n_drops",
            "fractional-symbols_per_drop",
            "fractional-seed",
            "fractional-analytic_realizations",
            "boolean-fingers",
            "fractional-n_taps",
            "fractional-n_users-sweep",
            "fractional-fingers-sweep",
            "boolean-e1",
            "negative-seed",
            "non-string-mode",
            "non-string-output_path",
            "string-n_users",
            "string-e1",
            "string-n_frames",
            "taps-on-lognormal",
            "n_taps-on-fixed",
            "decay-on-fixed",
            "taps-on-awgn",
            "log_variance-on-custom",
            "empty-output_path",
            "decay-1e-17",
            "decay-1e-300",
            "negative-decay",
            "zero-n_taps",
            "zero-log_variance",
            "log_variance-400",
            "log_variance-1e6",
            "log_variance-above-cap",
            "two-noise-keys",
            "silent-arake",
            "silent-prake",
            "silent-prake-fingers-sweep",
        ],
    )
    def test_bad_field_exits_2_naming_it(self, tmp_path, capsys, field, overrides):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path, **overrides)))
        assert main(["compare", str(spec_path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,overrides",
        [
            ("n_frames", {"n_frames": 10**12}),
            ("symbols_per_drop", {"symbols_per_drop": 10**15}),
            # the drop's correlation tables, not its codes, outgrow the cap
            ("n_chips_per_frame", {"n_frames": 1, "n_chips_per_frame": 10**9}),
        ],
    )
    def test_oversized_drop_exits_2_naming_the_field(self, tmp_path, capsys, field, overrides):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path, **overrides)))
        assert main(["compare", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert f"{field} ({overrides[field]})" in err
        assert "above the cap" in err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize(
        "message,overrides",
        [
            ("channel.n_taps (100000000) is above the cap of 1,024 paths", {"channel": {"source": "lognormal", "n_taps": 10**8}}),
            ("analytic_realizations (1000000000000) x", {"analytic_realizations": 10**12}),
            ("n_users (10000000) x", {"n_users": 10**7}),
            # the AWGN modes draw no ensemble; the user cap bounds each point's energies
            (
                "n_users (100000000) is above the cap of 10,000,000",
                {
                    "n_users": 10**8,
                    "channel": {"source": "awgn"},
                    "analytic_modes": ["awgn_sync"],
                    "sweep": {"variable": "ebno_db", "values": [10]},
                },
            ),
            (
                "n_users (1000000000000) is above the cap of 10,000,000",
                {
                    "ebno_db": 10,
                    "channel": {"source": "awgn"},
                    "analytic_modes": ["awgn_async"],
                    "sweep": {"variable": "n_users", "values": [2, 10**12]},
                },
            ),
        ],
        ids=["n_taps", "analytic_realizations", "n_users", "awgn-n_users", "awgn-n_users-sweep"],
    )
    def test_oversized_analysis_exits_2_naming_the_field(self, tmp_path, capsys, monkeypatch, message, overrides):
        def never(*args, **kwargs):
            raise AssertionError("no run may start")

        monkeypatch.setattr("thuwb.cli.run", never)
        analysis = {"channel": {"source": "lognormal"}, "simulate": False, "analytic_modes": ["async_sga"]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path, **{**analysis, **overrides})))
        assert main(["analyze", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "above the cap" in err

    def test_oversized_run_exits_2_naming_n_drops(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("no run may start")

        # such a spec once parsed and then ran for practically ever
        monkeypatch.setattr("thuwb.cli.run", never)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path, n_drops=10**9)))
        assert main(["compare", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "n_drops (1000000000) x symbols_per_drop (200)" in err
        assert "is above the cap of 100,000,000 symbols" in err

    @pytest.mark.parametrize(
        "field,overrides",
        [
            ("n_users", {"n_users": 1.7e308}),
            ("n_frames", {"n_frames": 1.7e308}),
            ("n_chips_per_frame", {"n_chips_per_frame": 1.7e308}),
            ("n_drops", {"n_drops": 1.7e308}),
            ("symbols_per_drop", {"symbols_per_drop": 1.7e308}),
            ("analytic_realizations", {"analytic_realizations": 1.7e308}),
            ("analytic_realizations", {"analytic_realizations": 2**53 + 2}),
            ("fingers", {"scheme": "srake", "fingers": 1.7e308}),
            ("sweep.values", {"ebno_db": 10, "sweep": {"variable": "n_users", "values": [2, 1.7e308]}}),
            (
                "sweep.values",
                {"scheme": "srake", "ebno_db": 10, "sweep": {"variable": "fingers", "values": [1, 1.7e308]}},
            ),
        ],
        ids=[
            "n_users", "n_frames", "n_chips_per_frame", "n_drops", "symbols_per_drop", "analytic_realizations",
            "analytic_realizations-int", "fingers", "n_users-sweep", "fingers-sweep",
        ],
    )
    def test_count_beyond_exact_floats_exits_2_naming_it(self, tmp_path, capsys, field, overrides):
        # such a count once reached float arithmetic and ended in an OverflowError, exit 1
        analysis = {"channel": {"source": "lognormal"}, "simulate": False, "analytic_modes": ["async_sga"]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path, **{**analysis, **overrides})))
        assert main(["analyze", str(spec_path)]) == 2
        assert f"{field} must be at most 2**53" in capsys.readouterr().err

    def test_count_below_2_53_still_runs(self, tmp_path):
        spec = tiny_spec(
            tmp_path,
            n_frames=10**15,
            channel={"source": "lognormal"},
            simulate=False,
            analytic_modes=["async_sga"],
            analytic_realizations=2,
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["analyze", str(spec_path)]) == 0
        assert (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize(
        "message,overrides",
        [
            ("SINR unattainable: MAI floor exceeds target (sinr_db=-5)", {"sinr_db": -5}),
            ("ebno_db=-4000 with e1=0.5 gives a noise density that is not finite", {"ebno_db": -4000}),
        ],
        ids=["sinr-at-the-last-point", "ebno-overflow"],
    )
    def test_unreachable_noise_level_at_a_later_n_users_point_exits_2(
        self, tmp_path, capsys, monkeypatch, message, overrides
    ):
        def never(*args, **kwargs):
            raise AssertionError("no run may start")

        monkeypatch.setattr("thuwb.cli.run", never)
        # at sinr_db -5 only the last point's MAI floor lies above the target
        values = [2, 3, 4, 30] if "sinr_db" in overrides else [2, 3]
        spec = tiny_spec(tmp_path, sweep={"variable": "n_users", "values": values}, **overrides)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["compare", str(spec_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize(
        "names,overrides",
        [
            (("shape_param",), {"pulse": {"shape_param": 1e-77}}),
            (("shape_param",), {"pulse": {"shape_param": 8e-78}}),
            (("sinr_db",), {"sweep": {"variable": "sinr_db", "values": [-4000]}}),
            (("ebno_db",), {"sweep": {"variable": "ebno_db", "values": [-4000]}}),
            (("sinr_db", "e1"), {"e1": 1e308, "sweep": {"variable": "sinr_db", "values": [-10]}}),
        ],
        ids=["doublet-edge-nan", "doublet-edge-overflow", "sinr-overflow", "ebno-overflow", "e1-overflow"],
    )
    def test_overflow_exits_2_naming_the_field(self, tmp_path, capsys, names, overrides):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path, **overrides)))
        assert main(["analyze", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names)
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"pulse": {"shape_param": 1e-60}},
            {"pulse": {}},
            {"sweep": {"variable": "sinr_db", "values": [-400]}},
            {"sweep": {"variable": "ebno_db", "values": [-400]}},
        ],
        ids=["narrow-doublet", "default-doublet", "sinr-extreme", "ebno-extreme"],
    )
    def test_extreme_finite_settings_run(self, tmp_path, overrides):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path, **overrides)))
        assert main(["analyze", str(spec_path)]) == 0
        rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(row.split(",")[3])) for row in rows)

    @staticmethod
    def _custom_taps_spec(tmp_path, tap):
        spec_path = tmp_path / "spec.json"
        spec = tiny_spec(
            tmp_path,
            n_frames=4,
            channel={"source": "custom", "taps": [tap, tap]},
            sweep={"variable": "n_users", "values": [3]},
            noise_psd=0.01,
            analytic_modes=["sync", "async_sga", "async_exact"],
        )
        spec_path.write_text(json.dumps(spec))
        return spec_path

    @pytest.mark.parametrize("tap", [8e76, 1e80, 1e160])
    def test_custom_taps_that_overflow_exit_2_naming_the_field(self, tmp_path, capsys, tap):
        # such taps used to write sync 0.5 and NaN analytic rows, or NaN and a
        # simulated 0.0, and exit 0
        assert main(["compare", str(self._custom_taps_spec(tmp_path, tap))]) == 2
        assert "channel.taps" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    def test_largest_admitted_custom_taps_keep_their_beps(self, tmp_path):
        beps = {}
        for tap in (1e50, 1e76):
            assert main(["compare", str(self._custom_taps_spec(tmp_path, tap))]) == 0
            rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
            beps[tap] = [float(row.split(",")[3]) for row in rows]
        assert all(math.isfinite(value) for value in beps[1e76])
        assert beps[1e76] == pytest.approx(beps[1e50], rel=1e-9, abs=0)

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        # --seed is checked by the argument parser, like validate-lemmas' --seed
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path)))
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(spec_path), "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("command", ["analyze", "simulate", "compare", "validate-lemmas"])
    @pytest.mark.parametrize(
        "seed,shown",
        [
            ("-1", "'-1'"),
            (str(2**128), f"'{2**128}'"),
            ("1" + "0" * 5000, f"'{10**39}'... (5,001 characters)"),
            ("12x", "'12x'"),
        ],
        ids=["negative", "2**128", "5001-digits", "not-a-number"],
    )
    def test_every_seed_flag_has_the_spec_bound(self, tmp_path, capsys, monkeypatch, command, seed, shown):
        def never(*args, **kwargs):
            raise AssertionError("nothing may run")

        monkeypatch.setattr("thuwb.cli.run", never)
        monkeypatch.setattr("thuwb.cli.run_lemma_checks", never)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path)))
        argv = [command] + ([] if command == "validate-lemmas" else [str(spec_path)]) + ["--seed", seed]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: must be an integer >= 0 and <= {2**128 - 1}, got {shown}\n" in err
        assert len(err) < 400

    @pytest.mark.parametrize("command", ["analyze", "compare", "validate-lemmas"])
    def test_largest_seed_flag_is_accepted(self, tmp_path, monkeypatch, command):
        seeds = []
        written = experiment.RunResult("run.csv", "run.json", ())
        monkeypatch.setattr("thuwb.cli.run", lambda spec, **kwargs: seeds.append(spec.seed) or written)
        monkeypatch.setattr("thuwb.cli.run_lemma_checks", lambda *args: seeds.append(args[2]) or [])
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path)))
        argv = [command] + ([] if command == "validate-lemmas" else [str(spec_path)]) + ["--seed", str(2**128 - 1)]
        assert main(argv) == 0
        assert seeds == [2**128 - 1]

    @pytest.mark.parametrize(
        "flag,value",
        [("--symbols", "0"), ("--symbols", "-5"), ("--seed", "-1")],
        ids=["zero-symbols", "negative-symbols", "negative-seed"],
    )
    def test_lemma_check_bad_flag_exits_2_naming_it(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["validate-lemmas", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "6", "9" * 5000], ids=["zero", "six", "5000-digits"])
    def test_lemma_check_bad_lemma_exits_2_with_a_short_message(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["validate-lemmas", "--lemma", value])
        assert exc.value.code == 2
        # the usage lines, then one error line that quotes at most 40 characters of the value
        line = capsys.readouterr().err.splitlines()[-1]
        assert "argument --lemma: must be an integer >= 1 and <= 5, got " in line and len(line) < 200

    def test_lemma_bound_follows_the_check_table(self, capsys, monkeypatch):
        assert cli.CHECK_NUMBERS == validation.CHECK_NUMBERS == tuple(sorted(validation._CHECKS))
        numbers = []
        monkeypatch.setattr(cli, "run_lemma_checks", lambda lemma, *args: numbers.append(lemma) or [])
        for lemma in validation.CHECK_NUMBERS:
            assert main(["validate-lemmas", "--lemma", str(lemma)]) == 0
        assert numbers == list(validation.CHECK_NUMBERS)
        # a sixth check would need only its entry in the table
        monkeypatch.setattr(cli, "CHECK_NUMBERS", (1, 2, 3, 4, 5, 6))
        assert main(["validate-lemmas", "--lemma", "6"]) == 0
        with pytest.raises(SystemExit):
            main(["validate-lemmas", "--help"])
        assert "run one numbered check (1 to 6) only" in " ".join(capsys.readouterr().out.split())
        with pytest.raises(ValueError, match="no check numbered 6; choose from 1-5"):
            validation.run_lemma_checks(6)

    @pytest.mark.parametrize("value", [10**15, 10**8 + 1], ids=["1e15", "cap+1"])
    def test_lemma_check_symbols_above_the_cap_exits_2(self, capsys, monkeypatch, value):
        def never(*args):
            raise AssertionError("no check may run")

        monkeypatch.setattr("thuwb.cli.run_lemma_checks", never)
        with pytest.raises(SystemExit) as exc:
            main(["validate-lemmas", "--lemma", "1", "--symbols", str(value)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --symbols: must be an integer >= 1 and <= 100000000, got '{value}'" in err

    def test_lemma_check_symbols_at_the_cap_is_accepted(self, monkeypatch):
        calls = []
        monkeypatch.setattr("thuwb.cli.run_lemma_checks", lambda *args: calls.append(args) or [])
        assert main(["validate-lemmas", "--lemma", "1", "--symbols", str(10**8)]) == 0
        assert calls == [(1, 10**8, validation.DEFAULT_SEED)]

    def test_lemma_check_command(self, capsys):
        assert main(["validate-lemmas", "--lemma", "1", "--symbols", "20000"]) == 0
        out = capsys.readouterr().out
        assert "ifi variance (short spread)" in out
        assert "1/1 checks passed" in out

    def test_lemma_check_too_few_symbols_is_unresolved(self, capsys):
        # 3 standard errors exceed the 5% band: neither a pass nor a failure
        assert main(["validate-lemmas", "--lemma", "1", "--symbols", "1"]) == 2
        captured = capsys.readouterr()
        assert "[UNRESOLVED] ifi variance (short spread)" in captured.out
        assert "rel stderr" in captured.out
        assert "[FAIL]" not in captured.out
        assert "--symbols 1 is too small" in captured.err

    def test_lemma_check_two_drops_never_fail(self, capsys):
        # a standard error from two drop means needs the Student-t quantile of
        # the three-sigma coverage (236), not 3, before a check counts as resolved
        for seed in range(1, 201):
            main(["validate-lemmas", "--lemma", "1", "--symbols", "1", "--seed", str(seed)])
            assert "[FAIL]" not in capsys.readouterr().out, seed

    @pytest.mark.parametrize(
        "lemma,symbols,seed,name,reason",
        [
            # two 1-symbol drops that both read zero MAI: a zero standard error
            ("3", "1", "60", "mai variance (chip_sync)", "2 drops, below 3"),
            ("4", "1", "60", "mai variance (jitter 0.00 chip)", "2 drops, below 3"),
            # 20 drop means of one jitter draw each read z = 11.8 against a limit of 3.45
            ("5", "2000", "10", "mai variance (async average)", "20 drops, below 30"),
        ],
        ids=["relative-zero-stderr", "relative-jitter-zero-stderr", "z-skewed"],
    )
    def test_lemma_check_too_few_drops_is_unresolved(self, capsys, lemma, symbols, seed, name, reason):
        assert main(["validate-lemmas", "--lemma", lemma, "--symbols", symbols, "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert f"[UNRESOLVED] {name}" in captured.out
        assert reason in captured.out
        assert "[FAIL]" not in captured.out

    def test_lemma_check_resolved_mismatch_fails(self, capsys, monkeypatch):
        # a closed form off by 2x, at a sample size that resolves the band
        components = validation.analytic.ifi_variance_components
        monkeypatch.setattr(
            validation.analytic,
            "ifi_variance_components",
            lambda *a: tuple(2.0 * term for term in components(*a)),
        )
        assert main(["validate-lemmas", "--lemma", "1", "--symbols", "20000"]) == 2
        captured = capsys.readouterr()
        assert "[FAIL] ifi variance (short spread)" in captured.out
        assert "0/1 checks passed" in captured.out
        assert "--symbols" not in captured.err

    def test_lemma_check_under_sampled_z_check_is_unresolved(self, capsys):
        # two drop means at 1 symbol: the limit is the t quantile of 236, and that
        # many standard errors exceed the closed form, so no verdict is printed
        assert main(["validate-lemmas", "--lemma", "5", "--symbols", "1", "--seed", "3"]) == 2
        captured = capsys.readouterr()
        assert "[UNRESOLVED] mai variance (async average)" in captured.out
        assert "[FAIL]" not in captured.out
        assert "--symbols 1 is too small" in captured.err

    def test_lemma_check_resolved_z_mismatch_fails(self, capsys, monkeypatch):
        average = validation.analytic.mai_variance_async
        monkeypatch.setattr(validation.analytic, "mai_variance_async", lambda *a: 2.0 * average(*a))
        assert main(["validate-lemmas", "--lemma", "5", "--symbols", "20000"]) == 2
        captured = capsys.readouterr()
        assert "[FAIL] mai variance (async average)" in captured.out
        assert "--symbols" not in captured.err

    def test_lemma_check_list_is_pinned(self):
        names = [
            "ifi variance (short spread)",
            "ifi variance (long spread)",
            "mai variance (chip_sync)",
            "mai variance (symbol_sync)",
            "mai variance chip vs symbol sync",
            "mai variance (jitter 0.00 chip)",
            "mai variance (jitter 0.25 chip)",
            "mai variance (jitter 0.50 chip)",
            "mai variance (jitter 0.75 chip)",
            "mai variance (async average)",
            "async vs chip-sync-plus-jitter MAI variance",
        ]
        assert [c.name for c in validation.run_lemma_checks(None, symbols=1)] == names
        slices = {1: names[0:1], 2: names[1:2], 3: names[2:5], 4: names[5:9], 5: names[9:10]}
        for lemma, expected in slices.items():
            assert [c.name for c in validation.run_lemma_checks(lemma, symbols=1)] == expected

    def test_runtime_error_exit_code(self, tmp_path, monkeypatch, capsys):
        # a write that fails once the run is under way, here on a full disk, is a runtime
        # failure, not a spec error; an output location that cannot take the report at all
        # exits 2 before any point runs (test_bad_spec_or_output_path_exits_2_before_any_point_runs)
        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(experiment.csv, "writer", full_disk)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path)))
        assert main(["simulate", str(spec_path)]) == 1
        assert "runtime error: [Errno 28] No space left on device" in capsys.readouterr().err

    def test_console_script_installed(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "thuwb.cli", "analyze", str(tmp_path / "missing.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr
