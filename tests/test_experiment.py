import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import pytest

from thuwb import experiment, simulator, validation
from thuwb.analytic import BepMode, average_bep
from thuwb.channel import SyncMode
from thuwb.cli import main
from thuwb.experiment import (
    _ANALYTIC_ENSEMBLE_STREAM,
    SpecValidationError,
    noise_psd_from_ebno,
    noise_psd_from_sinr,
    parse_spec,
    run,
)
from thuwb.model import substream

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

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InlinePool)
    return pools


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
        ],
        ids=["lognormal", "custom", "fixed-noise_psd", "awgn-ebno_db", "shared_lognormal", "defaults"],
    )
    def test_round_trip_through_to_dict(self, spec):
        parsed = parse_spec(spec)
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
    def test_sinr_inversion_anchor(self):
        value = noise_psd_from_sinr(0.5, 9.0, 75, 2.0)
        assert value == pytest.approx(0.195479, abs=1e-6)

    def test_sinr_unattainable(self):
        with pytest.raises(SpecValidationError, match="SINR unattainable: MAI floor exceeds target"):
            noise_psd_from_sinr(0.5, 9.0, 75, 10.0)

    def test_ebno_mapping(self):
        # Eb/N0 = E1 / (2 noise_psd), two-sided density convention
        assert noise_psd_from_ebno(1.0, 16.0) == pytest.approx(10 ** -1.6 / 2.0, abs=1e-12)


class TestRun:
    def test_csv_deterministic_and_complete(self, tmp_path):
        spec = parse_spec(tiny_spec(tmp_path))
        first = run(spec)
        content_a = open(first.csv_path, "rb").read()
        second = run(spec)
        content_b = open(second.csv_path, "rb").read()
        assert content_a == content_b
        header = content_a.decode().splitlines()[0]
        assert header == "sweep_var,value,mode,bep,ci_low,ci_high,trials,seed"
        # two points x (two analytic modes + simulated)
        assert len(first.rows) == 6

    def test_analytic_only_leaves_trials_empty(self, tmp_path):
        spec = parse_spec(tiny_spec(tmp_path, simulate=False))
        result = run(spec)
        lines = open(result.csv_path).read().splitlines()
        assert len(lines) == 5
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] in ("awgn_sync", "awgn_async")
            assert cells[4] == "" and cells[5] == "" and cells[6] == ""

    def test_compare_adds_relative_error(self, tmp_path):
        spec = parse_spec(tiny_spec(tmp_path))
        result = run(spec, compare=True)
        lines = open(result.csv_path).read().splitlines()
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
        manifest = json.load(open(result.manifest_path))
        assert manifest["tool"] == "thuwb"
        replay_spec = parse_spec(manifest["spec"])
        replay_spec = replace(replay_spec, output_path=str(tmp_path / "replay.csv"))
        replay = run(replay_spec, compare=manifest["compare"])
        original = open(result.csv_path).read()
        replayed = open(replay.csv_path).read()
        assert original == replayed

    def test_worker_count_does_not_change_output(self, tmp_path):
        spec = parse_spec(tiny_spec(tmp_path))
        serial = run(spec)
        serial_bytes = open(serial.csv_path, "rb").read()
        parallel = run(replace(spec, output_path=str(tmp_path / "par.csv")), workers=2)
        parallel_bytes = open(parallel.csv_path, "rb").read()
        assert serial_bytes.split(b"\n", 1)[1] == parallel_bytes.split(b"\n", 1)[1]

    @pytest.mark.parametrize("n_values,cpus,expected", [(2, 8, 2), (4, 3, 3)])
    def test_worker_count_is_capped(self, tmp_path, monkeypatch, inline_pool, n_values, cpus, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        values = [float(v) for v in range(n_values)]
        spec = parse_spec(
            tiny_spec(tmp_path, simulate=False, sweep={"variable": "sinr_db", "values": values})
        )
        run(spec, workers=10_000)
        assert inline_pool == [expected]

    @pytest.mark.parametrize("simulate", [True, False])
    def test_manifest_points_carry_timings_off_the_csv(self, tmp_path, monkeypatch, inline_pool, simulate):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        spec = parse_spec(tiny_spec(tmp_path, simulate=simulate))
        serial = run(spec)
        pooled = run(replace(spec, output_path=str(tmp_path / "pooled.csv")), workers=2)
        # a simulating SINR sweep runs in this process; an n_users sweep keeps the pool
        assert inline_pool == ([] if simulate else [2])
        users = replace(spec, sweep=experiment.Sweep("n_users", (2, 3)), noise=("noise_psd", 0.2))
        run(replace(users, output_path=str(tmp_path / "users.csv")), workers=2)
        assert inline_pool[-1] == 2
        assert open(serial.csv_path, "rb").read() == open(pooled.csv_path, "rb").read()
        header = open(serial.csv_path).readline()
        assert "cpu" not in header and "symbols" not in header
        for result in (serial, pooled):
            points = json.load(open(result.manifest_path))["points"]
            assert [p["value"] for p in points] == list(spec.sweep.values)
            for point in points:
                assert set(point) == {"value", "analytic_cpu_s", "simulate_cpu_s", "symbols_per_cpu_s"}
                assert point["analytic_cpu_s"] >= 0.0
                if simulate:
                    assert point["simulate_cpu_s"] > 0.0
                    trials = spec.n_drops * spec.symbols_per_drop
                    assert point["symbols_per_cpu_s"] == pytest.approx(trials / point["simulate_cpu_s"])
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
        assert open(serial.csv_path, "rb").read() == open(pooled.csv_path, "rb").read()
        points = json.load(open(serial.manifest_path))["points"]
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
        assert json.load(open(run(spec).manifest_path))["ensemble_cpu_s"] == 0.0
        fading = parse_spec(fading_spec(tmp_path, SINR_SWEEP))
        assert json.load(open(run(fading).manifest_path))["ensemble_cpu_s"] > 0.0

    def test_unattainable_point_fails_run(self, tmp_path):
        spec = parse_spec(
            tiny_spec(tmp_path, sweep={"variable": "sinr_db", "values": [0.0, 30.0]})
        )
        with pytest.raises(SpecValidationError, match="SINR unattainable"):
            run(spec)

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
        manifest = json.load(open(run(spec).manifest_path))
        points = manifest["points"]
        assert manifest["simulate_cpu_s"] == sum(p["simulate_cpu_s"] for p in points) > 0.0
        trials = len(points) * spec.n_drops * spec.symbols_per_drop
        assert manifest["symbols_per_cpu_s"] == trials / manifest["simulate_cpu_s"]
        analytic = parse_spec(tiny_spec(tmp_path, sweep=sweep, simulate=False, **noise))
        manifest = json.load(open(run(analytic).manifest_path))
        assert manifest["simulate_cpu_s"] == 0.0 and manifest["symbols_per_cpu_s"] is None


def fading_spec(tmp_path, sweep, **overrides):
    return tiny_spec(
        tmp_path,
        channel={"source": "lognormal", "n_taps": 6},
        scheme="srake",
        fingers=2,
        sweep=sweep,
        analytic_modes=["sync", "async_sga"],
        analytic_realizations=5,
        simulate=False,
        **overrides,
    )


N_USERS_SWEEP = {"variable": "n_users", "values": [2, 3, 5]}
SINR_SWEEP = {"variable": "sinr_db", "values": [0.0, 2.0]}


class TestFadingEnsemble:
    @pytest.mark.parametrize(
        "sweep,overrides,draws",
        [(N_USERS_SWEEP, {"noise_psd": 0.1}, 5 * 5), (SINR_SWEEP, {}, 5 * 3)],
        ids=["n_users", "sinr"],
    )
    def test_drawn_once_per_run(self, tmp_path, monkeypatch, sweep, overrides, draws):
        # one channel set per realization, for the most users of any point;
        # per point and mode it would be 100 and 60 draws
        calls = []
        draw = simulator.gen_lognormal_channel
        monkeypatch.setattr(simulator, "gen_lognormal_channel", lambda *a: calls.append(1) or draw(*a))
        spec = parse_spec(fading_spec(tmp_path, sweep, **overrides))
        run(spec)
        assert len(calls) == draws
        run(spec)
        assert len(calls) == 2 * draws

    def test_points_read_a_prefix_of_the_same_draws(self, tmp_path):
        spec = parse_spec(fading_spec(tmp_path, N_USERS_SWEEP, noise_psd=0.1))
        rows = run(spec).rows
        for row in rows:
            params, fingers = experiment._point_settings(spec, row["value"])
            queries = [
                experiment._analytic_query(
                    spec,
                    params,
                    fingers,
                    BepMode(row["mode"]),
                    spec.channel.draw(params.n_users, substream(spec.seed, _ANALYTIC_ENSEMBLE_STREAM, r)),
                )
                for r in range(spec.analytic_realizations)
            ]
            assert row["bep"] == average_bep(queries)[0]

    @pytest.mark.parametrize(
        "sweep,overrides", [(N_USERS_SWEEP, {"noise_psd": 0.1}), (SINR_SWEEP, {})], ids=["n_users", "sinr"]
    )
    def test_worker_count_does_not_change_output(self, tmp_path, sweep, overrides):
        spec = parse_spec(fading_spec(tmp_path, sweep, **overrides))
        serial = run(spec)
        parallel = run(replace(spec, output_path=str(tmp_path / "par.csv")), workers=2)
        assert open(serial.csv_path, "rb").read() == open(parallel.csv_path, "rb").read()


class TestCli:
    def test_spec_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sweep": {"variable": "sinr_db", "values": [2.0, 1.0]}}))
        assert main(["analyze", str(bad)]) == 2

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
        manifest = json.load(open(tmp_path / "run.manifest.json"))
        assert manifest["spec"]["seed"] == 7
        assert manifest["spec"]["analytic_modes"] == []

    def test_worker_env_variable(self, tmp_path, monkeypatch):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path)))
        monkeypatch.setenv("THUWB_WORKERS", "2")
        assert main(["simulate", str(spec_path)]) == 0
        parallel = open(tmp_path / "run.csv").read()
        monkeypatch.setenv("THUWB_WORKERS", "1")
        assert main(["simulate", str(spec_path)]) == 0
        serial = open(tmp_path / "run.csv").read()
        assert parallel == serial
        monkeypatch.setenv("THUWB_WORKERS", "many")
        assert main(["simulate", str(spec_path)]) == 2

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
        lines = open(tmp_path / "run.csv").read().splitlines()
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
        ],
    )
    def test_bad_field_exits_2_naming_it(self, tmp_path, capsys, field, overrides):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path, **overrides)))
        assert main(["compare", str(spec_path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,overrides",
        [("n_frames", {"n_frames": 10**12}), ("symbols_per_drop", {"symbols_per_drop": 10**15})],
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
        rows = open(tmp_path / "run.csv").read().splitlines()[1:]
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
            rows = open(tmp_path / "run.csv").read().splitlines()[1:]
            beps[tap] = [float(row.split(",")[3]) for row in rows]
        assert all(math.isfinite(value) for value in beps[1e76])
        assert beps[1e76] == pytest.approx(beps[1e50], rel=1e-9, abs=0)

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec(tmp_path)))
        assert main(["compare", str(spec_path), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

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

    def test_runtime_error_exit_code(self, tmp_path):
        # an unwritable output location is a runtime failure, not a spec error
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(tiny_spec(tmp_path, output_path="/dev/null/nope/run.csv"))
        )
        assert main(["simulate", str(spec_path)]) == 1

    def test_console_script_installed(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "thuwb.cli", "analyze", str(tmp_path / "missing.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr
