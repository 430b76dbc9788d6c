"""Spec robustness as a tested property: seeded mutations of the shipped specs.

A bad spec must fail with ``SpecValidationError`` (exit 2, naming the
field), never with any other exception (exit 1), and an accepted run must
write only finite error probabilities in [0, 1]. The base specs are the
README reference spec and the benchmark's three workloads at their tiny
size; the mutations draw from values that have broken a spec before: zero,
negatives, tiny and huge floats, counts past 2**53, non-finite numbers and
the wrong JSON types.
"""

import copy
import csv
import importlib.util
import json
import math
import pathlib
import random
import re
import signal
from dataclasses import replace

import pytest

from thuwb.cli import main
from thuwb.experiment import ExperimentSpec, SpecValidationError, Sweep, parse_spec, run

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

EXTREMES = [0, -1, 1, 2.5, 1e-300, 1e300, 1.7e308, 2**53 + 1, 10**400, math.nan, -math.inf, True, None, "3", "", [], {}]

# keys a nested object may take besides the ones it has
NESTED_KEYS = ("source", "taps", "n_taps", "decay", "log_variance", "kind", "shape_param", "variable", "values")


class ProbeTimeout(BaseException):
    """The probe ran too long. Not an ``Exception``, so the CLI's catch-all cannot report it as exit 1."""


@pytest.fixture
def time_limit():
    """Fail a probe that runs longer than 30 s instead of hanging the suite."""

    def expire(signum, frame):
        raise ProbeTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 30)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def base_specs(output_path: str) -> list[dict]:
    readme = (ROOT / "README.md").read_text()
    reference = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    tiny = [workloads.make_spec(w, 1, output_path, tiny=True) for w in workloads.WORKLOADS]
    return [{**reference, "output_path": output_path}] + tiny


def mutate(rng: random.Random, spec: dict, pools: dict) -> dict:
    """``spec`` with one to three keys set to a value from ``pools`` (key -> values, default ``EXTREMES``) or dropped."""
    spec = copy.deepcopy(spec)
    for _ in range(rng.randint(1, 3)):
        target, key = spec, rng.choice(sorted(pools))
        if isinstance(target.get(key), dict) and rng.random() < 0.5:
            target, key = target[key], rng.choice(sorted(target[key]) + list(NESTED_KEYS))
        if rng.random() < 0.1:
            target.pop(key, None)
        elif isinstance(target.get(key), list) and target[key] and rng.random() < 0.5:
            target[key][rng.randrange(len(target[key]))] = rng.choice(pools.get(key, EXTREMES))
        else:
            target[key] = copy.deepcopy(rng.choice(pools.get(key, EXTREMES)))
    return spec


def test_mutated_specs_fail_only_with_spec_errors(time_limit):
    rng = random.Random(20260)
    pools = {name: EXTREMES for name in ExperimentSpec.__dataclass_fields__} | {"unknown": EXTREMES}
    outcomes = []
    for base in base_specs("out/run.csv"):
        for _ in range(100):
            spec = mutate(rng, base, pools)
            try:
                parse_spec(spec)
                outcomes.append("accepted")
            except SpecValidationError:
                outcomes.append("rejected")
            except Exception as exc:
                pytest.fail(f"{spec!r:.2000} raised {exc!r}")
    assert {"accepted", "rejected"} <= set(outcomes)


COUNT_FIELDS = ("n_users", "n_frames", "n_chips_per_frame", "n_drops", "symbols_per_drop", "analytic_realizations", "fingers")
BOUNDS = [(0, "must be >= 1"), (2**53 + 1, "must be at most 2**53"), (10**400, "must be at most 2**53")]


def analysis_spec() -> ExperimentSpec:
    return parse_spec({
        "channel": {"source": "fixed"}, "scheme": "srake", "fingers": 3, "simulate": False,
        "analytic_modes": ["sync"], "sweep": {"variable": "ebno_db", "values": [10]},
    })


@pytest.mark.parametrize("value,message", BOUNDS, ids=["zero", "2**53+1", "10**400"])
@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_replace_bounds_every_count(field, value, message):
    # such a spec once constructed, and an n_frames of 10**400 then ended in an OverflowError
    with pytest.raises(SpecValidationError) as raised:
        replace(analysis_spec(), **{field: value})
    assert str(raised.value) == f"{field} {message}"


@pytest.mark.parametrize("value,message", BOUNDS, ids=["zero", "2**53+1", "10**400"])
@pytest.mark.parametrize("variable", ["n_users", "fingers"])
def test_replace_bounds_every_count_sweep(variable, value, message):
    with pytest.raises(SpecValidationError) as raised:
        replace(analysis_spec(), sweep=Sweep(variable, (1, value)), ebno_db=10.0)
    assert str(raised.value) == f"sweep.values {message}"


@pytest.mark.parametrize(
    "change,message",
    [
        ({"channel": {"source": "lognormal", "n_taps": 10**5000}}, "channel.n_taps must be at most 2**53"),
        ({"channel": {"source": "lognormal", "n_taps": 2000}}, "channel.n_taps (2000) is above the cap of 1,024 paths"),
        ({"seed": 10**5000}, "seed must be below 2**128"),
        ({"seed": 2**128}, "seed must be below 2**128"),
    ],
    ids=["n_taps-10**5000", "n_taps-2000", "seed-10**5000", "seed-2**128"],
)
def test_integers_too_long_to_print_name_their_key(change, message):
    # an integer of over 4,300 digits cannot be printed: such an n_taps once
    # failed in the cap message and such a seed when the CSV was written
    spec = {**workloads.make_spec(workloads.AWGN_REF_COMPARE, 1, "out/run.csv", tiny=True), **change}
    with pytest.raises(SpecValidationError) as raised:
        parse_spec(spec)
    assert str(raised.value) == message


@pytest.mark.parametrize("seed", [2**64, 2**128 - 1])
def test_large_seed_runs(tmp_path, seed):
    output = tmp_path / "run.csv"
    spec = {**workloads.make_spec(workloads.AWGN_REF_COMPARE, 1, str(output), tiny=True), "seed": seed}
    run(parse_spec(spec), workers=1)
    with open(output, newline="") as fh:
        assert {row["seed"] for row in csv.DictReader(fh)} == {str(seed)}


@pytest.mark.parametrize(
    "change,message",
    [
        ({"e1": 1.7e308}, "sinr_db=0 with e1=1.7e+308 gives a noise density of 1.7e+308, above the bound of 1e+100"),
        ({"e1": 1.7e308, "noise_psd": 0.1, "sweep": {"variable": "n_users", "values": [2, 3]}},
         "e1 must be at most 1e+100"),
        ({"interferer_energy": 1.7e308, "noise_psd": 0.1, "sweep": {"variable": "n_users", "values": [2, 3]}},
         "interferer_energy must be at most 1e+100"),
        ({"noise_psd": 1e300, "sweep": {"variable": "n_users", "values": [2, 3]}},
         "noise_psd=1e+300 gives a noise density of 1e+300, above the bound of 1e+100"),
        ({"sweep": {"variable": "ebno_db", "values": [-2100, 10]}},
         "ebno_db=-2100 with e1=0.5 gives a noise density of 2.5e+209, above the bound of 1e+100"),
    ],
    ids=["e1-sinr", "e1", "interferer_energy", "noise_psd", "ebno"],
)
@pytest.mark.parametrize("workload", [workloads.AWGN_REF_COMPARE, workloads.FADING_SRAKE_COMPARE])
def test_energies_and_noise_densities_are_bounded(tmp_path, capsys, workload, change, message):
    # an e1 of 1.7e308 once overflowed the noise term: compare exited 0 and wrote a
    # simulated BEP of 0.46 at every SINR, and the fading closed form 0.5
    spec = {**workloads.make_spec(workload, 1, str(tmp_path / "run.csv"), tiny=True), **change}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["compare", str(spec_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("workload", [workloads.AWGN_REF_COMPARE, workloads.FADING_SRAKE_COMPARE])
def test_energies_at_the_bound_run(tmp_path, workload):
    output = tmp_path / "run.csv"
    spec = {**workloads.make_spec(workload, 1, str(output), tiny=True), "e1": 1e100, "interferer_energy": 1e100}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["compare", str(spec_path)]) == 0
    with open(output, newline="") as fh:
        beps = [float(row["bep"]) for row in csv.DictReader(fh)]
    assert beps and all(0.0 <= bep <= 1.0 for bep in beps)


# values that keep an accepted run small: every large count is rejected by a
# bound or a cap.
CLI_POOLS = {
    "n_users": [0, 1, 2, 2.5, "3", None, 1.7e308, 2**53 + 1],
    "n_frames": [0, 1, 2, 1.7e308, 10**15],
    "n_chips_per_frame": [0, 1, 2, 10**9, 1.7e308],
    "n_drops": [0, 1, 10**9, 2**53, 1.7e308],
    "symbols_per_drop": [0, 1, 10**9, 2**53 + 1],
    "analytic_realizations": [0, 1, 3, 10**9, 1.7e308],
    "fingers": [None, 0, 1, 20, 21, 1.7e308],
    "seed": [0, -1, 2**64, 1.5],
    "e1": [1e-300, 0, -1, 1.7e308, True],
    "interferer_energy": [1e-300, 0, 1.7e308],
    "sync_mode": ["async", "chip_sync", "symbol_sync", "x"],
    "scheme": ["arake", "srake", "prake", "egc", "x"],
    "polarity": [True, False, "false"],
    "channel": [
        {"source": "awgn"}, {"source": "fixed"}, {"source": "custom", "taps": [0.3, -1, 0.5]},
        {"source": "custom", "taps": [1e76, 1e76]}, {"source": "shared_lognormal", "n_taps": 1},
        {"source": "lognormal", "n_taps": 10**400}, {"source": "lognormal", "log_variance": 100, "decay": 1e-16},
    ],
    "pulse": [{"kind": "gaussian_doublet", "shape_param": 1e-60}, {"kind": "rectangular"}, {"kind": "x"}],
    "sweep": [
        {"variable": "ebno_db", "values": [-400, 0, 400]}, {"variable": "sinr_db", "values": [-400, 300]},
        {"variable": "fingers", "values": [1, 2]}, {"variable": "n_users", "values": [1, 2]},
    ],
    "noise_psd": [0, 1e-300, 1e300, -1, None],
    "sinr_db": [-400, 0, 400, None],
    "ebno_db": [-400, 0, 400, None],
    "analytic_modes": [[], ["sync", "async_exact", "async_sga", "awgn_sync", "awgn_async", "awgn_no_polarity_sync"]],
    "simulate": [True, False, 0],
}


def test_mutated_runs_exit_0_or_2_with_beps_in_range(tmp_path, capsys, time_limit):
    rng = random.Random(20261)
    output = tmp_path / "run.csv"
    bases = [{**base, "n_drops": 2, "symbols_per_drop": 50} for base in base_specs(str(output))]
    codes = []
    for case in range(80):
        spec = mutate(rng, bases[case % len(bases)], CLI_POOLS)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        output.unlink(missing_ok=True)
        codes.append(main([rng.choice(["analyze", "simulate", "compare"]), str(spec_path)]))
        assert codes[-1] in (0, 2), f"{spec!r:.2000} exited {codes[-1]}: {capsys.readouterr().err}"
        if codes[-1] == 0:
            with open(output, newline="") as fh:
                beps = [float(row["bep"]) for row in csv.DictReader(fh)]
            assert beps and all(0.0 <= bep <= 1.0 for bep in beps), spec
    assert {0, 2} <= set(codes)
