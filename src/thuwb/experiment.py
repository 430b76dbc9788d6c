"""Experiment specifications, sweep orchestration, and report emission.

A JSON spec describes one sweep: the link constants, the swept variable
(``sinr_db``, ``ebno_db``, ``fingers``, or ``n_users``), which closed-form
error probabilities to evaluate, and whether to run the Monte Carlo engine at
each point. ``run`` writes one CSV row per (point, mode) plus a JSON manifest
that echoes the fully resolved spec, so a run can be reproduced from its own
manifest.

Conventions: an SINR sweep solves the noise level from
``sinr_db = 10 log10(E1 / (sum_interferer_energy / N + noise_psd))`` and
refuses targets above the interference floor. An Eb/N0 sweep uses the
textbook BPSK mapping ``Eb/N0 = E1 / (2 * noise_psd)`` (``noise_psd`` is the
two-sided density).
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from . import __version__
from .analytic import BepMode, BepQuery, average_bep, bep
from .channel import FadingModel, SyncMode
from .model import GAUSSIAN_DOUBLET, RECTANGULAR, PulseShape, SystemParams, substream
from .rake import ARAKE, PRAKE, SCHEMES, SRAKE, select_weights
from .simulator import (
    AWGN,
    CUSTOM,
    FIXED,
    LOGNORMAL,
    SHARED_LOGNORMAL,
    ChannelSource,
    TrialConfig,
    estimate_bep,
)

__all__ = [
    "SpecValidationError",
    "ExperimentSpec",
    "RunResult",
    "parse_spec",
    "noise_psd_from_sinr",
    "noise_psd_from_ebno",
    "run",
]

SWEEP_VARIABLES = ("sinr_db", "ebno_db", "fingers", "n_users")

ANALYTIC_MODES = (
    BepMode.SYNC,
    BepMode.ASYNC_EXACT,
    BepMode.ASYNC_SGA,
    BepMode.AWGN_SYNC,
    BepMode.AWGN_ASYNC,
    BepMode.AWGN_NO_POLARITY_SYNC,
)

CSV_COLUMNS = ("sweep_var", "value", "mode", "bep", "ci_low", "ci_high", "trials", "seed")

_ANALYTIC_ENSEMBLE_STREAM = 1_000_003


class SpecValidationError(ValueError):
    """An experiment spec violated its schema or an invariant."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully validated experiment description with defaults applied."""

    n_users: int
    n_frames: int
    n_chips_per_frame: int
    e1: float
    interferer_energy: float
    pulse: PulseShape
    sync_mode: SyncMode
    scheme: str
    fingers: int | None
    polarity: bool
    channel_source: ChannelSource
    n_drops: int
    symbols_per_drop: int
    seed: int
    sweep_variable: str
    sweep_values: tuple
    analytic_modes: tuple
    simulate: bool
    analytic_realizations: int
    noise_psd: float | None
    sinr_db: float | None
    ebno_db: float | None
    output_path: str

    def to_dict(self) -> dict:
        """JSON-ready echo that :func:`parse_spec` accepts back unchanged."""
        pulse = {"kind": self.pulse.kind}
        if self.pulse.kind == GAUSSIAN_DOUBLET:
            pulse["shape_param"] = self.pulse.shape_param
        channel: dict = {"source": self.channel_source.kind}
        if self.channel_source.fading is not None:
            f = self.channel_source.fading
            channel.update(n_taps=f.n_taps, decay=f.decay, log_variance=f.log_variance)
        if self.channel_source.taps is not None:
            channel["taps"] = list(self.channel_source.taps)
        out = {
            "n_users": self.n_users,
            "n_frames": self.n_frames,
            "n_chips_per_frame": self.n_chips_per_frame,
            "e1": self.e1,
            "interferer_energy": self.interferer_energy,
            "pulse": pulse,
            "sync_mode": self.sync_mode.value,
            "scheme": self.scheme,
            "fingers": self.fingers,
            "polarity": self.polarity,
            "channel": channel,
            "n_drops": self.n_drops,
            "symbols_per_drop": self.symbols_per_drop,
            "seed": self.seed,
            "sweep": {"variable": self.sweep_variable, "values": list(self.sweep_values)},
            "analytic_modes": [m.value for m in self.analytic_modes],
            "simulate": self.simulate,
            "analytic_realizations": self.analytic_realizations,
            "output_path": self.output_path,
        }
        for key in ("noise_psd", "sinr_db", "ebno_db"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


# the spec's keys are the field names, except that "channel" holds channel_source
# and "sweep" holds sweep_variable and sweep_values
_TOP_KEYS = {
    {"channel_source": "channel", "sweep_variable": "sweep", "sweep_values": "sweep"}.get(f.name, f.name)
    for f in fields(ExperimentSpec)
}


@dataclass(frozen=True)
class RunResult:
    csv_path: str
    manifest_path: str
    rows: tuple


def noise_psd_from_sinr(e1: float, interferer_sum: float, processing_gain: int, sinr_db: float) -> float:
    """Invert the SINR definition for the noise density.

    Raises when the requested SINR exceeds what zero noise allows, i.e. the
    target is below the multiple-access-interference floor.
    """
    noise = e1 * 10.0 ** (-sinr_db / 10.0) - interferer_sum / processing_gain
    if noise < 0:
        raise SpecValidationError(
            f"SINR unattainable: MAI floor exceeds target (sinr_db={sinr_db:g})"
        )
    return noise


def noise_psd_from_ebno(e1: float, ebno_db: float) -> float:
    """Noise density for a target Eb/N0 with Eb/N0 = E1 / (2 * noise_psd)."""
    return e1 * 10.0 ** (-ebno_db / 10.0) / 2.0


def _fail(message: str):
    raise SpecValidationError(message)


def _number(value, name: str, cast=float):
    """``cast(value)``, failing with the field name unless it is a finite number."""
    try:
        number = cast(value)
        if math.isfinite(number):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    _fail(f"{name} must be a finite number, got {value!r}")


def _expect_keys(obj: dict, allowed: set, context: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        _fail(f"unknown keys in {context}: {', '.join(unknown)}")


def _parse_pulse(raw) -> PulseShape:
    if raw is None:
        return PulseShape.gaussian_doublet()
    if not isinstance(raw, dict):
        _fail("pulse must be an object")
    _expect_keys(raw, {"kind", "shape_param"}, "pulse")
    kind = raw.get("kind", GAUSSIAN_DOUBLET)
    if kind == RECTANGULAR:
        if raw.get("shape_param") is not None:
            _fail("pulse: rectangular takes no shape_param")
        return PulseShape.rectangular()
    if kind != GAUSSIAN_DOUBLET:
        _fail(f"pulse: unknown kind {kind!r}")
    shape_param = raw.get("shape_param")
    if shape_param is not None:
        shape_param = _number(shape_param, "pulse.shape_param")
    try:
        return PulseShape.gaussian_doublet(shape_param=shape_param)
    except ValueError as exc:
        _fail(f"pulse: {exc}")


def _parse_channel(raw) -> ChannelSource:
    if raw is None:
        return ChannelSource(FIXED)
    if not isinstance(raw, dict):
        _fail("channel must be an object")
    _expect_keys(raw, {"source", "n_taps", "decay", "log_variance", "taps"}, "channel")
    source = raw.get("source", FIXED)
    if source in (LOGNORMAL, SHARED_LOGNORMAL):
        n_taps = _number(raw.get("n_taps", 20), "channel.n_taps", int)
        decay = _number(raw.get("decay", 0.25), "channel.decay")
        log_variance = _number(raw.get("log_variance", 1.0), "channel.log_variance")
        try:
            fading = FadingModel(n_taps=n_taps, decay=decay, log_variance=log_variance)
        except ValueError as exc:
            _fail(f"channel: {exc}")
        return ChannelSource(source, fading=fading)
    if source == CUSTOM:
        if "taps" not in raw:
            _fail("channel: custom source requires taps")
        taps = raw["taps"]
        if not isinstance(taps, (list, tuple)) or not taps:
            _fail("channel: taps must be a non-empty list")
        return ChannelSource(CUSTOM, taps=tuple(_number(t, "channel.taps") for t in taps))
    if source in (FIXED, AWGN):
        return ChannelSource(source)
    _fail(f"channel: unknown source {source!r}")


def parse_spec(source) -> ExperimentSpec:
    """Parse and validate a spec from a JSON file path or an already-loaded dict."""
    if isinstance(source, dict):
        raw = dict(source)
    else:
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            _fail(f"spec file not found: {source}")
        except json.JSONDecodeError as exc:
            _fail(f"spec is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            _fail("spec must be a JSON object")
    _expect_keys(raw, _TOP_KEYS, "spec")

    n_users = _number(raw.get("n_users", 10), "n_users", int)
    n_frames = _number(raw.get("n_frames", 15), "n_frames", int)
    n_chips = _number(raw.get("n_chips_per_frame", 5), "n_chips_per_frame", int)
    e1 = _number(raw.get("e1", 0.5), "e1")
    e_int = _number(raw.get("interferer_energy", 1.0), "interferer_energy")
    n_drops = _number(raw.get("n_drops", 200), "n_drops", int)
    symbols_per_drop = _number(raw.get("symbols_per_drop", 500), "symbols_per_drop", int)
    seed = _number(raw.get("seed", 12345), "seed", int)
    analytic_realizations = _number(raw.get("analytic_realizations", 2000), "analytic_realizations", int)
    for name, value in (
        ("n_users", n_users),
        ("n_frames", n_frames),
        ("n_chips_per_frame", n_chips),
        ("n_drops", n_drops),
        ("symbols_per_drop", symbols_per_drop),
        ("analytic_realizations", analytic_realizations),
    ):
        if value < 1:
            _fail(f"{name} must be >= 1")
    if e1 <= 0 or e_int <= 0:
        _fail("e1 and interferer_energy must be > 0")

    pulse = _parse_pulse(raw.get("pulse"))
    channel_source = _parse_channel(raw.get("channel"))

    try:
        sync_mode = SyncMode(raw.get("sync_mode", "chip_sync"))
    except ValueError:
        _fail(f"sync_mode must be one of {[m.value for m in SyncMode]}")

    scheme = raw.get("scheme", ARAKE)
    if scheme not in SCHEMES:
        _fail(f"scheme must be one of {list(SCHEMES)}")
    fingers = raw.get("fingers")
    if fingers is not None:
        fingers = _number(fingers, "fingers", int)
        if fingers < 1:
            _fail("fingers must be >= 1")

    polarity = raw.get("polarity", True)
    simulate = raw.get("simulate", True)
    for name, flag in (("polarity", polarity), ("simulate", simulate)):
        if not isinstance(flag, bool):
            _fail(f"{name} must be true or false, got {flag!r}")

    sweep = raw.get("sweep")
    if not isinstance(sweep, dict):
        _fail("spec requires a sweep object")
    _expect_keys(sweep, {"variable", "values"}, "sweep")
    variable = sweep.get("variable")
    if variable not in SWEEP_VARIABLES:
        _fail(f"sweep.variable must be one of {list(SWEEP_VARIABLES)}")
    values = sweep.get("values")
    if not isinstance(values, (list, tuple)) or not values:
        _fail("sweep.values must be a non-empty list")
    values = tuple(_number(v, "sweep.values") for v in values)
    if any(b <= a for a, b in zip(values, values[1:])):
        _fail("sweep values must be strictly increasing")
    if variable in ("fingers", "n_users"):
        if any(v != int(v) or v < 1 for v in values):
            _fail(f"sweep over {variable} requires positive integer values")
        values = tuple(int(v) for v in values)

    raw_modes = raw.get("analytic_modes", [])
    if not isinstance(raw_modes, (list, tuple)):
        _fail("analytic_modes must be a list")
    modes = []
    allowed = {m.value for m in ANALYTIC_MODES}
    for name in raw_modes:
        if name not in allowed:
            _fail(f"analytic_modes: unknown mode {name!r} (choose from {sorted(allowed)})")
        modes.append(BepMode(name))
    if not simulate and not modes:
        _fail("at least one of simulate or analytic_modes must be requested")

    noise_psd, sinr_db, ebno_db = (
        None if raw.get(name) is None else _number(raw[name], name)
        for name in ("noise_psd", "sinr_db", "ebno_db")
    )
    noise_fields = [n for n, v in (("noise_psd", noise_psd), ("sinr_db", sinr_db), ("ebno_db", ebno_db)) if v is not None]
    if variable in ("sinr_db", "ebno_db"):
        if noise_fields:
            _fail(f"{', '.join(noise_fields)} cannot be set when sweeping {variable}")
    else:
        if len(noise_fields) != 1:
            _fail(f"sweeping {variable} requires exactly one of noise_psd, sinr_db, ebno_db")
    if noise_psd is not None and noise_psd < 0:
        _fail("noise_psd must be >= 0")

    if scheme in (SRAKE, PRAKE) and fingers is None and variable != "fingers":
        _fail(f"scheme {scheme} requires fingers")
    if variable == "fingers" and scheme == ARAKE:
        _fail("sweeping fingers requires a finger-limited scheme (srake, prake, or egc)")
    most_fingers = max(values) if variable == "fingers" else fingers
    if most_fingers is not None and most_fingers > channel_source.n_taps:
        _fail(f"fingers ({most_fingers}) exceeds the number of channel paths ({channel_source.n_taps})")

    return ExperimentSpec(
        n_users=n_users,
        n_frames=n_frames,
        n_chips_per_frame=n_chips,
        e1=e1,
        interferer_energy=e_int,
        pulse=pulse,
        sync_mode=sync_mode,
        scheme=scheme,
        fingers=fingers,
        polarity=polarity,
        channel_source=channel_source,
        n_drops=n_drops,
        symbols_per_drop=symbols_per_drop,
        seed=seed,
        sweep_variable=variable,
        sweep_values=values,
        analytic_modes=tuple(modes),
        simulate=simulate,
        analytic_realizations=analytic_realizations,
        noise_psd=noise_psd,
        sinr_db=sinr_db,
        ebno_db=ebno_db,
        output_path=str(raw.get("output_path", "thuwb_run.csv")),
    )


def _point_settings(spec: ExperimentSpec, value) -> tuple[SystemParams, int | None]:
    """System parameters and effective finger count at one sweep point."""
    n_users = spec.n_users
    fingers = spec.fingers
    if spec.sweep_variable == "n_users":
        n_users = int(value)
    elif spec.sweep_variable == "fingers":
        fingers = int(value)
    interferer_sum = (n_users - 1) * spec.interferer_energy
    gain = spec.n_frames * spec.n_chips_per_frame
    if spec.sweep_variable == "sinr_db":
        noise = noise_psd_from_sinr(spec.e1, interferer_sum, gain, float(value))
    elif spec.sweep_variable == "ebno_db":
        noise = noise_psd_from_ebno(spec.e1, float(value))
    elif spec.noise_psd is not None:
        noise = spec.noise_psd
    elif spec.sinr_db is not None:
        noise = noise_psd_from_sinr(spec.e1, interferer_sum, gain, spec.sinr_db)
    else:
        noise = noise_psd_from_ebno(spec.e1, spec.ebno_db)
    energies = (spec.e1,) + (spec.interferer_energy,) * (n_users - 1)
    params = SystemParams(
        n_users=n_users,
        n_frames=spec.n_frames,
        n_chips_per_frame=spec.n_chips_per_frame,
        bit_energy=energies,
        noise_psd=noise,
    )
    return params, fingers


def _analytic_query(spec, params, fingers, mode, channels):
    weights = select_weights(channels[0], spec.scheme, fingers)
    return BepQuery(
        params=params,
        mode=mode,
        channels=tuple(channels),
        weights=weights,
        pulse=spec.pulse,
        seed=spec.seed,
    )


def _analytic_bep(spec: ExperimentSpec, params: SystemParams, fingers, mode: BepMode) -> float:
    if mode not in (BepMode.SYNC, BepMode.ASYNC_EXACT, BepMode.ASYNC_SGA):
        return bep(BepQuery(params=params, mode=mode, pulse=spec.pulse, seed=spec.seed))
    source = spec.channel_source
    if source.fading is None:
        return bep(_analytic_query(spec, params, fingers, mode, source.draw(params.n_users, None)))
    # fading ensemble: average over a reproducible set of realizations shared
    # by every sweep point, so curves differ only through the swept variable
    queries = []
    for r in range(spec.analytic_realizations):
        rng = substream(spec.seed, _ANALYTIC_ENSEMBLE_STREAM, r)
        queries.append(_analytic_query(spec, params, fingers, mode, source.draw(params.n_users, rng)))
    mean, _ = average_bep(queries)
    return mean


def _point_rows(spec: ExperimentSpec, value) -> list[dict]:
    params, fingers = _point_settings(spec, value)
    rows = []
    for mode in spec.analytic_modes:
        rows.append(
            {
                "sweep_var": spec.sweep_variable,
                "value": value,
                "mode": mode.value,
                "bep": _analytic_bep(spec, params, fingers, mode),
                "ci_low": None,
                "ci_high": None,
                "trials": None,
                "seed": spec.seed,
            }
        )
    if spec.simulate:
        config = TrialConfig(
            params=params,
            pulse=spec.pulse,
            sync_mode=spec.sync_mode,
            scheme=spec.scheme,
            fingers=fingers,
            polarity_enabled=spec.polarity,
            channel_source=spec.channel_source,
            n_drops=spec.n_drops,
            symbols_per_drop=spec.symbols_per_drop,
            master_seed=spec.seed,
        )
        estimate = estimate_bep(config)
        rows.append(
            {
                "sweep_var": spec.sweep_variable,
                "value": value,
                "mode": "simulated",
                "bep": estimate.bep,
                "ci_low": estimate.ci95[0],
                "ci_high": estimate.ci95[1],
                "trials": estimate.trials,
                "seed": spec.seed,
            }
        )
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run(spec: ExperimentSpec, workers: int = 1, compare: bool = False) -> RunResult:
    """Evaluate every sweep point and write the CSV report plus a manifest.

    Points are independent, so ``workers > 1`` dispatches them to a process
    pool of at most one worker per point and per CPU; the writer runs in the
    caller and emits rows in sweep order, so the CSV is byte-identical for
    any worker count.
    """
    if compare and (not spec.simulate or not spec.analytic_modes):
        raise SpecValidationError("compare requires simulate plus at least one analytic mode")
    started = time.monotonic()
    values = list(spec.sweep_values)
    workers = min(workers, len(values), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(_point_rows, [spec] * len(values), values))
    else:
        per_point = [_point_rows(spec, v) for v in values]

    columns = list(CSV_COLUMNS)
    if compare:
        columns.append("rel_err")
        for rows in per_point:
            simulated = next(r for r in rows if r["mode"] == "simulated")
            for row in rows:
                if row["mode"] == "simulated" or row["bep"] == 0:
                    row["rel_err"] = None
                else:
                    row["rel_err"] = abs(simulated["bep"] - row["bep"]) / row["bep"]

    csv_path = spec.output_path
    directory = os.path.dirname(csv_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    rows = [row for point in per_point for row in point]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(c)) for c in columns])

    manifest_path = os.path.splitext(csv_path)[0] + ".manifest.json"
    manifest = {
        "tool": "thuwb",
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - started,
        "compare": compare,
        "spec": spec.to_dict(),
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return RunResult(csv_path=csv_path, manifest_path=manifest_path, rows=tuple(rows))
