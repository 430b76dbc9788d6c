"""Experiment specifications, sweep orchestration, and report emission.

A JSON spec describes one sweep: the link constants, the swept variable
(``sinr_db``, ``ebno_db``, ``fingers``, or ``n_users``), which closed-form
error probabilities to evaluate, and whether to run the Monte Carlo engine at
each point. ``run`` writes one CSV row per (point, mode) plus a JSON manifest
that echoes the fully resolved spec, so a run can be reproduced from its own
manifest, and records each point's CPU time (kept out of the CSV).

Conventions: the noise level is one of ``noise_psd``, ``sinr_db`` or
``ebno_db``, fixed by the spec or swept. An SINR solves the noise level from
``sinr_db = 10 log10(E1 / (sum_interferer_energy / N + noise_psd))`` and
refuses targets above the interference floor. An Eb/N0 uses the textbook BPSK
mapping ``Eb/N0 = E1 / (2 * noise_psd)`` (``noise_psd`` is the two-sided
density).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import NamedTuple

from . import __version__
from .analytic import MULTIPATH_MODES, BepMode, BepQuery, average_bep, bep
from .channel import FadingModel, SyncMode
from .model import GAUSSIAN_DOUBLET, PulseShape, SystemParams, substream
from .rake import ARAKE, PRAKE, SCHEMES, SRAKE, select_weights
from .simulator import AWGN, CUSTOM, FIXED, LOGNORMAL, SHARED_LOGNORMAL
from .simulator import ChannelSource, NoiseSweep, TrialConfig, estimate_bep, guard_symbols

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

# the keys that can set the noise level; the last two are also sweep variables
NOISE_KEYS = ("noise_psd", "sinr_db", "ebno_db")

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

# Most entries a simulated drop's code arrays may hold, n_users x (symbols_per_drop
# + 2 guard symbols) x n_frames. Each costs a few bytes, and each decided frame
# of the desired user about 60 more; the shipped specs, demos, benchmark
# workloads and acceptance criteria stay below 310,000.
MAX_DROP_CODE_ELEMENTS = 10_000_000

# The bound on a custom channel's taps, energies and users (see ExperimentSpec): a
# margin of 16 below the largest double for the sums built on top of the bound.
_TAP_LIMIT = sys.float_info.max / 16


class SpecValidationError(ValueError):
    """An experiment spec violated its schema or an invariant."""


def _fail(message: str):
    raise SpecValidationError(message)


# coercers: (key, JSON value) -> field value, failing with a message that names the key


def _number(key: str, value) -> float:
    """``value`` as a float, if it is a finite real number (booleans and strings are not)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
            if math.isfinite(number):
                return number
        except OverflowError:
            pass
    _fail(f"{key} must be a finite number, got {value!r}")


def _integer(key: str, value) -> int:
    """``value`` as an int, unless it is not a whole number (``2.0`` is)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _number(key, value)
    if not number.is_integer():
        _fail(f"{key} must be a whole number, got {value!r}")
    return int(number)


def _instance(cls, description: str):
    """Coercer that passes instances of ``cls`` through unchanged."""

    def coerce(key: str, value):
        if not isinstance(value, cls):
            _fail(f"{key} must be {description}, got {value!r}")
        return value

    return coerce


_flag = _instance(bool, "true or false")


def _choice(options):
    """Coercer to the option equal to the value; enum members equal their string values."""

    def coerce(key: str, value):
        for option in options:
            if option == value:
                return option
        _fail(f"{key} must be one of {[getattr(o, 'value', o) for o in options]}, got {value!r}")

    return coerce


def _list(key: str, value, coerce, allow_empty: bool = False) -> tuple:
    if not isinstance(value, (list, tuple)) or not (value or allow_empty):
        _fail(f"{key} must be a {'list' if allow_empty else 'non-empty list'}")
    return tuple(coerce(key, item) for item in value)


def _object(key: str, value, allowed: set) -> dict:
    """A JSON object with no keys beyond ``allowed``; null stands for the empty object."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        _fail(f"{key} must be an object")
    unknown = sorted(set(value) - allowed)
    if unknown:
        _fail(f"unknown keys in {key}: {', '.join(unknown)}")
    return value


def _build(cls, key: str, *args, **kwargs):
    """``cls(*args, **kwargs)``, reporting its validation error under ``key``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        _fail(f"{key}: {exc}")


# the structured fields: decode and encode side by side


def _decode_pulse(key: str, value) -> PulseShape:
    raw = _object(key, value, {"kind", "shape_param"})
    shape_param = raw.get("shape_param")
    if shape_param is not None:
        shape_param = _number("pulse.shape_param", shape_param)
    return _build(PulseShape, key, raw.get("kind", GAUSSIAN_DOUBLET), shape_param=shape_param)


def _encode_pulse(pulse: PulseShape) -> dict:
    out = {"kind": pulse.kind}
    if pulse.shape_param is not None:
        out["shape_param"] = pulse.shape_param
    return out


# the keys each channel source reads besides "source"
_FADING_KEYS = ("n_taps", "decay", "log_variance")
_CHANNEL_KEYS = {
    FIXED: (),
    AWGN: (),
    CUSTOM: ("taps",),
    LOGNORMAL: _FADING_KEYS,
    SHARED_LOGNORMAL: _FADING_KEYS,
}


def _decode_channel(key: str, value) -> ChannelSource:
    raw = _object(key, value, {"source", "taps", *_FADING_KEYS})
    source = _choice(tuple(_CHANNEL_KEYS))(f"{key}.source", raw.get("source", FIXED))
    stray = sorted(set(raw) - {"source", *_CHANNEL_KEYS[source]})
    if stray:
        _fail(f"channel source {source} does not take {', '.join(f'{key}.{name}' for name in stray)}")
    if source in (LOGNORMAL, SHARED_LOGNORMAL):
        fading = _build(
            FadingModel,
            key,
            n_taps=_integer("channel.n_taps", raw.get("n_taps", 20)),
            decay=_number("channel.decay", raw.get("decay", 0.25)),
            log_variance=_number("channel.log_variance", raw.get("log_variance", 1.0)),
        )
        return ChannelSource(source, fading=fading)
    if source == CUSTOM:
        return ChannelSource(CUSTOM, taps=_list("channel.taps", raw.get("taps"), _number))
    return _build(ChannelSource, key, source)


def _encode_channel(source: ChannelSource) -> dict:
    out: dict = {"source": source.kind}
    if source.fading is not None:
        out.update(asdict(source.fading))
    if source.taps is not None:
        out["taps"] = list(source.taps)
    return out


class Sweep(NamedTuple):
    variable: str
    values: tuple


def _decode_sweep(key: str, value) -> Sweep:
    raw = _object(key, value, {"variable", "values"})
    variable = _choice(SWEEP_VARIABLES)("sweep.variable", raw.get("variable"))
    coerce = _integer if variable in ("fingers", "n_users") else _number
    return Sweep(variable, _list("sweep.values", raw.get("values"), coerce))


def _encode_sweep(sweep: Sweep) -> dict:
    return {"variable": sweep.variable, "values": list(sweep.values)}


def _field(default, decode, encode=lambda value: value, keys: tuple | None = None):
    """A spec field: its default and its JSON codec.

    ``decode(key, value)`` turns the JSON value at ``key`` into the field's
    value and ``encode`` turns it back. The JSON key is the field name, unless
    ``keys`` lists alternative top-level keys: then at most one of them may be
    set (null counts as unset), the field holds ``(key, decoded value)`` and
    ``encode`` returns the top-level entries.
    """
    return field(default=default, metadata={"decode": decode, "encode": encode, "keys": keys})


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec:
    """Fully validated experiment description.

    Each field's default and JSON codec are declared once, here; ``parse_spec``
    and ``to_dict`` walk the fields. Range and cross-field checks run on every
    construction, ``dataclasses.replace`` included.
    """

    n_users: int = _field(10, _integer)
    n_frames: int = _field(15, _integer)
    n_chips_per_frame: int = _field(5, _integer)
    e1: float = _field(0.5, _number)
    interferer_energy: float = _field(1.0, _number)
    pulse: PulseShape = _field(PulseShape.gaussian_doublet(), _decode_pulse, _encode_pulse)
    sync_mode: SyncMode = _field(SyncMode.CHIP_SYNC, _choice(SyncMode), lambda mode: mode.value)
    scheme: str = _field(ARAKE, _choice(SCHEMES))
    fingers: int | None = _field(None, lambda key, value: None if value is None else _integer(key, value))
    polarity: bool = _field(True, _flag)
    channel: ChannelSource = _field(ChannelSource(FIXED), _decode_channel, _encode_channel)
    n_drops: int = _field(200, _integer)
    symbols_per_drop: int = _field(500, _integer)
    seed: int = _field(12345, _integer)
    sweep: Sweep = _field(MISSING, _decode_sweep, _encode_sweep)
    analytic_modes: tuple = _field(
        (),
        lambda key, value: _list(key, value, _choice(ANALYTIC_MODES), allow_empty=True),
        lambda modes: [mode.value for mode in modes],
    )
    simulate: bool = _field(True, _flag)
    analytic_realizations: int = _field(2000, _integer)
    output_path: str = _field("thuwb_run.csv", _instance(str, "a string"))
    # the fixed noise level; None when the sweep sets it
    noise: tuple | None = _field(
        None,
        lambda key, value: (key, _number(key, value)),
        lambda noise: {} if noise is None else dict([noise]),
        keys=NOISE_KEYS,
    )

    def __post_init__(self):
        counts = ("n_users", "n_frames", "n_chips_per_frame", "n_drops", "symbols_per_drop", "analytic_realizations")
        for name in counts + ("fingers",):
            value = getattr(self, name)
            if value is not None and value < 1:
                _fail(f"{name} must be >= 1")
        if self.seed < 0:
            _fail("seed must be >= 0")
        if not self.output_path:
            _fail("output_path must not be empty")
        if self.e1 <= 0 or self.interferer_energy <= 0:
            _fail("e1 and interferer_energy must be > 0")

        variable, values = self.sweep
        users = values[-1] if variable == "n_users" else self.n_users
        if any(b <= a for a, b in zip(values, values[1:])):
            _fail("sweep values must be strictly increasing")
        if variable in ("fingers", "n_users") and values[0] < 1:
            _fail(f"sweep.values must be >= 1 when sweeping {variable}")
        if not self.simulate and not self.analytic_modes:
            _fail("at least one of simulate or analytic_modes must be requested")

        if variable in NOISE_KEYS:
            if self.noise is not None:
                _fail(f"{self.noise[0]} cannot be set when sweeping {variable}")
        elif self.noise is None:
            _fail(f"sweeping {variable} requires exactly one of {', '.join(NOISE_KEYS)}")
        elif self.noise[0] == "noise_psd" and self.noise[1] < 0:
            _fail("noise_psd must be >= 0")

        if self.simulate:
            guard = guard_symbols(self.channel.n_taps, self.n_frames * self.n_chips_per_frame)
            elements = users * (self.symbols_per_drop + 2 * guard) * self.n_frames
            if elements > MAX_DROP_CODE_ELEMENTS:
                _fail(
                    f"a drop's code arrays would hold n_users ({users}) x (symbols_per_drop "
                    f"({self.symbols_per_drop}) + 2 x {guard} guard) x n_frames ({self.n_frames}) = "
                    f"{elements:.3g} entries, above the cap of {MAX_DROP_CODE_ELEMENTS:,}"
                )

        if self.channel.kind == CUSTOM:
            # by Cauchy-Schwarz every correlation entry is at most (sum |taps|)^2, so every
            # variance sum, weighted by energy and summed over users and lags, stays finite
            scale = max(1.0, sum(abs(t) for t in self.channel.taps))
            energy = max(1.0, self.e1, self.interferer_energy)
            lags = 2 * len(self.channel.taps) + 1
            if not energy * users * lags * (scale * scale) * (scale * scale) < _TAP_LIMIT:
                _fail(
                    f"channel.taps too large (sum |taps| = {scale:.3g}): max(1, e1, interferer_energy) x n_users "
                    f"({users}) x (2 L + 1) x max(1, sum |taps|)^4 must stay below {_TAP_LIMIT:.3g}"
                )

        if self.scheme in (SRAKE, PRAKE) and self.fingers is None and variable != "fingers":
            _fail(f"scheme {self.scheme} requires fingers")
        if variable == "fingers" and self.scheme == ARAKE:
            _fail("sweeping fingers requires a finger-limited scheme (srake, prake, or egc)")
        most_fingers = values[-1] if variable == "fingers" else self.fingers
        if most_fingers is not None and most_fingers > self.channel.n_taps:
            _fail(f"fingers ({most_fingers}) exceeds the number of channel paths ({self.channel.n_taps})")

    def to_dict(self) -> dict:
        """JSON-ready echo that :func:`parse_spec` accepts back unchanged."""
        out = {}
        for f in fields(self):
            encoded = f.metadata["encode"](getattr(self, f.name))
            if f.metadata["keys"]:
                out.update(encoded)
            else:
                out[f.name] = encoded
        return out


def _json_keys(f) -> tuple:
    return f.metadata["keys"] or (f.name,)


_TOP_KEYS = {key for f in fields(ExperimentSpec) for key in _json_keys(f)}


@dataclass(frozen=True)
class RunResult:
    csv_path: str
    manifest_path: str
    rows: tuple


def _scaled_energy(e1: float, key: str, level_db: float) -> float:
    """``e1 * 10 ** (-level_db / 10)``, failing under ``key`` unless it is finite."""
    try:
        value = e1 * 10.0 ** (-level_db / 10.0)
        if math.isfinite(value):
            return value
    except OverflowError:
        pass
    _fail(f"{key}={level_db:g} with e1={e1:g} gives a noise density that is not finite")


def noise_psd_from_sinr(e1: float, interferer_sum: float, processing_gain: int, sinr_db: float) -> float:
    """Invert the SINR definition for the noise density.

    Raises when the requested SINR exceeds what zero noise allows, i.e. the
    target is below the multiple-access-interference floor, or when the
    density overflows.
    """
    noise = _scaled_energy(e1, "sinr_db", sinr_db) - interferer_sum / processing_gain
    if noise < 0:
        raise SpecValidationError(
            f"SINR unattainable: MAI floor exceeds target (sinr_db={sinr_db:g})"
        )
    return noise


def noise_psd_from_ebno(e1: float, ebno_db: float) -> float:
    """Noise density for a target Eb/N0 with Eb/N0 = E1 / (2 * noise_psd); raises if it overflows."""
    return _scaled_energy(e1, "ebno_db", ebno_db) / 2.0


def parse_spec(source) -> ExperimentSpec:
    """Parse and validate a spec from a JSON file path or an already-loaded dict."""
    if not isinstance(source, dict):
        try:
            with open(source) as fh:
                source = json.load(fh)
        except FileNotFoundError:
            _fail(f"spec file not found: {source}")
        except json.JSONDecodeError as exc:
            _fail(f"spec is not valid JSON: {exc}")
    raw = _object("spec", source, _TOP_KEYS)
    values = {}
    for f in fields(ExperimentSpec):
        keys = _json_keys(f)
        given = [(key, raw[key]) for key in keys if key in raw]
        if len(keys) > 1:
            given = [(key, value) for key, value in given if value is not None]
            if len(given) > 1:
                _fail(f"set at most one of {', '.join(keys)}, got {', '.join(key for key, _ in given)}")
        if given:
            values[f.name] = f.metadata["decode"](*given[0])
        elif f.default is MISSING:
            _fail(f"spec requires a {f.name} object")
    return ExperimentSpec(**values)


def _noise_psd(spec: ExperimentSpec, n_users: int, key: str, level: float) -> float:
    """The noise density that sets the noise level ``key`` to ``level`` with ``n_users`` users."""
    if key == "noise_psd":
        return level
    if key == "ebno_db":
        return noise_psd_from_ebno(spec.e1, level)
    interferer_sum = (n_users - 1) * spec.interferer_energy
    return noise_psd_from_sinr(spec.e1, interferer_sum, spec.n_frames * spec.n_chips_per_frame, level)


def _point_settings(spec: ExperimentSpec, value) -> tuple[SystemParams, int | None]:
    """System parameters and effective finger count at one sweep point."""
    variable = spec.sweep.variable
    n_users = value if variable == "n_users" else spec.n_users
    fingers = value if variable == "fingers" else spec.fingers
    key, level = (variable, value) if variable in NOISE_KEYS else spec.noise
    params = SystemParams(
        n_users=n_users,
        n_frames=spec.n_frames,
        n_chips_per_frame=spec.n_chips_per_frame,
        bit_energy=(spec.e1,) + (spec.interferer_energy,) * (n_users - 1),
        noise_psd=_noise_psd(spec, n_users, key, level),
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


def _analytic_ensemble(spec: ExperimentSpec) -> list | None:
    """The channel sets every sweep point averages over; None without a multipath mode.

    A fading channel gives ``analytic_realizations`` sets, one that does not
    fade a single set. Drawn once per run, for the most users any point has:
    users are drawn in turn, so a point with fewer users reads a prefix of
    the same draws.
    """
    if not set(spec.analytic_modes) & set(MULTIPATH_MODES):
        return None
    n_users = spec.sweep.values[-1] if spec.sweep.variable == "n_users" else spec.n_users
    if spec.channel.fading is None:
        return [spec.channel.draw(n_users, None)]
    rngs = (substream(spec.seed, _ANALYTIC_ENSEMBLE_STREAM, r) for r in range(spec.analytic_realizations))
    return [spec.channel.draw(n_users, rng) for rng in rngs]


def _analytic_bep(spec: ExperimentSpec, params: SystemParams, fingers, mode: BepMode, ensemble) -> float:
    if mode not in MULTIPATH_MODES:
        return bep(BepQuery(params=params, mode=mode, pulse=spec.pulse, seed=spec.seed))
    mean, _ = average_bep([_analytic_query(spec, params, fingers, mode, chs[: params.n_users]) for chs in ensemble])
    return mean


def _point_rows(spec: ExperimentSpec, value, ensemble, sweep: NoiseSweep | None = None) -> tuple[list[dict], dict]:
    """The CSV rows of one sweep point and its timings for the manifest.

    CPU time is read with ``time.process_time`` here, in whichever process
    runs the point, so it stays right when points go to a worker pool. The
    points of a simulating noise sweep share ``sweep``: the first point's
    simulate time carries the one drop pass that decides every point.
    """
    params, fingers = _point_settings(spec, value)

    def row(mode, bep, ci=(None, None), trials=None) -> dict:
        return dict(zip(CSV_COLUMNS, (spec.sweep.variable, value, mode, bep, *ci, trials, spec.seed)))

    started = time.process_time()
    rows = [row(mode.value, _analytic_bep(spec, params, fingers, mode, ensemble)) for mode in spec.analytic_modes]
    timing = {
        "value": value,
        "analytic_cpu_s": time.process_time() - started,
        "simulate_cpu_s": 0.0,
        "symbols_per_cpu_s": None,
    }
    if spec.simulate:
        config = TrialConfig(
            params=params,
            pulse=spec.pulse,
            sync_mode=spec.sync_mode,
            scheme=spec.scheme,
            fingers=fingers,
            polarity_enabled=spec.polarity,
            channel_source=spec.channel,
            n_drops=spec.n_drops,
            symbols_per_drop=spec.symbols_per_drop,
            master_seed=spec.seed,
        )
        started = time.process_time()
        estimate = estimate_bep(config, sweep)
        simulate_cpu = time.process_time() - started
        timing["simulate_cpu_s"] = simulate_cpu
        if simulate_cpu > 0:
            timing["symbols_per_cpu_s"] = estimate.trials / simulate_cpu
        rows.append(row("simulated", estimate.bep, estimate.ci95, estimate.trials))
    return rows, timing


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
    any worker count. A simulating noise sweep runs in the caller, because
    one drop pass serves all its points and each worker would repeat it.
    """
    if compare and (not spec.simulate or not spec.analytic_modes):
        raise SpecValidationError("compare requires simulate plus at least one analytic mode")
    started = time.monotonic()
    values = list(spec.sweep.values)
    shared = spec.simulate and spec.sweep.variable in NOISE_KEYS
    sweep = NoiseSweep(tuple(_point_settings(spec, v)[0].noise_psd for v in values)) if shared else None
    workers = 1 if shared else min(workers, len(values), os.cpu_count() or 1)
    ensemble_started = time.process_time()
    ensemble = _analytic_ensemble(spec)
    ensemble_cpu = 0.0 if ensemble is None else time.process_time() - ensemble_started
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_point_rows, [spec] * len(values), values, [ensemble] * len(values)))
    else:
        results = [_point_rows(spec, v, ensemble, sweep) for v in values]
    per_point = [rows for rows, _ in results]

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
    simulate_cpu = sum(timing["simulate_cpu_s"] for _, timing in results)
    trials = sum(row["trials"] for row in rows if row["mode"] == "simulated")
    manifest = {
        "tool": "thuwb",
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - started,
        "compare": compare,
        "spec": spec.to_dict(),
        "ensemble_cpu_s": ensemble_cpu,
        "simulate_cpu_s": simulate_cpu,
        "symbols_per_cpu_s": trials / simulate_cpu if trials and simulate_cpu > 0 else None,
        "points": [timing for _, timing in results],
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return RunResult(csv_path=csv_path, manifest_path=manifest_path, rows=tuple(rows))
