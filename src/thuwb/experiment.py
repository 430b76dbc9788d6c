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
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import __version__
from .analytic import MULTIPATH_MODES, BepMode, BepQuery, ClosedFormSweep, average_bep, bep
from .channel import FadingModel, SyncMode
from .model import GAUSSIAN_DOUBLET, QUAD_NODES, PulseShape, SystemParams, substream
from .rake import ARAKE, PRAKE, SCHEMES, SRAKE, select_weights
from .simulator import AWGN, CUSTOM, FIXED, LOGNORMAL, SHARED_LOGNORMAL
from .simulator import ChannelSource, NoiseSweep, TrialConfig, estimate_bep, guard_symbols

__all__ = [
    "SpecValidationError",
    "ExperimentSpec",
    "RunResult",
    "parse_spec",
    "run",
]

SWEEP_VARIABLES = ("sinr_db", "ebno_db", "fingers", "n_users")

# the keys that can set the noise level; the last two are also sweep variables
NOISE_KEYS = ("noise_psd", "sinr_db", "ebno_db")

CSV_COLUMNS = ("sweep_var", "value", "mode", "bep", "ci_low", "ci_high", "trials", "seed")

_ANALYTIC_ENSEMBLE_STREAM = 1_000_003

# Most a spec's count may be: the last whole number up to which a float holds
# every integer, so a count never overflows float arithmetic.
MAX_COUNT = 2**53
# Most entries a simulated drop's code arrays may hold, n_users x (symbols_per_drop
# + 2 guard symbols) x n_frames. Each costs a few bytes, and each decided frame
# of the desired user about 60 more; the shipped specs, demos, benchmark
# workloads and acceptance criteria stay below 310,000. The same cap bounds a
# drop's correlation tables, n_users x (4 (n_taps + 2 n_chips_per_frame + 1) + 2)
# floats, which the shipped specs keep below 1,300.
MAX_DROP_CODE_ELEMENTS = 10_000_000
# Most users a spec may have: every sweep point holds one energy per user, and
# an analysis-only AWGN spec meets no other cap.
MAX_USERS = 10_000_000

# Most paths a channel may have, on every source: each drawn channel's
# correlation sequence costs a dot product per lag, O(n_taps^2).
MAX_TAPS = 1024
# Most entries the analytic ensemble may hold, realizations x n_users x
# max(n_taps, QUAD_NODES): an asynchronous closed form evaluates every
# interferer at the QUAD_NODES jitter nodes, so a channel counts as at least
# that many. The shipped specs, demos, benchmark workloads and acceptance
# criteria stay below 1,300,000.
MAX_ANALYTIC_ELEMENTS = 10_000_000
# Most symbols a run may simulate (n_drops x symbols_per_drop per drop pass) and a
# lemma check may take (validate-lemmas --symbols); the specs of the README, the
# demos and the benchmark workloads simulate at most 100,000 per pass.
MAX_SYMBOLS = 100_000_000
# Seeds lie below this: numpy's SeedSequence mixes any seed into a 128-bit pool, so
# larger seeds reach no more streams, and one of over 4,300 digits could not even be
# printed in the CSV.
SEED_LIMIT = 2**128

# The bound on a custom channel's taps, energies and users (see ExperimentSpec): a
# margin of 16 below the largest double for the sums built on top of the bound.
_TAP_LIMIT = sys.float_info.max / 16
# The bound on e1, interferer_energy and every sweep point's noise density. A drawn
# lognormal tap passes exp(channel.MAX_LOG_VARIANCE) = 2.7e43 in magnitude only beyond
# 20 standard deviations (fixed and awgn taps are below 1), so with at most MAX_TAPS
# paths and MAX_USERS users every variance sum times this bound stays below 1e291, as
# does the noise term, and no closed form or simulated decision overflows. Custom taps
# meet _TAP_LIMIT, which bounds them together with the energies.
_ENERGY_LIMIT = 1e100


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


def _optional(coerce):
    """Coercer that reads null as None, the unset value."""
    return lambda key, value: None if value is None else coerce(key, value)


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
    shape_param = _optional(_number)("pulse.shape_param", raw.get("shape_param"))
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
        n_taps = _integer("channel.n_taps", raw.get("n_taps", 20))
        decay = _number("channel.decay", raw.get("decay", 0.25))
        log_variance = _number("channel.log_variance", raw.get("log_variance", 1.0))
        try:
            fading = FadingModel(n_taps=n_taps, decay=decay, log_variance=log_variance)
        except ValueError as exc:
            # FadingModel's messages start with the field they name
            _fail(f"{key}.{exc}")
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


def _field(default, decode, encode=lambda value: value):
    """A spec field: its default and its JSON codec.

    ``decode(key, value)`` turns the JSON value at ``key``, the field name,
    into the field's value and ``encode`` turns it back.
    """
    return field(default=default, metadata={"decode": decode, "encode": encode})


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
    fingers: int | None = _field(None, _optional(_integer))
    polarity: bool = _field(True, _flag)
    channel: ChannelSource = _field(ChannelSource(FIXED), _decode_channel, _encode_channel)
    n_drops: int = _field(200, _integer)
    symbols_per_drop: int = _field(500, _integer)
    seed: int = _field(12345, _integer)
    sweep: Sweep = _field(MISSING, _decode_sweep, _encode_sweep)
    analytic_modes: tuple = _field(
        (),
        lambda key, value: _list(key, value, _choice(BepMode), allow_empty=True),
        lambda modes: [mode.value for mode in modes],
    )
    simulate: bool = _field(True, _flag)
    analytic_realizations: int = _field(2000, _integer)
    output_path: str = _field("thuwb_run.csv", _instance(str, "a string"))
    # the fixed noise level, at most one of NOISE_KEYS; all None when the sweep sets it
    noise_psd: float | None = _field(None, _optional(_number))
    sinr_db: float | None = _field(None, _optional(_number))
    ebno_db: float | None = _field(None, _optional(_number))

    def __post_init__(self):
        variable, values = self.sweep
        counts = ("n_users", "n_frames", "n_chips_per_frame", "n_drops", "symbols_per_drop", "analytic_realizations", "fingers")
        bounded = [(name, getattr(self, name)) for name in counts] + [("channel.n_taps", self.channel.n_taps)]
        if variable in ("fingers", "n_users"):
            # the values strictly increase (checked below), so the ends bound the rest
            bounded += [("sweep.values", values[0]), ("sweep.values", values[-1])]
        for name, value in bounded:
            if value is not None and not 1 <= value <= MAX_COUNT:
                _fail(f"{name} must be >= 1" if value < 1 else f"{name} must be at most 2**53")
        if not 0 <= self.seed < SEED_LIMIT:
            _fail("seed must be >= 0" if self.seed < 0 else "seed must be below 2**128")
        if not self.output_path:
            _fail("output_path must not be empty")
        if self.e1 <= 0 or self.interferer_energy <= 0:
            _fail("e1 and interferer_energy must be > 0")

        users = _at(self, "n_users", values[-1])
        if any(b <= a for a, b in zip(values, values[1:])):
            _fail("sweep values must be strictly increasing")
        if not self.simulate and not self.analytic_modes:
            _fail("at least one of simulate or analytic_modes must be requested")
        repeated = [mode.value for i, mode in enumerate(self.analytic_modes) if mode in self.analytic_modes[:i]]
        if repeated:
            _fail(f"analytic_modes lists {repeated[0]} more than once")

        noise = [key for key in NOISE_KEYS if getattr(self, key) is not None]
        if len(noise) > 1:
            _fail(f"set at most one of {', '.join(NOISE_KEYS)}, got {', '.join(noise)}")
        if variable in NOISE_KEYS:
            if noise:
                _fail(f"{noise[0]} cannot be set when sweeping {variable}")
        elif not noise:
            _fail(f"sweeping {variable} requires exactly one of {', '.join(NOISE_KEYS)}")
        elif noise == ["noise_psd"] and self.noise_psd < 0:
            _fail("noise_psd must be >= 0")

        # the resource caps as (description, count, cap, unit) rows, checked in order
        n_taps = self.channel.n_taps
        paths = f"channel.taps ({n_taps} entries)" if self.channel.kind == CUSTOM else f"channel.n_taps ({n_taps})"
        caps = [(paths, n_taps, MAX_TAPS, "paths")]
        if set(self.analytic_modes) & set(MULTIPATH_MODES):
            # a channel that does not fade is drawn once, whatever analytic_realizations says
            realizations = 1 if self.channel.fading is None else self.analytic_realizations
            count = realizations * users * max(n_taps, QUAD_NODES)
            caps.append((f"the analytic ensemble of analytic_realizations ({realizations}) x n_users ({users}) x max("
                         f"channel.n_taps ({n_taps}), {QUAD_NODES}) = {count:,}", count, MAX_ANALYTIC_ELEMENTS, "entries"))
        if self.simulate:
            guard = guard_symbols(n_taps, self.n_frames * self.n_chips_per_frame)
            codes = users * (self.symbols_per_drop + 2 * guard) * self.n_frames
            tables = users * (4 * (n_taps + 2 * self.n_chips_per_frame + 1) + 2)
            passes = _drop_passes(self)
            symbols = self.n_drops * self.symbols_per_drop * passes
            caps += [
                (f"a drop's code arrays of n_users ({users}) x (symbols_per_drop ({self.symbols_per_drop}) + 2 x "
                 f"{guard} guard) x n_frames ({self.n_frames}) = {codes:,}", codes, MAX_DROP_CODE_ELEMENTS, "entries"),
                (f"a drop's correlation tables of n_users ({users}) x (4 x ({n_taps} paths + 2 x n_chips_per_frame "
                 f"({self.n_chips_per_frame}) + 1) + 2) = {tables:,}", tables, MAX_DROP_CODE_ELEMENTS, "entries"),
                (f"the run's simulated symbols, n_drops ({self.n_drops}) x symbols_per_drop ({self.symbols_per_drop}) "
                 f"x {passes} drop passes = {symbols:,}", symbols, MAX_SYMBOLS, "symbols"),
            ]
        caps.append((f"n_users ({users})", users, MAX_USERS, "users"))
        for description, count, cap, unit in caps:
            if count > cap:
                _fail(f"{description} is above the cap of {cap:,} {unit}")

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
        most_fingers = _at(self, "fingers", values[-1])
        if most_fingers is not None and most_fingers > n_taps:
            _fail(f"fingers ({most_fingers}) exceeds the number of channel paths ({n_taps})")

        if self.simulate and self.channel.kind == CUSTOM:
            # a Rake that collects no signal makes every decision statistic 0, which the
            # simulator counts as an error and the closed forms as a coin flip
            taps = np.array(self.channel.taps)
            for count in dict.fromkeys(_at(self, "fingers", value) for value in values):
                if not taps @ select_weights(taps, self.scheme, count) > 0:
                    _fail(f"channel.taps collect no signal with scheme {self.scheme} and fingers {count}")

        # every sweep point's noise level is reachable before any point runs
        for value in values:
            _noise_psd(self, value)
        for name in ("e1", "interferer_energy"):
            if getattr(self, name) > _ENERGY_LIMIT:
                _fail(f"{name} must be at most {_ENERGY_LIMIT:g}")

    def to_dict(self) -> dict:
        """JSON-ready echo of every set (not None) field, which :func:`parse_spec` accepts back unchanged."""
        present = ((f, getattr(self, f.name)) for f in fields(self))
        return {f.name: f.metadata["encode"](value) for f, value in present if value is not None}


@dataclass(frozen=True)
class RunResult:
    csv_path: str
    manifest_path: str
    rows: tuple


def parse_spec(source) -> ExperimentSpec:
    """Parse and validate a spec from a JSON file path or an already-loaded dict."""
    if not isinstance(source, dict):
        try:
            with open(source) as fh:
                source = json.load(fh)
        except FileNotFoundError:
            _fail(f"spec file not found: {source}")
        except OSError as exc:  # a directory, or a file it may not read
            _fail(f"cannot read spec file {source}: {exc.strerror or exc}")
        except RecursionError:
            _fail(f"spec file {source} nests too deeply to decode")
        except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
            _fail(f"spec is not valid JSON: {exc}")
    raw = _object("spec", source, {f.name for f in fields(ExperimentSpec)})
    values = {}
    for f in fields(ExperimentSpec):
        if f.name in raw:
            values[f.name] = f.metadata["decode"](f.name, raw[f.name])
        elif f.default is MISSING:
            _fail(f"spec requires a {f.name} object")
    return ExperimentSpec(**values)


def _at(spec: ExperimentSpec, name: str, value):
    """The field ``name`` at the sweep point ``value``: the point's value if ``name`` is swept, else the spec's."""
    return value if spec.sweep.variable == name else getattr(spec, name)


def _drop_passes(spec: ExperimentSpec) -> int:
    """Drop passes a simulating run makes: one decides every point of a noise sweep, any other sweep runs one per point."""
    return 1 if spec.sweep.variable in NOISE_KEYS else len(spec.sweep.values)


def _noise_psd(spec: ExperimentSpec, value) -> float:
    """The noise density at the sweep point ``value``, from the one noise key set there.

    Fails when the density is not finite or above ``_ENERGY_LIMIT``, and when
    an SINR target lies above the multiple-access-interference floor, which
    zero noise reaches.
    """
    key = next(key for key in NOISE_KEYS if _at(spec, key, value) is not None)
    level = _at(spec, key, value)
    if key == "noise_psd":
        noise, source = level, ""
    else:
        try:
            noise = spec.e1 * 10.0 ** (-level / 10.0)
        except OverflowError:
            noise = math.inf
        source = f" with e1={spec.e1:g}"
        if not math.isfinite(noise):
            _fail(f"{key}={level:g}{source} gives a noise density that is not finite")
    if key == "ebno_db":
        noise /= 2.0
    elif key == "sinr_db":
        noise -= (_at(spec, "n_users", value) - 1) * spec.interferer_energy / (spec.n_frames * spec.n_chips_per_frame)
        if noise < 0:
            _fail(f"SINR unattainable: MAI floor exceeds target (sinr_db={level:g})")
    if noise > _ENERGY_LIMIT:
        _fail(f"{key}={level:g}{source} gives a noise density of {noise:.3g}, above the bound of {_ENERGY_LIMIT:g}")
    return noise


def _point_settings(spec: ExperimentSpec, value) -> tuple[SystemParams, int | None]:
    """System parameters and effective finger count at one sweep point."""
    n_users = _at(spec, "n_users", value)
    params = SystemParams(
        n_users=n_users,
        n_frames=spec.n_frames,
        n_chips_per_frame=spec.n_chips_per_frame,
        bit_energy=(spec.e1,) + (spec.interferer_energy,) * (n_users - 1),
        noise_psd=_noise_psd(spec, value),
    )
    return params, _at(spec, "fingers", value)


def _analytic_query(spec, params, fingers, mode, taps):
    beta = select_weights(taps[0], spec.scheme, fingers)
    return BepQuery(params=params, mode=mode, taps=taps, beta=beta, pulse=spec.pulse)


def _analytic_ensemble(spec: ExperimentSpec):
    """The tap sets every sweep point averages over; None without a multipath mode.

    A read-only ``(R, n_users, L)`` array: a fading channel gives ``R =
    analytic_realizations`` sets, drawn in one :meth:`ChannelSource.draw`
    call from one stream, and one that does not fade a single set. Drawn
    once per run, for the most users any point has: users are drawn in turn,
    so a point with fewer users reads a prefix of the same draws,
    ``ensemble[r, :n_users]``.
    """
    if not set(spec.analytic_modes) & set(MULTIPATH_MODES):
        return None
    n_users = _at(spec, "n_users", spec.sweep.values[-1])
    if spec.channel.fading is None:
        return spec.channel.draw(n_users, None, (1,))
    return spec.channel.draw(n_users, substream(spec.seed, _ANALYTIC_ENSEMBLE_STREAM), (spec.analytic_realizations,))


def _analytic_bep(spec: ExperimentSpec, params: SystemParams, fingers, mode: BepMode, ensemble, form=None) -> tuple:
    """``(bep, se)`` of one closed form: the ensemble mean and its standard error, None without an ensemble.

    ``form`` is the mode's :class:`ClosedFormSweep` when the points of a noise sweep share one.
    """
    if mode not in MULTIPATH_MODES:
        return bep(BepQuery(params=params, mode=mode, pulse=spec.pulse)), None
    queries = [_analytic_query(spec, params, fingers, mode, taps[: params.n_users]) for taps in ensemble]
    mean, se = average_bep(queries, form)
    return mean, se if len(ensemble) > 1 else None


def _point_rows(
    spec: ExperimentSpec, value, ensemble, sweep: NoiseSweep | None = None, forms: dict | None = None
) -> tuple[list[dict], dict]:
    """The CSV rows of one sweep point, and its timings and analytic standard errors for the manifest.

    CPU time is read with ``time.process_time`` here, in whichever process
    runs the point, so it stays right when points go to a worker pool. The
    points of a simulating noise sweep share ``sweep``: the first point's
    simulate time carries the one drop pass that decides every point, and
    the later points, which only read their counts, report no throughput.
    Likewise the points of a noise sweep run in one process share ``forms``,
    one :class:`ClosedFormSweep` per ``sync`` or ``async_sga`` mode: the
    first point's analytic time carries each mode's variance breakdown.
    """
    params, fingers = _point_settings(spec, value)
    forms = forms or {}

    def row(mode, bep, ci=(None, None), trials=None) -> dict:
        return dict(zip(CSV_COLUMNS, (spec.sweep.variable, value, mode, bep, *ci, trials, spec.seed)))

    started = time.process_time()
    analytic = {
        mode.value: _analytic_bep(spec, params, fingers, mode, ensemble, forms.get(mode))
        for mode in spec.analytic_modes
    }
    rows = [row(mode, mean) for mode, (mean, _) in analytic.items()]
    timing = {
        "value": value,
        "analytic_cpu_s": time.process_time() - started,
        "analytic_se": {mode: se for mode, (_, se) in analytic.items()},
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
        runs_pass = sweep is None or sweep.errors is None
        started = time.process_time()
        estimate = estimate_bep(config, sweep)
        timing["simulate_cpu_s"] = simulate_cpu = time.process_time() - started
        if runs_pass and simulate_cpu > 0:
            timing["symbols_per_cpu_s"] = estimate.trials / simulate_cpu
        rows.append(row("simulated", estimate.bep, estimate.ci95, estimate.trials))
    return rows, timing


def run(spec: ExperimentSpec, workers: int = 1, compare: bool = False) -> RunResult:
    """Evaluate every sweep point and write the CSV report plus a manifest.

    Points are independent, so ``workers > 1`` dispatches them to a process
    pool of at most one worker per point and per CPU this process may run
    on; the writer runs in the caller and emits rows in sweep order, so the
    CSV is byte-identical for any worker count. A simulating noise sweep
    runs in the caller, because one drop pass serves all its points and each
    worker would repeat it. A noise sweep run in the caller also gives each
    ``sync`` or ``async_sga`` mode one :class:`ClosedFormSweep` record on the
    ensemble: the first point's :func:`bep` fills it with the mode's variance
    breakdown, and the later points only add their noise level. On the pool
    each worker evaluates its point in full, and ``async_exact`` evaluates
    every point in full everywhere. The pool, and the multiprocessing modules
    behind it, are imported only when a run starts one, which never happens
    at ``workers=1`` or on a simulating noise sweep.
    """
    if compare and (not spec.simulate or not spec.analytic_modes):
        raise SpecValidationError("compare requires simulate plus at least one analytic mode")
    # a path that cannot take the report fails here, before any point runs
    csv_path = spec.output_path
    manifest_path = os.path.splitext(csv_path)[0] + ".manifest.json"
    directory = os.path.dirname(csv_path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise SpecValidationError(f"output_path {csv_path!r}: cannot create directory {directory}: {exc.strerror or exc}")
    for path in (csv_path, manifest_path):
        if os.path.isdir(path):
            raise SpecValidationError(f"output_path {csv_path!r}: {path} is a directory")
    started = time.monotonic()
    values = list(spec.sweep.values)
    noise_sweep = spec.sweep.variable in NOISE_KEYS
    shared = spec.simulate and noise_sweep
    sweep = NoiseSweep(tuple(_noise_psd(spec, v) for v in values)) if shared else None
    # the CPUs this process may run on, which taskset or a cpuset may narrow below cpu_count
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = 1 if shared else min(workers, len(values), cpus)
    ensemble_started = time.process_time()
    ensemble = _analytic_ensemble(spec)
    ensemble_cpu = 0.0 if ensemble is None else time.process_time() - ensemble_started
    if workers > 1:
        # imported here, so that a run that starts no pool never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_point_rows, [spec] * len(values), values, [ensemble] * len(values)))
    else:
        shared_modes = [mode for mode in spec.analytic_modes if mode in ClosedFormSweep.MODES] if noise_sweep else []
        forms = {mode: ClosedFormSweep(taps=ensemble) for mode in shared_modes}
        results = [_point_rows(spec, v, ensemble, sweep, forms) for v in values]
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

    rows = [row for point in per_point for row in point]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c) for c in columns])

    simulate_cpu = sum(timing["simulate_cpu_s"] for _, timing in results)
    symbols = spec.n_drops * spec.symbols_per_drop * _drop_passes(spec) if spec.simulate else 0
    manifest = {
        "tool": "thuwb",
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - started,
        "compare": compare,
        "spec": spec.to_dict(),
        "ensemble_cpu_s": ensemble_cpu,
        "simulate_cpu_s": simulate_cpu,
        "symbols_per_cpu_s": symbols / simulate_cpu if symbols and simulate_cpu > 0 else None,
        "points": [timing for _, timing in results],
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return RunResult(csv_path=csv_path, manifest_path=manifest_path, rows=tuple(rows))
