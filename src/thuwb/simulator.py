"""Exact Monte Carlo simulation of the Rake correlator on the chip grid.

Because the received pulse is one chip long, a pulse offset by a whole number
of chips plus a sub-chip jitter overlaps at most two chip-aligned template
pulses. Every correlator output is therefore an exact sum of cross-correlation
values at integer chip distances. Each user's row of the drop's tables is
stored as ``[T, -T]``, so a pulse's sign picks its half through the index: at
each frame shift where the row's nonzero offsets can meet a template pulse,
the engine looks every colliding frame pair up by its signed hop code, with no
waveform oversampling and no approximation beyond floating point. The
oversampled-waveform route survives only as a test oracle.

Each Monte Carlo "drop" freezes one set of channel realizations and user
delays, simulates a batch of symbols with real (not zeroed) guard symbols on
both sides so interference spills across symbol boundaries exactly, and draws
the correlator noise directly with the exact per-symbol template energy.
A drop runs in two stages. The draw stage reads the drop's four random
streams: channels (every user's taps in one draw), delays, codes and noise.
The codes stream draws the hop codes in their narrowest integer type, then
the information bits and last the polarity codes, each sign from one random
bit. The correlate stage builds the tables, gathers the collisions and
computes the template energies from those inputs alone, with no random draw
of its own.

The noise density only scales a unit-variance draw at the last step, so a
:class:`NoiseSweep` runs each drop of a noise sweep once and decides every
noise level from it. That one drop pass yields both the error counts and
each drop's IFI and MAI sums, which the lemma checks read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import FIXED_CHANNEL_TAPS, FadingModel, SyncMode, decompose_delay, gen_lognormal_channel
from .model import CHIP_TIME, PulseShape, SystemParams, gen_bits, gen_polarity_codes, gen_th_codes, substream
from .rake import correlation_sequence, cross_correlation_table, select_weights

FIXED = "fixed"
AWGN = "awgn"
CUSTOM = "custom"
LOGNORMAL = "lognormal"
SHARED_LOGNORMAL = "shared_lognormal"

_CHANNEL_KINDS = (FIXED, AWGN, CUSTOM, LOGNORMAL, SHARED_LOGNORMAL)

_Z95 = 1.959963984540054

__all__ = [
    "FIXED",
    "AWGN",
    "CUSTOM",
    "LOGNORMAL",
    "SHARED_LOGNORMAL",
    "ChannelSource",
    "TrialConfig",
    "BepEstimate",
    "DropResult",
    "NoiseSweep",
    "wilson_interval",
    "guard_symbols",
    "run_drop",
    "estimate_bep",
]


@dataclass(frozen=True)
class ChannelSource:
    """Where each drop's tap vectors come from.

    ``fixed`` gives every user the built-in reference profile, ``awgn`` a
    single unit tap, ``custom`` a caller-supplied tap vector shared by all
    users (non-empty and finite), ``lognormal`` an independent fading draw
    per user, and ``shared_lognormal`` one fading draw shared by all users.
    """

    kind: str
    fading: FadingModel | None = None
    taps: tuple | None = None

    def __post_init__(self):
        if self.kind not in _CHANNEL_KINDS:
            raise ValueError(f"unknown channel source {self.kind!r}")
        needs_fading = self.kind in (LOGNORMAL, SHARED_LOGNORMAL)
        if needs_fading and self.fading is None:
            raise ValueError(f"channel source {self.kind} requires a fading model")
        if not needs_fading and self.fading is not None:
            raise ValueError(f"channel source {self.kind} takes no fading model")
        if self.kind == CUSTOM:
            if self.taps is None:
                raise ValueError("channel source custom requires taps")
            taps = tuple(float(t) for t in self.taps)
            if not taps or not all(map(math.isfinite, taps)):
                raise ValueError("channel source custom requires a non-empty vector of finite taps")
            object.__setattr__(self, "taps", taps)
        elif self.taps is not None:
            raise ValueError(f"channel source {self.kind} takes no taps")

    @property
    def _fixed_taps(self) -> tuple | None:
        """The taps every user shares on a kind that does not fade; None on the fading kinds."""
        return {FIXED: FIXED_CHANNEL_TAPS, AWGN: (1.0,), CUSTOM: self.taps}.get(self.kind)

    @property
    def n_taps(self) -> int:
        taps = self._fixed_taps
        return self.fading.n_taps if taps is None else len(taps)

    def draw(self, n_users: int, rng, shape=()) -> np.ndarray:
        """A read-only ``shape + (n_users, L)`` array, one tap vector per user; only the fading kinds use ``rng``.

        One :func:`gen_lognormal_channel` call draws every set's users in turn, or under
        ``shared_lognormal`` one vector per set for all its users.
        """
        if self.kind == LOGNORMAL:
            return gen_lognormal_channel(self.fading, rng, tuple(shape) + (n_users,))
        if self.kind == SHARED_LOGNORMAL:
            taps = np.repeat(gen_lognormal_channel(self.fading, rng, shape)[..., None, :], n_users, axis=-2)
        else:
            taps = np.tile(self._fixed_taps, tuple(shape) + (n_users, 1))
        taps.setflags(write=False)
        return taps


@dataclass(frozen=True)
class TrialConfig:
    """Complete description of one Monte Carlo experiment.

    ``n_drops`` independent drops of ``symbols_per_drop`` decided symbols
    each; all randomness derives from ``master_seed`` and the drop index, so
    results replay bit-identically regardless of execution order.

    ``forced_jitter`` pins every interferer's sub-chip offset (chip-sync mode
    only); ``uniform_jitter`` draws it uniformly per interferer per drop,
    which is the chip-synchronous-plus-jitter construction of an asynchronous
    system.
    """

    params: SystemParams
    pulse: PulseShape
    sync_mode: SyncMode
    scheme: str
    fingers: int | None
    polarity_enabled: bool
    channel_source: ChannelSource
    n_drops: int
    symbols_per_drop: int
    master_seed: int
    forced_jitter: float | None = None
    uniform_jitter: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sync_mode", SyncMode(self.sync_mode))
        if self.n_drops < 1 or self.symbols_per_drop < 1:
            raise ValueError("n_drops and symbols_per_drop must be >= 1")
        if self.forced_jitter is not None:
            if self.sync_mode is not SyncMode.CHIP_SYNC:
                raise ValueError("forced_jitter applies to chip-sync mode only")
            if not 0.0 <= self.forced_jitter < CHIP_TIME:
                raise ValueError("forced_jitter must lie in [0, 1) chip")
        if self.uniform_jitter:
            if self.sync_mode is not SyncMode.CHIP_SYNC:
                raise ValueError("uniform_jitter applies to chip-sync mode only")
            if self.forced_jitter is not None:
                raise ValueError("forced_jitter and uniform_jitter are exclusive")

    @property
    def trials(self) -> int:
        return self.n_drops * self.symbols_per_drop


@dataclass(frozen=True)
class BepEstimate:
    """Empirical bit error probability with a Wilson 95% interval."""

    errors: int
    trials: int
    bep: float
    ci95: tuple

    def __post_init__(self):
        if self.errors > self.trials:
            raise ValueError("errors cannot exceed trials")


class DropDraw(NamedTuple):
    """One drop's random inputs: the draw stage's output.

    Per-user tap vectors ``taps`` ``(n_users, L)``, chip offsets ``deltas``
    and jitters ``eps``; the desired user's Rake weights ``beta``; narrow hop
    codes, bits and polarities over every symbol, guard symbols included; the
    noise draw ``z`` per decided symbol.
    """

    taps: np.ndarray
    beta: np.ndarray
    deltas: np.ndarray
    eps: np.ndarray
    th: np.ndarray
    bits: np.ndarray
    pol: np.ndarray
    z: np.ndarray


@dataclass
class DropResult:
    """Per-symbol correlator components of one drop: the correlate stage's output.

    ``received`` is the noiseless statistic ``desired + ifi + mai``. The
    statistic at noise density ``N0`` is ``received + z * sqrt(N0 *
    template_energy)``, so one drop is decided exactly at any noise level.
    """

    desired: np.ndarray
    ifi: np.ndarray
    mai: np.ndarray
    bits: np.ndarray
    template_energy: np.ndarray
    received: np.ndarray
    z: np.ndarray


@dataclass
class NoiseSweep:
    """Error counts of one drop pass at every noise level of a sweep, and its per-drop interference sums.

    Shared by the ``estimate_bep`` calls of configurations that differ only
    in ``params.noise_psd``, each one of ``levels``. The first call runs the
    drops and fills ``errors``, one count per level, and ``moments``, one
    ``(ifi, ifi**2, mai, mai**2)`` row of sums per drop, the same at every
    level; later calls read their count.
    """

    levels: tuple
    config: TrialConfig | None = None
    errors: list | None = None
    moments: np.ndarray | None = None


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    z = _Z95
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    # the exact bounds at the extremes are 0 and 1; don't let rounding exclude them
    low = 0.0 if errors == 0 else max(0.0, center - half)
    high = 1.0 if errors == trials else min(1.0, center + half)
    return low, high


def guard_symbols(n_taps: int, processing_gain: int) -> int:
    """Symbols of real data kept on each side of the decided block.

    Enough for every pulse that can reach a decided template, including the
    deepest multipath spill and a whole-symbol interferer delay.
    """
    return -((-(n_taps - 1)) // processing_gain) + 1


def _frame_shifts(first: int, last: int, chip_offset: int, n_chips_per_frame: int) -> range:
    """Frame shifts at which a user ``chip_offset`` chips late can hit a template pulse.

    A pulse ``shift`` frames away lands ``shift * Nc + chip_offset`` chips
    plus a hop difference in ``(-Nc, Nc)`` from the template, and the user's
    table is nonzero only at offsets ``first .. last``, within ``-L .. L-1``.
    """
    nc = n_chips_per_frame
    return range(-((chip_offset - first + nc - 1) // nc), (last - chip_offset + nc - 1) // nc + 1)


def _draws_delays(config: TrialConfig) -> bool:
    """Whether :func:`_drop_delays` reads its stream: with interferers that are not symbol-synchronous."""
    return config.params.n_users > 1 and config.sync_mode is not SyncMode.SYMBOL_SYNC


def _drop_delays(config: TrialConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    """Whole-chip offsets and sub-chip jitters per user (user 1 gets zero)."""
    p = config.params
    n_users = p.n_users
    deltas = np.zeros(n_users, dtype=np.int64)
    eps = np.zeros(n_users)
    if not _draws_delays(config):
        return deltas, eps
    span = p.processing_gain
    if config.sync_mode is SyncMode.CHIP_SYNC:
        deltas[1:] = rng.integers(0, span, size=n_users - 1)
        if config.forced_jitter is not None:
            eps[1:] = config.forced_jitter
        elif config.uniform_jitter:
            eps[1:] = rng.uniform(0.0, CHIP_TIME, size=n_users - 1)
    else:
        taus = rng.uniform(0.0, span * CHIP_TIME, size=n_users - 1)
        deltas[1:], eps[1:] = decompose_delay(taus)
    return deltas, eps


def _draw(config: TrialConfig, drop_index: int) -> DropDraw:
    """Every random input of one drop, from its four substreams in order.

    Stream ``i`` is keyed by ``(master_seed, drop_index, i)`` and made only
    where it is read: the channel stream (0) for a fading source, the delay
    stream (1) where :func:`_drop_delays` draws; the code (2) and noise (3)
    streams always.
    """
    p = config.params
    n_sym = config.symbols_per_drop + 2 * guard_symbols(config.channel_source.n_taps, p.processing_gain)
    seed = config.master_seed
    ch_rng = substream(seed, drop_index, 0) if config.channel_source.fading is not None else None
    delay_rng = substream(seed, drop_index, 1) if _draws_delays(config) else None
    code_rng, noise_rng = substream(seed, drop_index, 2), substream(seed, drop_index, 3)
    taps = config.channel_source.draw(p.n_users, ch_rng)
    beta = select_weights(taps[0], config.scheme, config.fingers)
    deltas, eps = _drop_delays(config, delay_rng)
    # polarity last, so turning it off leaves the hops and bits as they are
    th = gen_th_codes(p, n_sym, code_rng)
    bits = gen_bits(p, n_sym, code_rng)
    pol = gen_polarity_codes(p, n_sym, config.polarity_enabled, code_rng)
    return DropDraw(taps, beta, deltas, eps, th, bits, pol, noise_rng.standard_normal(config.symbols_per_drop))


def _correlate(config: TrialConfig, draw: DropDraw) -> DropResult:
    """The per-symbol correlator components of a drawn drop; draws nothing."""
    taps, beta, deltas, eps, th, bits, pol, z = draw
    p = config.params
    nc, nf, n_users = p.n_chips_per_frame, p.n_frames, p.n_users
    n_taps = config.channel_source.n_taps
    guard = guard_symbols(n_taps, p.processing_gain)
    n_decide = config.symbols_per_drop

    # the decided frames lo:hi; the gather reads, per user and frame shift,
    # the shifted frame slice lo+shift:hi+shift, which the guard symbols keep
    # inside the drop
    lo, hi = guard * nf, (guard + n_decide) * nf
    # the template's narrow hops are widened once, before their index arithmetic
    cm = th[0, lo:hi].astype(np.intp)
    template_pol = pol[0, lo:hi].astype(np.float64)

    # every user's table from one call, each row scaled by sqrt(E_k / Nf) and
    # stored as [T, -T]: a pulse of sign -1 reads the negated half, the same
    # float as the entry times its signed amplitude, with no multiply per shift
    pad = n_taps + 2 * nc + 1
    width = 2 * pad + 1
    values = cross_correlation_table(taps, beta, eps, config.pulse)
    values *= np.sqrt(np.asarray(p.bit_energy) / nf)[:, None]
    # each row's first and last nonzero offset from one boolean pass; a silent row is skipped
    nonzero = values != 0
    loud = nonzero.any(axis=1).tolist()
    first = (nonzero.argmax(axis=1) - n_taps).tolist()
    last = ((n_taps - 1) - nonzero[:, ::-1].argmax(axis=1)).tolist()
    tables = np.zeros((n_users, 2 * width))
    tables[:, pad - n_taps : pad + n_taps] = values
    np.negative(tables[:, :width], out=tables[:, width:])
    # every pulse's hop plus the start of the half its sign picks, all users at once,
    # in a signed type that holds the hop draw and width + nc, so no sum wraps
    hop_type = np.promote_types(th.dtype, np.min_scalar_type(-(width + nc)))
    signed_hops = np.multiply(pol != np.repeat(bits, nf, axis=1), width, dtype=hop_type)
    signed_hops += th
    template_hop = (nc - 1) - cm
    signed_hop = np.empty(th.shape[1], dtype=np.intp)
    acc_self, acc_mai = np.zeros((2, hi - lo))
    index = np.empty(hi - lo, dtype=np.intp)
    term = np.empty(hi - lo)
    for k, dk in enumerate(deltas.tolist()):
        if not loud[k]:
            continue
        row, base = tables[k], pad + dk - (nc - 1)
        acc = acc_self if k == 0 else acc_mai
        np.copyto(signed_hop, signed_hops[k])  # widened once, before the index arithmetic
        # only the shifts whose hop window meets the row's nonzero offsets;
        # the others would add only zeros, which never change an accumulator
        for shift in _frame_shifts(first[k], last[k], dk, nc):
            np.add(signed_hop[lo + shift : hi + shift], template_hop, out=index)
            # index stays inside the half its sign picks (see pad), so "clip"
            # changes nothing; it spares the copy mode="raise" makes of out
            row[base + shift * nc :].take(index, out=term, mode="clip")
            acc += term

    self_sym = (template_pol * acc_self).reshape(n_decide, nf).sum(axis=1)
    mai = (template_pol * acc_mai).reshape(n_decide, nf).sum(axis=1)

    bits_decided = bits[0, guard : guard + n_decide]
    desired = bits_decided * math.sqrt(p.bit_energy[0] * nf) * float(taps[0] @ beta)
    ifi = self_sym - desired

    template_energy = _template_energies(beta, cm, template_pol, nf, nc)
    received = self_sym + mai
    return DropResult(desired, ifi, mai, bits_decided, template_energy, received, z)


def run_drop(config: TrialConfig, drop_index: int) -> DropResult:
    """Simulate one drop and return the per-symbol correlator components."""
    return _correlate(config, _draw(config, drop_index))


def _decide(drop: DropResult, levels) -> np.ndarray:
    """Error counts of one drop, one per noise density of ``levels``, from one ``(levels, symbols)`` pass."""
    y1 = drop.received + drop.z * np.sqrt(np.asarray(levels, dtype=float)[:, None] * drop.template_energy)
    # a decision statistic of exactly zero counts as an error (conservative)
    return np.count_nonzero(y1 * drop.bits <= 0, axis=1)


def _template_energies(beta, hops, signs, nf, nc) -> np.ndarray:
    """Exact energy of each symbol's template.

    ``hops`` and ``signs`` are the desired user's hop codes and float
    polarities over the decided frames. Template pulses are chip-aligned, so
    colliding pulses add their weight coefficients at a chip before squaring;
    the cross terms are the weight autocorrelation at the whole-chip distance
    of each frame pair.
    """
    # lags 0 .. L of the weight autocorrelation
    c_w = correlation_sequence(beta, beta)[beta.size :]
    # a narrow hop dtype would wrap in gap * nc + hop
    hops = np.asarray(hops, dtype=np.intp).reshape(-1, nf)
    signs = signs.reshape(-1, nf)
    energies = np.full(hops.shape[0], nf * float(c_w[0]))
    # frame pairs farther apart than the last nonzero lag add only zeros
    max_gap = (int(np.flatnonzero(c_w).max(initial=0)) + nc - 1) // nc
    if max_gap < 1 or nf < 2:
        return energies
    for gap in range(1, min(max_gap, nf - 1) + 1):
        diff = gap * nc + hops[:, gap:] - hops[:, : nf - gap]
        # "clip" reads every distance of L or more as lag L, an exact zero: no two of L weights lie L chips apart
        term = signs[:, : nf - gap] * signs[:, gap:] * c_w.take(diff, mode="clip")
        energies = energies + 2.0 * np.sum(term, axis=1)
    return energies


def estimate_bep(config: TrialConfig, sweep: NoiseSweep | None = None) -> BepEstimate:
    """Run every drop, count sign errors, and report the empirical BEP.

    Deterministic in ``master_seed``: drops own disjoint substreams and the
    error count is an order-independent sum. With a shared ``sweep``, the
    first call runs each drop once, decides every level of the sweep from it
    and records the drop's interference sums in ``sweep.moments``; later
    calls return their level's count without simulating, and equal what a
    call without ``sweep`` returns.
    """
    noise_psd = config.params.noise_psd
    if sweep is None:
        sweep = NoiseSweep((noise_psd,))
    key = replace(config, params=replace(config.params, noise_psd=0.0))
    if noise_psd not in sweep.levels or sweep.config not in (None, key):
        raise ValueError(f"the shared sweep holds no level {noise_psd!r} of this configuration")
    if sweep.config is None:
        counts = np.zeros(len(sweep.levels), dtype=np.int64)
        moments = np.empty((config.n_drops, 4))
        for drop in range(config.n_drops):
            r = run_drop(config, drop)
            counts += _decide(r, sweep.levels)
            moments[drop] = r.ifi.sum(), (r.ifi * r.ifi).sum(), r.mai.sum(), (r.mai * r.mai).sum()
        sweep.config, sweep.errors, sweep.moments = key, counts.tolist(), moments
    errors = sweep.errors[sweep.levels.index(noise_psd)]
    trials = config.trials
    return BepEstimate(
        errors=errors,
        trials=trials,
        bep=errors / trials,
        ci95=wilson_interval(errors, trials),
    )
