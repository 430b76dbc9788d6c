"""Exact Monte Carlo simulation of the Rake correlator on the chip grid.

Because the received pulse is one chip long, a pulse offset by a whole number
of chips plus a sub-chip jitter overlaps at most two chip-aligned template
pulses. Every correlator output is therefore an exact sum of cross-correlation
values at integer chip distances: for each user and frame shift the engine
reads the shifted frame slice of hop codes and pulse amplitudes and looks each
colliding frame pair's contribution up in a per-user cross-correlation table,
with no waveform oversampling and no approximation beyond floating point. The
oversampled-waveform route survives only as a test oracle.

Each Monte Carlo "drop" freezes one set of channel realizations and user
delays, simulates a batch of symbols with real (not zeroed) guard symbols on
both sides so interference spills across symbol boundaries exactly, and draws
the correlator noise directly with the exact per-symbol template energy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ChannelRealization,
    FadingModel,
    SyncMode,
    decompose_delay,
    fixed_channel,
    gen_lognormal_channel,
)
from .model import (
    PulseShape,
    SystemParams,
    gen_bits,
    gen_polarity_codes,
    gen_th_codes,
    substream,
)
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
    "LOGNORMAL",
    "SHARED_LOGNORMAL",
    "ChannelSource",
    "TrialConfig",
    "BepEstimate",
    "DropResult",
    "wilson_interval",
    "guard_symbols",
    "run_drop",
    "estimate_bep",
    "empirical_interference_variance",
    "dump_components_csv",
]


@dataclass(frozen=True)
class ChannelSource:
    """Where each drop's channel realizations come from.

    ``fixed`` gives every user the built-in reference profile, ``awgn`` a
    single unit tap, ``custom`` a caller-supplied tap vector shared by all
    users, ``lognormal`` an independent fading draw per user, and
    ``shared_lognormal`` one fading draw shared by all users.
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
            object.__setattr__(self, "taps", tuple(float(t) for t in self.taps))
        elif self.taps is not None:
            raise ValueError(f"channel source {self.kind} takes no taps")

    @property
    def n_taps(self) -> int:
        if self.kind == FIXED:
            return len(fixed_channel().taps)
        if self.kind == AWGN:
            return 1
        if self.kind == CUSTOM:
            return len(self.taps)
        return self.fading.n_taps

    def draw(self, n_users: int, rng) -> list[ChannelRealization]:
        """One channel realization per user; only the fading kinds use ``rng``."""
        if self.kind == LOGNORMAL:
            return [gen_lognormal_channel(self.fading, rng) for _ in range(n_users)]
        if self.kind == SHARED_LOGNORMAL:
            ch = gen_lognormal_channel(self.fading, rng)
        elif self.kind == FIXED:
            ch = fixed_channel()
        elif self.kind == CUSTOM:
            ch = ChannelRealization(np.asarray(self.taps))
        else:
            ch = ChannelRealization(np.ones(1))
        return [ch] * n_users


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
            if not 0.0 <= self.forced_jitter < self.params.chip_time:
                raise ValueError("forced_jitter must lie in [0, chip_time)")
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


@dataclass
class DropResult:
    """Per-symbol correlator components of one drop."""

    desired: np.ndarray
    ifi: np.ndarray
    mai: np.ndarray
    noise: np.ndarray
    y1: np.ndarray
    bits: np.ndarray
    template_energy: np.ndarray
    errors: int
    inputs: dict | None = None


def wilson_interval(errors: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
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


def _frame_shifts(n_taps: int, chip_offset: int, n_chips_per_frame: int) -> range:
    """Frame shifts at which a user ``chip_offset`` chips late can hit a template pulse.

    A pulse ``shift`` frames away lands ``shift * Nc + chip_offset`` chips
    plus a hop difference in ``(-Nc, Nc)`` from the template, and the
    cross-correlation table is nonzero only at offsets ``-L .. L-1``.
    """
    nc = n_chips_per_frame
    return range(-((n_taps + chip_offset + nc - 1) // nc), (n_taps + nc - 2 - chip_offset) // nc + 1)


def _drop_delays(config: TrialConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    """Whole-chip offsets and sub-chip jitters per user (user 1 gets zero)."""
    p = config.params
    n_users = p.n_users
    deltas = np.zeros(n_users, dtype=np.int64)
    eps = np.zeros(n_users)
    if n_users == 1 or config.sync_mode is SyncMode.SYMBOL_SYNC:
        return deltas, eps
    span = p.processing_gain
    if config.sync_mode is SyncMode.CHIP_SYNC:
        deltas[1:] = rng.integers(0, span, size=n_users - 1)
        if config.forced_jitter is not None:
            eps[1:] = config.forced_jitter
        elif config.uniform_jitter:
            eps[1:] = rng.uniform(0.0, p.chip_time, size=n_users - 1)
    else:
        taus = rng.uniform(0.0, span * p.chip_time, size=n_users - 1)
        deltas[1:], eps[1:] = decompose_delay(taus, p.chip_time)
    return deltas, eps


def run_drop(config: TrialConfig, drop_index: int, keep_inputs: bool = False) -> DropResult:
    """Simulate one drop and return the per-symbol correlator components."""
    p = config.params
    nc = p.n_chips_per_frame
    nf = p.n_frames
    n_users = p.n_users
    n_total_gain = p.processing_gain
    n_taps = config.channel_source.n_taps
    guard = guard_symbols(n_taps, n_total_gain)
    n_decide = config.symbols_per_drop
    n_sym = n_decide + 2 * guard

    ch_rng, delay_rng, th_rng, pol_rng, bit_rng, noise_rng = (
        substream(config.master_seed, drop_index, i) for i in range(6)
    )

    channels = config.channel_source.draw(n_users, ch_rng)
    beta = select_weights(channels[0], config.scheme, config.fingers).beta
    deltas, eps = _drop_delays(config, delay_rng)

    th = gen_th_codes(p, n_sym, th_rng)
    pol = gen_polarity_codes(p, n_sym, config.polarity_enabled, pol_rng)
    bits = gen_bits(p, n_sym, bit_rng)

    # the decided frames lo:hi; the gather reads, per user and frame shift,
    # the shifted frame slice lo+shift:hi+shift, which the guard symbols keep
    # inside the drop
    lo, hi = guard * nf, (guard + n_decide) * nf
    cm = th[0, lo:hi]
    template_pol = pol[0, lo:hi].astype(np.float64)

    pad = n_taps + 2 * nc + 1
    acc_self = np.zeros(hi - lo)
    acc_mai = np.zeros(hi - lo)
    diff = np.empty(hi - lo, dtype=np.int64)
    term = np.empty(hi - lo)
    for k in range(n_users):
        offsets, values = cross_correlation_table(channels[k].taps, beta, float(eps[k]), config.pulse)
        table = np.zeros(2 * pad + 1)
        table[offsets + pad] = values
        dk = int(deltas[k])
        amp = math.sqrt(p.bit_energy[k] / nf) * (
            pol[k] * np.repeat(bits[k], nf)
        ).astype(np.float64)
        acc = acc_self if k == 0 else acc_mai
        base = pad + dk - cm
        for shift in _frame_shifts(n_taps, dk, nc):
            np.add(th[k, lo + shift : hi + shift], base + shift * nc, out=diff)
            # diff always lies inside the table (see pad and _frame_shifts), so
            # "clip" changes nothing; it spares the copy mode="raise" makes of out
            np.take(table, diff, out=term, mode="clip")
            term *= amp[lo + shift : hi + shift]
            acc += term

    self_sym = (template_pol * acc_self).reshape(n_decide, nf).sum(axis=1)
    mai_sym = (template_pol * acc_mai).reshape(n_decide, nf).sum(axis=1)

    bits_decided = bits[0, guard : guard + n_decide]
    desired = bits_decided * math.sqrt(p.bit_energy[0] * nf) * float(channels[0].taps @ beta)
    ifi = self_sym - desired

    template_energy = _template_energies(beta, cm, template_pol, nf, nc)
    noise = noise_rng.standard_normal(n_decide) * np.sqrt(p.noise_psd * template_energy)

    y1 = self_sym + mai_sym + noise
    # a decision statistic of exactly zero counts as an error (conservative)
    errors = int(np.count_nonzero(y1 * bits_decided <= 0))

    inputs = None
    if keep_inputs:
        inputs = {
            "channels": channels,
            "beta": beta,
            "chip_offsets": deltas,
            "jitters": eps,
            "th_codes": th,
            "polarity_codes": pol,
            "bits": bits,
            "guard": guard,
        }
    return DropResult(
        desired=desired,
        ifi=ifi,
        mai=mai_sym,
        noise=noise,
        y1=y1,
        bits=bits_decided,
        template_energy=template_energy,
        errors=errors,
        inputs=inputs,
    )


def _template_energies(beta, hops, signs, nf, nc) -> np.ndarray:
    """Exact energy of each symbol's template.

    ``hops`` and ``signs`` are the desired user's hop codes and float
    polarities over the decided frames. Template pulses are chip-aligned, so
    colliding pulses add their weight coefficients at a chip before squaring;
    the cross terms are the weight autocorrelation at the whole-chip distance
    of each frame pair.
    """
    c_w = correlation_sequence(beta, beta)
    n_taps = beta.size
    hops = hops.reshape(-1, nf)
    signs = signs.reshape(-1, nf)
    energies = np.full(hops.shape[0], nf * float(c_w[n_taps]))
    max_gap = (n_taps - 1 + nc - 1) // nc
    if max_gap < 1 or nf < 2:
        return energies
    table_len = max_gap * nc + nc
    wpad = np.zeros(table_len)
    top = min(n_taps, table_len)
    wpad[:top] = c_w[n_taps : n_taps + top]
    for gap in range(1, min(max_gap, nf - 1) + 1):
        diff = gap * nc + hops[:, gap:] - hops[:, : nf - gap]
        energies = energies + 2.0 * np.sum(signs[:, : nf - gap] * signs[:, gap:] * wpad[diff], axis=1)
    return energies


def estimate_bep(config: TrialConfig) -> BepEstimate:
    """Run every drop, count sign errors, and report the empirical BEP.

    Deterministic in ``master_seed``: drops own disjoint substreams and the
    error count is an order-independent sum.
    """
    errors = 0
    for drop in range(config.n_drops):
        errors += run_drop(config, drop).errors
    trials = config.trials
    return BepEstimate(
        errors=errors,
        trials=trials,
        bep=errors / trials,
        ci95=wilson_interval(errors, trials),
    )


def empirical_interference_variance(
    config: TrialConfig, component: str, jitter: float | None = None
) -> tuple[float, float]:
    """Sample variance of one interference component, with its standard error.

    ``component`` is ``"ifi"`` or ``"mai"``. The IFI value is directly
    comparable with the closed-form IFI variance (energy and chip factors
    included); the MAI value is rescaled by ``Nc / E_2`` so it compares with
    the unscaled per-interferer MAI variance sum. Passing ``jitter`` pins the
    interferer's sub-chip offset (the jitter-conditional MAI measurement).

    The standard error comes from the drop-level spread of the per-drop mean
    squares, which is honest about the correlation that shared per-drop
    delays induce.
    """
    if component not in ("ifi", "mai"):
        raise ValueError(f"unknown component {component!r}")
    if config.params.noise_psd != 0:
        raise ValueError("component isolation requires zero noise_psd")
    if component == "mai" and config.params.n_users != 2:
        raise ValueError("MAI isolation requires exactly one interferer")
    if jitter is not None:
        if component != "mai":
            raise ValueError("jitter applies to the MAI component only")
        config = replace(
            config,
            sync_mode=SyncMode.CHIP_SYNC,
            forced_jitter=float(jitter),
            uniform_jitter=False,
        )
    if config.n_drops < 2:
        raise ValueError("need at least 2 drops for a standard error")
    total = 0.0
    total_sq = 0.0
    count = 0
    drop_means = np.empty(config.n_drops)
    for drop in range(config.n_drops):
        result = run_drop(config, drop)
        x = result.ifi if component == "ifi" else result.mai
        total += float(x.sum())
        total_sq += float((x * x).sum())
        count += x.size
        drop_means[drop] = float((x * x).mean())
    variance = total_sq / count - (total / count) ** 2
    stderr = float(drop_means.std(ddof=1) / math.sqrt(config.n_drops))
    if component == "mai":
        scale = config.params.n_chips_per_frame / config.params.bit_energy[1]
        variance *= scale
        stderr *= scale
    return variance, stderr


def dump_components_csv(config: TrialConfig, path) -> None:
    """Write per-symbol correlator components for debugging.

    Columns: drop, symbol, desired, ifi, mai, noise, y1, bit, decision. The
    decision column is the demodulated bit sign, 0 on the (measure-zero)
    boundary.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["drop", "symbol", "desired", "ifi", "mai", "noise", "y1", "bit", "decision"])
        for drop in range(config.n_drops):
            r = run_drop(config, drop)
            decision = np.sign(r.y1).astype(int)
            for s in range(r.y1.size):
                writer.writerow(
                    [
                        drop,
                        s,
                        repr(float(r.desired[s])),
                        repr(float(r.ifi[s])),
                        repr(float(r.mai[s])),
                        repr(float(r.noise[s])),
                        repr(float(r.y1[s])),
                        int(r.bits[s]),
                        int(decision[s]),
                    ]
                )
