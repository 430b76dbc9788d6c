"""Closed-form interference variances and bit-error-probability expressions.

The Gaussian-approximation BEP of the Rake output is assembled from four
variance contributions: the two inter-frame-interference (IFI) terms of the
desired user, one multiple-access-interference (MAI) term per interferer, and
the filtered-noise term. All variance helpers return the unscaled bracketed
sums; the per-energy and processing-gain factors are applied once, in
``VarianceBreakdown.variance``, so each sum can be validated in isolation and
every multipath mode reads the same breakdown.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from .model import PulseShape, SystemParams, gamma_factor, gauss_legendre, substream
from .rake import RakeWeights, correlation_sequence

__all__ = [
    "BepMode",
    "BepQuery",
    "VarianceBreakdown",
    "q_function",
    "ifi_variance_components",
    "ifi_variance_adjacent",
    "mai_variance_sync",
    "mai_variance_jitter",
    "mai_variance_async",
    "variance_breakdown",
    "bep",
    "bep_async_exact",
    "average_bep",
]

_SQRT2 = math.sqrt(2.0)

# Gauss-Legendre nodes per jitter axis, and jitter draws of the Monte Carlo
# branch of bep_async_exact
QUAD_NODES = 64
MC_SAMPLES = 100_000


def q_function(x):
    """Standard normal tail probability, via the complementary error function."""
    arr = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(arr / _SQRT2)
    return out if out.ndim else float(out)


def _lag_pair_sums(taps, weights) -> np.ndarray:
    """``s[j] = c[L + j] + c[L - j]`` for ``j = 0 .. L`` from the correlation sequence ``c``."""
    c = correlation_sequence(taps, weights)
    n = (c.size - 1) // 2
    return c[n:] + c[n::-1]


def ifi_variance_components(taps, weights, n_chips_per_frame: int) -> tuple[float, float]:
    """The two unscaled IFI variance sums of the desired user.

    The first sum collects pulse spill-over of up to one frame (lags below
    ``min(n_chips_per_frame, L)``); the second collects the deeper spill that
    only exists when the channel is longer than a frame, and is zero for
    ``L <= n_chips_per_frame``. In the error probability the first term is
    scaled by ``E1 / (Nc * N)`` and the second by ``E1 / N``.
    """
    nc = int(n_chips_per_frame)
    if nc < 1:
        raise ValueError("n_chips_per_frame must be >= 1")
    s = _lag_pair_sums(taps, weights)
    near = s[1:nc] ** 2
    far = s[nc:-1]
    return float(np.arange(1, near.size + 1) @ near), float(far @ far)


def ifi_variance_adjacent(taps, weights) -> float:
    """Unscaled IFI variance sum in the adjacent-frame-only regime.

    Valid when the multipath spread does not exceed one frame plus one chip
    (``L <= Nc + 1``); runs over every lag instead of capping at the frame
    length. At ``L == Nc + 1`` this equals the two capped components
    assembled with their respective scalings, so both routes agree on the
    boundary.
    """
    s = _lag_pair_sums(taps, weights)
    return float(np.arange(s.size) @ s**2)


def mai_variance_sync(taps, weights):
    """Unscaled MAI variance sum for a chip- or symbol-synchronized interferer.

    Scaled by ``E_k / N`` in the error probability. Independent of the whole-
    chip delay of the interferer, which is why the chip- and symbol-
    synchronous cases behave identically. Stacked taps ``(..., L)`` give one
    sum per interferer, of shape ``(...)``.
    """
    c = correlation_sequence(taps, weights)
    return np.vecdot(c, c)


def mai_variance_jitter(taps, weights, jitter, pulse: PulseShape):
    """Unscaled MAI variance sum for an interferer with a sub-chip jitter.

    The squared cross-correlation summed over every chip offset: with
    ``R = R(jitter)``, ``Rbar = R(chip_time - jitter)`` and ``c`` the
    correlation sequence, the quadratic form ``A R^2 + 2 B R Rbar + C Rbar^2``
    with ``A = |c[:-1]|^2``, ``B = c[:-1] . c[1:]`` and ``C = |c[1:]|^2``.
    Stacked taps ``(..., L)`` give ``A``, ``B`` and ``C`` of shape ``(...)``,
    and ``jitter`` (a scalar or an array) broadcasts against them: the result
    has their broadcast shape. At zero jitter this reduces exactly to
    :func:`mai_variance_sync`.
    """
    jit = np.asarray(jitter, dtype=float)
    if not np.all((jit >= 0.0) & (jit < pulse.chip_time)):
        raise ValueError("jitter must lie in [0, chip_time)")
    c = correlation_sequence(taps, weights)
    lo, hi = c[..., :-1], c[..., 1:]
    r = pulse.autocorrelation(jit)
    rbar = pulse.autocorrelation(pulse.chip_time - jit)
    A, B, C = np.vecdot(lo, lo), np.vecdot(lo, hi), np.vecdot(hi, hi)
    return A * r * r + 2.0 * B * r * rbar + C * rbar * rbar


def mai_variance_async(taps, weights, pulse: PulseShape, nodes: int = QUAD_NODES):
    """Jitter-averaged MAI variance sum of an asynchronous interferer.

    The mean of :func:`mai_variance_jitter` over a jitter uniform on one
    chip, by Gauss-Legendre quadrature. The integrand is a quadratic form in
    the pulse autocorrelation, so 64 nodes are far more than enough for
    1e-9 absolute accuracy. Stacked taps ``(..., L)`` give one sum per
    interferer, of shape ``(...)``, from one :func:`mai_variance_jitter` call.
    """
    x, w = gauss_legendre(nodes)
    tc = pulse.chip_time
    eps = 0.5 * tc * (x + 1.0)
    # the nodes run along a new last axis, one row of them per interferer
    vals = mai_variance_jitter(np.expand_dims(taps, -2), weights, eps, pulse)
    # (1 / tc) * integral over [0, tc]; the affine map contributes tc / 2
    return 0.5 * np.sum(w * vals, axis=-1)


class BepMode(str, enum.Enum):
    """Which closed-form error probability to evaluate."""

    SYNC = "sync"
    ASYNC_CONDITIONAL = "async_conditional"
    ASYNC_EXACT = "async_exact"
    ASYNC_SGA = "async_sga"
    AWGN_SYNC = "awgn_sync"
    AWGN_ASYNC = "awgn_async"
    AWGN_NO_POLARITY_SYNC = "awgn_no_polarity_sync"


MULTIPATH_MODES = (BepMode.SYNC, BepMode.ASYNC_CONDITIONAL, BepMode.ASYNC_EXACT, BepMode.ASYNC_SGA)
_EQUAL_ENERGY_MODES = (
    BepMode.ASYNC_SGA,
    BepMode.AWGN_SYNC,
    BepMode.AWGN_ASYNC,
    BepMode.AWGN_NO_POLARITY_SYNC,
)


@dataclass(frozen=True)
class VarianceBreakdown:
    """Desired amplitude and unscaled variance sums entering one BEP evaluation."""

    signal: float
    ifi1: float
    ifi2: float
    mai_per_user: tuple
    noise: float

    def __post_init__(self):
        parts = (self.ifi1, self.ifi2, self.noise) + tuple(self.mai_per_user)
        if any(p < 0 for p in parts):
            raise ValueError("variance components must be non-negative")

    def variance(self, params: SystemParams, mai_per_user=None):
        """Variance of the decision statistic: every sum scaled by its energy and gain.

        ``mai_per_user`` stands in for the breakdown's own MAI sums: any
        iterable, also of arrays over jitter points; the result then has
        their broadcast shape.
        """
        n_total = params.processing_gain
        e1 = params.bit_energy[0]
        mai = self.mai_per_user if mai_per_user is None else mai_per_user
        return (
            e1 * self.ifi1 / (params.n_chips_per_frame * n_total)
            + e1 * self.ifi2 / n_total
            # map, not a generator expression: it keeps no interferer's array past its product
            + sum(map(operator.mul, params.interferer_energies, mai)) / n_total
            + self.noise
        )


@dataclass(frozen=True)
class BepQuery:
    """One error-probability evaluation request.

    ``channels`` lists one realization per user (the first entry is the user
    of interest) and is required for the multipath modes; the AWGN modes use
    only the scalar system parameters. ``jitters`` holds one sub-chip offset
    per interferer and applies to the conditional mode only.
    """

    params: SystemParams
    mode: BepMode
    channels: tuple | None = None
    weights: RakeWeights | None = None
    pulse: PulseShape | None = None
    jitters: tuple | None = None
    exact_quad_max_users: int = 4
    seed: int = 0

    def __post_init__(self):
        mode = BepMode(self.mode)
        object.__setattr__(self, "mode", mode)
        p = self.params
        if mode in MULTIPATH_MODES:
            if self.channels is None or self.weights is None:
                raise ValueError(f"mode {mode.value} requires channels and weights")
            channels = tuple(self.channels)
            if len(channels) != p.n_users:
                raise ValueError("channels must hold one realization per user")
            n = channels[0].n_taps
            if any(ch.n_taps != n for ch in channels) or self.weights.beta.size != n:
                raise ValueError("channel and weight lengths must be consistent")
            object.__setattr__(self, "channels", channels)
        if mode in (BepMode.ASYNC_CONDITIONAL, BepMode.ASYNC_EXACT, BepMode.ASYNC_SGA, BepMode.AWGN_ASYNC):
            if self.pulse is None:
                raise ValueError(f"mode {mode.value} requires a pulse shape")
        if mode is BepMode.ASYNC_CONDITIONAL:
            if self.jitters is None:
                raise ValueError("async_conditional requires one jitter per interferer")
            jit = tuple(float(j) for j in self.jitters)
            if len(jit) != p.n_users - 1:
                raise ValueError("jitters must have one entry per interferer")
            tc = self.pulse.chip_time
            if any(j < 0 or j >= tc for j in jit):
                raise ValueError("jitters must lie in [0, chip_time)")
            object.__setattr__(self, "jitters", jit)
        if mode in _EQUAL_ENERGY_MODES and p.n_users > 1:
            energies = p.interferer_energies
            if any(e != energies[0] for e in energies):
                raise ValueError(f"mode {mode.value} assumes equal interferer energies")


def variance_breakdown(query: BepQuery) -> VarianceBreakdown:
    """Desired amplitude and unscaled variance sums of a multipath mode.

    Under ``async_exact`` each interferer's MAI sum depends on its jitter,
    which :func:`bep_async_exact` integrates out, so ``mai_per_user`` is empty.
    """
    mode = query.mode
    if mode not in MULTIPATH_MODES:
        raise ValueError(f"no per-term breakdown for mode {mode.value}")
    p = query.params
    taps = np.stack([ch.taps for ch in query.channels])
    alpha1, interferers = taps[0], taps[1:]
    beta = query.weights.beta
    if mode is BepMode.SYNC:
        mai = mai_variance_sync(interferers, beta)
    elif mode is BepMode.ASYNC_CONDITIONAL:
        mai = mai_variance_jitter(interferers, beta, query.jitters, query.pulse)
    elif mode is BepMode.ASYNC_SGA:
        mai = mai_variance_async(interferers, beta, query.pulse)
    else:
        mai = ()
    signal = math.sqrt(p.bit_energy[0]) * float(alpha1 @ beta)
    ifi1, ifi2 = ifi_variance_components(alpha1, beta, p.n_chips_per_frame)
    return VarianceBreakdown(signal, ifi1, ifi2, tuple(map(float, mai)), float(p.noise_psd * (beta @ beta)))


def _q_of_variance(numerator: float, variance: float) -> float:
    if variance <= 0.0:
        return 0.0 if numerator > 0 else 0.5
    return float(q_function(numerator / math.sqrt(variance)))


def bep_async_exact(query: BepQuery) -> tuple[float, float]:
    """Asynchronous BEP averaged over the interferer jitters, with its error.

    For a handful of interferers the jitter average is a tensor-product
    Gauss-Legendre quadrature (zero reported error); beyond
    ``exact_quad_max_users`` users it switches to Monte Carlo over the jitter
    cube and reports the standard error of the estimate.
    """
    if BepMode(query.mode) is not BepMode.ASYNC_EXACT:
        raise ValueError("bep_async_exact requires mode async_exact")
    p = query.params
    vb = variance_breakdown(query)
    n_int = p.n_users - 1
    if n_int == 0:
        return _q_of_variance(vb.signal, vb.variance(p)), 0.0
    tc = query.pulse.chip_time
    if p.n_users <= query.exact_quad_max_users:
        # tensor grid: interferer k's nodes run along axis k
        x, w = gauss_legendre(QUAD_NODES)
        nodes, w = 0.5 * tc * (x + 1.0), w / np.sum(w)  # normalized: the uniform average
        axes = [tuple(-1 if i == k else 1 for i in range(n_int)) for k in range(n_int)]
        jitters = [nodes.reshape(axis) for axis in axes]
        weights = math.prod(w.reshape(axis) for axis in axes)
    else:
        jitters = substream(query.seed, 0).uniform(0.0, tc, size=(MC_SAMPLES, n_int)).T
        weights = None
    beta = query.weights.beta
    interferers = [ch.taps for ch in query.channels[1:]]
    # a generator, so that the variance sum holds one interferer's MAI array at a time
    mai = (mai_variance_jitter(taps, beta, eps, query.pulse) for taps, eps in zip(interferers, jitters))
    probs = q_function(vb.signal / np.sqrt(vb.variance(p, mai)))
    if weights is None:
        return float(np.mean(probs)), float(np.std(probs, ddof=1) / math.sqrt(probs.size))
    return float(np.sum(weights * probs)), 0.0


def bep(query: BepQuery) -> float:
    """Bit error probability for the requested mode.

    The multipath modes read their :func:`variance_breakdown`; the AWGN
    modes are the single-path specializations, written out as scalars.
    Every mode is strictly decreasing in the desired user's energy and
    increasing in the noise level.
    """
    p = query.params
    mode = BepMode(query.mode)
    if mode is BepMode.ASYNC_EXACT:
        return bep_async_exact(query)[0]
    if mode in MULTIPATH_MODES:
        vb = variance_breakdown(query)
        return _q_of_variance(vb.signal, vb.variance(p))
    n_total = p.processing_gain
    e1 = p.bit_energy[0]
    n_int = p.n_users - 1
    if mode is BepMode.AWGN_SYNC:
        den = sum(p.interferer_energies) / n_total + p.noise_psd
        return _q_of_variance(math.sqrt(e1), den)
    e_int = p.interferer_energies[0] if n_int else 0.0
    if mode is BepMode.AWGN_ASYNC:
        den = n_int * gamma_factor(query.pulse) * e_int / n_total + p.noise_psd
        return _q_of_variance(math.sqrt(e1), den)
    # AWGN, synchronous, no polarity randomization: the per-pulse interference
    # terms add coherently, inflating the MAI by (n_frames - 1) / n_chips.
    den = (
        n_int * (e_int / n_total) * (1.0 + (p.n_frames - 1) / p.n_chips_per_frame)
        + p.noise_psd
    )
    return _q_of_variance(math.sqrt(e1), den)


def average_bep(queries: Sequence[BepQuery]) -> tuple[float, float]:
    """Mean BEP over a channel ensemble, with the standard error of the mean."""
    values = np.asarray([bep(q) for q in queries], dtype=float)
    if values.size == 0:
        raise ValueError("average_bep needs at least one query")
    if values.size == 1:
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))
