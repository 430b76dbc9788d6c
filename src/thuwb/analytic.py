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
from typing import ClassVar, Sequence

import numpy as np
from scipy import special

from .model import CHIP_TIME, PulseShape, SystemParams, check_jitter, gamma_factor, jitter_nodes, substream
from .rake import RakeWeights, correlation_sequence

__all__ = [
    "BepMode",
    "BepQuery",
    "VarianceBreakdown",
    "q_function",
    "ifi_variance_components",
    "mai_variance_sync",
    "mai_variance_jitter",
    "mai_variance_async",
    "variance_breakdown",
    "bep",
    "bep_async_exact",
    "average_bep",
]

_SQRT2 = math.sqrt(2.0)

# jitter draws of the Monte Carlo branch of bep_async_exact; its quadrature
# branch takes the jitter_nodes along every jitter axis
MC_SAMPLES = 100_000
# floats in each temporary of the Monte Carlo pass, whatever the ensemble size
_BLOCK_ELEMENTS = 2**16


def q_function(x):
    """Standard normal tail probability, via the complementary error function."""
    arr = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(arr / _SQRT2)
    return out if out.ndim else float(out)


def ifi_variance_components(taps, weights, n_chips_per_frame: int) -> tuple[float, float]:
    """The two unscaled IFI variance sums of the desired user.

    The first sum collects pulse spill-over of up to one frame (lags below
    ``min(n_chips_per_frame, L)``); the second collects the deeper spill that
    only exists when the channel is longer than a frame. The pair covers
    every spread: within one frame (``L <= n_chips_per_frame``) the second
    sum is empty and the first is the whole IFI variance. In the error
    probability the first term is scaled by ``E1 / (Nc * N)`` and the second
    by ``E1 / N``.
    """
    nc = int(n_chips_per_frame)
    if nc < 1:
        raise ValueError("n_chips_per_frame must be >= 1")
    c = correlation_sequence(taps, weights)
    n = (c.size - 1) // 2
    s = c[n:] + c[n::-1]  # s[j] = c[L + j] + c[L - j] for j = 0 .. L
    near = s[1:nc] ** 2
    far = s[nc:-1]
    return float(np.arange(1, near.size + 1) @ near), float(far @ far)


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
    ``R = R(jitter)``, ``Rbar = R(1 - jitter)`` and ``c`` the
    correlation sequence, the quadratic form ``A R^2 + 2 B R Rbar + C Rbar^2``
    with ``A = |c[:-1]|^2``, ``B = c[:-1] . c[1:]`` and ``C = |c[1:]|^2``.
    Stacked taps ``(..., L)`` give ``A``, ``B`` and ``C`` of shape ``(...)``,
    and ``jitter`` (a scalar or an array) broadcasts against them: the result
    has their broadcast shape. At zero jitter this reduces exactly to
    :func:`mai_variance_sync`.
    """
    r, rbar = pulse.overlaps(check_jitter(jitter))
    return _jitter_form(_form_coefficients(taps, weights), r, rbar)


def _form_coefficients(taps, weights) -> tuple:
    """``(A, B, C)`` of the MAI quadratic form."""
    c = correlation_sequence(taps, weights)
    lo, hi = c[..., :-1], c[..., 1:]
    return np.vecdot(lo, lo), np.vecdot(lo, hi), np.vecdot(hi, hi)


def _jitter_form(abc, r, rbar):
    """The MAI quadratic form ``A R^2 + 2 B R Rbar + C Rbar^2`` at ``R = r``, ``Rbar = rbar``."""
    A, B, C = abc
    return A * r * r + 2.0 * B * r * rbar + C * rbar * rbar


def mai_variance_async(taps, weights, pulse: PulseShape):
    """Jitter-averaged MAI variance sum of an asynchronous interferer.

    The mean of :func:`mai_variance_jitter` over a jitter uniform on one
    chip, on the Gauss-Legendre :func:`jitter_nodes`. The integrand is
    a quadratic form in the pulse autocorrelation, so that is far more than
    enough for 1e-9 absolute accuracy. Stacked taps ``(..., L)`` give one sum
    per interferer, of shape ``(...)``, from one :func:`mai_variance_jitter` call.
    """
    eps, w = jitter_nodes()
    # the nodes run along a new last axis, one row of them per interferer
    vals = mai_variance_jitter(np.expand_dims(taps, -2), weights, eps, pulse)
    return np.sum(w * vals, axis=-1)


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
        their broadcast shape and is built in place on the one array that
        the MAI sum allocates.
        """
        n_total = params.processing_gain
        e1 = params.bit_energy[0]
        mai = self.mai_per_user if mai_per_user is None else mai_per_user
        # map, not a generator expression: it keeps no interferer's array past its product
        total = sum(map(operator.mul, params.interferer_energies, mai))
        total /= n_total
        total += e1 * self.ifi1 / (params.n_chips_per_frame * n_total) + e1 * self.ifi2 / n_total
        total += self.noise
        return total


@dataclass(frozen=True)
class BepQuery:
    """One error-probability evaluation request.

    ``channels`` lists one realization per user (the first entry is the user
    of interest) and is required for the multipath modes; the AWGN modes use
    only the scalar system parameters. ``jitters`` holds one sub-chip offset
    per interferer and applies to the conditional mode only.
    """

    # async_exact averages over the jitters by quadrature up to this many
    # users and by Monte Carlo beyond
    exact_quad_max_users: ClassVar[int] = 4

    params: SystemParams
    mode: BepMode
    channels: tuple | None = None
    weights: RakeWeights | None = None
    pulse: PulseShape | None = None
    jitters: tuple | None = None
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
            if not all(0.0 <= j < CHIP_TIME for j in jit):
                raise ValueError("jitters must lie in [0, 1) chip")
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


def _q_of_variance(numerator, variance):
    """``Q(numerator / sqrt(variance))``, element-wise; a zero variance gives 0 for a positive numerator, else 0.5.

    An array of variances is overwritten with the result.
    """
    if not isinstance(variance, np.ndarray):
        if variance <= 0.0:
            return 0.0 if numerator > 0 else 0.5
        return float(q_function(numerator / math.sqrt(variance)))
    silent = variance <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(numerator, np.sqrt(variance, out=variance), out=variance)
    # q_function's operations, in its order
    np.divide(variance, _SQRT2, out=variance)
    special.erfc(variance, out=variance)
    variance *= 0.5
    np.copyto(variance, np.where(np.greater(numerator, 0), 0.0, 0.5), where=silent)
    return variance


class _ExactPass:
    """``(bep, se)`` of ``async_exact`` queries that share one set of jitter points.

    The first lookup evaluates every query in one pass; later lookups read
    their result. Queries are held by identity.
    """

    def __init__(self, queries):
        self.queries, self.results = tuple(queries), None

    def result(self, query: BepQuery) -> tuple[float, float]:
        if self.results is None:
            self.results = dict(zip(map(id, self.queries), _exact_results(self.queries)))
        if id(query) not in self.results:
            raise ValueError("the shared async_exact pass holds no such query")
        return self.results[id(query)]


def _exact_results(queries) -> list:
    """``(bep, se)`` of each query; the first one's settings stand for all."""
    q0 = queries[0]
    p, pulse = q0.params, q0.pulse
    vbs = [variance_breakdown(q) for q in queries]
    n_int = p.n_users - 1
    if n_int == 0:
        return [(_q_of_variance(vb.signal, vb.variance(p)), 0.0) for vb in vbs]
    interferers = [np.stack([ch.taps for ch in q.channels[1:]]) for q in queries]
    # (A, B, C) of each interferer, of shape (3, n_int), per query
    abcs = [np.stack(_form_coefficients(taps, q.weights.beta)) for taps, q in zip(interferers, queries)]
    if p.n_users > q0.exact_quad_max_users:
        return _monte_carlo_results(p, pulse, q0.seed, vbs, abcs)
    # tensor grid: interferer k's nodes run along axis k
    nodes, w = jitter_nodes()
    axes = [tuple(-1 if i == k else 1 for i in range(n_int)) for k in range(n_int)]
    r, rbar = pulse.overlaps(nodes)
    grid = [(r.reshape(axis), rbar.reshape(axis)) for axis in axes]
    weights = math.prod(w.reshape(axis) for axis in axes)

    def average(vb, abc):
        # a generator, so that the variance sum holds one interferer's MAI array at a time
        mai = (_jitter_form(abc[:, k], r_k, rbar_k) for k, (r_k, rbar_k) in enumerate(grid))
        probs = _q_of_variance(vb.signal, vb.variance(p, mai))
        return float(np.sum(np.multiply(weights, probs, out=probs))), 0.0

    return [average(vb, abc) for vb, abc in zip(vbs, abcs)]


def _monte_carlo_results(p: SystemParams, pulse: PulseShape, seed: int, vbs, abcs) -> list:
    """Mean BEP and its standard error over the Monte Carlo jitters, per realization.

    Jitters are drawn, and ``R`` and ``Rbar`` evaluated, a block at a time
    for all realizations. Each realization contracts the features
    ``[R^2, R Rbar, Rbar^2]`` with its coefficients ``E_k / N (A, 2B, C)``,
    and Chan's parallel update merges the blocks' means and squared
    deviations: raw sums of squares would cancel at small BEP.
    """
    n_int, n_real = p.n_users - 1, len(vbs)
    signal = np.array([vb.signal for vb in vbs])
    floor = np.array([vb.variance(p, ()) for vb in vbs])  # the IFI and noise terms
    scale = np.array([[1.0], [2.0], [1.0]]) * np.asarray(p.interferer_energies) / p.processing_gain
    coef = np.stack([(scale * abc).ravel() for abc in abcs], axis=1)
    # every block temporary holds at most _BLOCK_ELEMENTS floats
    rows = max(1, _BLOCK_ELEMENTS // (3 * n_int))
    cols = max(1, _BLOCK_ELEMENTS // rows)
    mean, m2 = np.zeros(n_real), np.zeros(n_real)
    rng = substream(seed, 0)
    for done in range(0, MC_SAMPLES, rows):
        n_b = min(rows, MC_SAMPLES - done)
        # one jitter point per column; realizations run along the rows of var
        eps = rng.uniform(0.0, CHIP_TIME, size=(n_b, n_int)).T.copy()
        r, rbar = pulse.overlaps(eps)
        features = np.concatenate((r * r, r * rbar, rbar * rbar))
        for j in range(0, n_real, cols):
            js = slice(j, j + cols)
            # einsum, not a threaded BLAS product: the pool's spinning threads cost CPU time
            var = np.einsum("ji,jk->ki", features, coef[:, js]) + floor[js, None]
            probs = _q_of_variance(signal[js, None], var)
            block_mean = probs.mean(axis=1)
            delta = block_mean - mean[js]
            mean[js] += delta * (n_b / (done + n_b))
            m2[js] += np.square(probs - block_mean[:, None]).sum(axis=1) + delta * delta * (done * n_b / (done + n_b))
    se = np.sqrt(m2 / (MC_SAMPLES - 1)) / math.sqrt(MC_SAMPLES)
    return list(zip(mean.tolist(), se.tolist()))


def bep_async_exact(query: BepQuery, record: _ExactPass | None = None) -> tuple[float, float]:
    """Asynchronous BEP averaged over the interferer jitters, with its error.

    For a handful of interferers the jitter average is a tensor-product
    Gauss-Legendre quadrature (zero reported error); beyond
    ``exact_quad_max_users`` users it switches to Monte Carlo over the jitter
    cube and reports the standard error of the estimate. ``record`` is the
    shared pass of :func:`average_bep`, which must hold ``query``; without
    one the query is a pass of its own.
    """
    if query.mode is not BepMode.ASYNC_EXACT:
        raise ValueError("bep_async_exact requires mode async_exact")
    return (record or _ExactPass((query,))).result(query)


def bep(query: BepQuery, record: _ExactPass | None = None) -> float:
    """Bit error probability for the requested mode.

    The multipath modes read their :func:`variance_breakdown`; the AWGN
    modes are the single-path specializations, written out as scalars.
    Every mode is strictly decreasing in the desired user's energy and
    increasing in the noise level. ``record`` is the shared ``async_exact``
    pass of :func:`average_bep`; the other modes ignore it.
    """
    p = query.params
    mode = query.mode
    if mode is BepMode.ASYNC_EXACT:
        return bep_async_exact(query, record)[0]
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
    """Mean BEP over a channel ensemble, with the standard error of the mean.

    Calls :func:`bep` once per query. When every query is ``async_exact``
    with the same ``params``, ``pulse`` and ``seed``, they share one set of
    jitter points, and one shared record evaluates the whole ensemble in a
    single pass over them.
    The pass works in blocks, so its memory does not grow with the ensemble.
    """
    if not queries:
        raise ValueError("average_bep needs at least one query")
    q0 = queries[0]
    key = (BepMode.ASYNC_EXACT, q0.params, q0.pulse, q0.seed)
    shared = all((q.mode, q.params, q.pulse, q.seed) == key for q in queries)
    record = _ExactPass(queries) if shared else None
    values = np.asarray([bep(q, record) for q in queries], dtype=float)
    if values.size == 1:
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))
