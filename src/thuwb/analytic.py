"""Closed-form interference variances and bit-error-probability expressions.

The Gaussian-approximation BEP of the Rake output is assembled from four
variance contributions: the two inter-frame-interference (IFI) terms of the
desired user, one multiple-access-interference (MAI) term per interferer, and
the filtered-noise term. All variance helpers return the unscaled bracketed
sums, so each sum can be validated in isolation. The per-energy and
processing-gain factors of the IFI and noise terms, and of the ``sync`` and
``async_sga`` MAI sums, are applied in ``VarianceBreakdown.variance``;
``async_exact`` scales its per-node MAI terms, read from
:func:`mai_variance_jitter`, in :func:`bep_async_exact`.

No :class:`VarianceBreakdown` field depends on the noise level, which
:meth:`VarianceBreakdown.variance` adds, so a :class:`ClosedFormSweep` record
keeps the ``sync`` or ``async_sga`` breakdown of an ensemble along a noise
sweep; :func:`bep` alone fills it and refuses what it cannot share.

A fading ensemble is one stacked query: ``R`` channel realizations along a
leading axis of the taps and the Rake weights. Every step, from the one
:func:`~thuwb.rake.lag_dot` call per correlation sequence to ``Q``, runs once
over the stack, and each value is bit for bit its realization's own query's.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar, Sequence

import numpy as np

from .model import PulseShape, SystemParams, check_jitter, gamma_factor, jitter_nodes
from .rake import correlation_sequence

__all__ = [
    "BepMode",
    "BepQuery",
    "ClosedFormSweep",
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

# bin counts of the two binned convolutions that bep_async_exact extrapolates
# from, for two or more interferers
_BINS = (1024, 2048)


# Cephes's erfc (S. L. Moshier, ndtr.c, after W. J. Cody, Math. Comp. 23,
# 1969): three rational functions, each a (numerator, denominator) pair of
# coefficients from the highest power down, the denominators' leading 1
# written out
_ERFC_NEAR = (  # |a| < 1: 1 - a T(a^2) / U(a^2)
    (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
     5.55923013010394962768e4),
    (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3, 2.26290000613890934246e4,
     4.92673942608635921086e4),
)
_ERFC_MID = (  # 1 <= |a| < 8: exp(-a^2) P(|a|) / Q(|a|)
    (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0, 4.86371970985681366614e1,
     1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
     5.57535335369399327526e2),
    (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
     1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2),
)
_ERFC_FAR = (  # |a| >= 8: exp(-a^2) R(|a|) / S(|a|)
    (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0, 6.16021097993053585195e0,
     7.40974269950448939160e0, 2.97886665372100240670e0),
    (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1, 1.70814450747565897222e1,
     9.60896809063285878198e0, 3.36907645100081516050e0),
)
# beyond a^2 = _MAXLOG erfc(a) is 0, or 2 for negative a
_MAXLOG = 7.09782712893383996843e2


def _horner(coefs, t):
    """The polynomial ``coefs`` (highest power first) at a float or array ``t``, one multiply and one add at a time."""
    acc = coefs[0] * t
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= t
        acc += c
    return acc


def _rational(pair, t, scale):
    """``scale * num(t) / den(t)`` in that order of operations, in place on an array ``scale``."""
    num, den = pair
    scale *= _horner(num, t)
    scale /= _horner(den, t)
    return scale


def _erfc(a):
    """Cephes's complementary error function of a float, or elementwise of a float64 array.

    A float takes the same float64 steps as an array element, so it gets the
    same bits: its exponential is NumPy's too, since ``math.exp`` differs
    from it in the last bit on some inputs.
    """
    if isinstance(a, float):
        x = abs(a)
        if x < 1.0:
            return 1.0 - _rational(_ERFC_NEAR, a * a, a)
        if a * a > _MAXLOG:
            return 2.0 if a < 0.0 else 0.0
        y = _rational(_ERFC_MID if x < 8.0 else _ERFC_FAR, x, float(np.exp(-(a * a))))
        return 2.0 - y if a < 0.0 else y
    if a.size and 1.0 <= a.min() and a.max() < 8.0:
        # the common case: every element on the middle branch, none negative
        return _rational(_ERFC_MID, a, np.exp(-(a * a)))
    # otherwise each branch on its own elements of y = |a|, which it overwrites;
    # NaN takes the middle one
    y = np.abs(a)
    near, far = y < 1.0, y >= 8.0
    mid = ~(near | far)
    if mid.any():
        v = y[mid]
        y[mid] = _rational(_ERFC_MID, v, np.exp(-(v * v)))
    if near.any():
        v = a[near]
        y[near] = 1.0 - _rational(_ERFC_NEAR, v * v, v)
    if far.any():
        # clipped at 27, whose square is beyond _MAXLOG, so that no square overflows
        v = np.minimum(y[far], 27.0)
        y[far] = np.where(v * v > _MAXLOG, 0.0, _rational(_ERFC_FAR, v, np.exp(-(v * v))))
    negative = a <= -1.0
    y[negative] = 2.0 - y[negative]
    return y


def q_function(x):
    """Standard normal tail probability, ``erfc(x / sqrt(2)) / 2``: a float for a scalar, else an array of x's shape."""
    if isinstance(x, float):  # the closed forms' scalars skip NumPy's 0-d arithmetic
        return 0.5 * _erfc(float(x) / _SQRT2)
    a = np.asarray(x, dtype=float) / _SQRT2
    return 0.5 * _erfc(a if a.ndim else float(a))


def ifi_variance_components(taps, weights, n_chips_per_frame: int) -> tuple:
    """The two unscaled IFI variance sums of the desired user.

    The first sum collects pulse spill-over of up to one frame (lags below
    ``min(n_chips_per_frame, L)``); the second collects the deeper spill that
    only exists when the channel is longer than a frame. The pair covers
    every spread: within one frame (``L <= n_chips_per_frame``) the second
    sum is empty and the first is the whole IFI variance. In the error
    probability the first term is scaled by ``E1 / (Nc * N)`` and the second
    by ``E1 / N``. Stacked taps ``(..., L)`` give two sums of shape ``(...)``,
    with ``weights`` as in :func:`~thuwb.rake.correlation_sequence`.
    """
    nc = int(n_chips_per_frame)
    if nc < 1:
        raise ValueError("n_chips_per_frame must be >= 1")
    c = correlation_sequence(taps, weights)
    n = (c.shape[-1] - 1) // 2
    s = c[..., n:] + c[..., n::-1]  # s[j] = c[L + j] + c[L - j] for j = 0 .. L
    near = s[..., 1:nc] ** 2
    far = s[..., nc:-1]
    return np.vecdot(near, np.arange(1.0, near.shape[-1] + 1)), np.vecdot(far, far)


def mai_variance_sync(taps, weights):
    """Unscaled MAI variance sum for a chip- or symbol-synchronized interferer.

    Scaled by ``E_k / N`` in the error probability. Independent of the whole-
    chip delay of the interferer, which is why the chip- and symbol-
    synchronous cases behave identically. Stacked taps ``(..., L)`` give one
    sum per interferer, of shape ``(...)``, with ``weights`` as in
    :func:`~thuwb.rake.correlation_sequence`.
    """
    c = correlation_sequence(taps, weights)
    return np.vecdot(c, c)


def mai_variance_jitter(taps, weights, jitter, pulse: PulseShape):
    """Unscaled MAI variance sum for an interferer with a sub-chip jitter.

    The squared cross-correlation summed over every chip offset: with
    ``R = R(jitter)``, ``Rbar = R(1 - jitter)`` and ``c`` the
    correlation sequence, the quadratic form ``A R^2 + 2 B R Rbar + C Rbar^2``
    with ``A = |c[:-1]|^2``, ``B = c[:-1] . c[1:]`` and ``C = |c[1:]|^2``,
    its three terms summed in place in that order (two result-sized arrays).
    Stacked taps ``(..., L)`` give ``A``, ``B`` and ``C`` of shape ``(...)``,
    and ``jitter`` (a scalar or an array) broadcasts against them: the result
    has their broadcast shape. ``weights`` is one vector, or an ``(R, L)``
    stack whose row ``r`` serves ``taps[r]`` (see
    :func:`~thuwb.rake.correlation_sequence`); the pulse is evaluated once
    per call. At zero jitter this reduces exactly to :func:`mai_variance_sync`.
    """
    r, rbar = pulse.overlaps(check_jitter(jitter))
    c = correlation_sequence(taps, weights)
    lo, hi = c[..., :-1], c[..., 1:]
    A, B, C = np.vecdot(lo, lo), np.vecdot(lo, hi), np.vecdot(hi, hi)
    form = A * r
    form *= r
    for coef, s in ((2.0 * B, r), (C, rbar)):
        term = coef * s
        term *= rbar
        form += term
        del term  # freed before the next term is made
    return form


def mai_variance_async(taps, weights, pulse: PulseShape):
    """Jitter-averaged MAI variance sum of an asynchronous interferer.

    The mean of :func:`mai_variance_jitter` over a jitter uniform on one
    chip, on the Gauss-Legendre :func:`jitter_nodes`. The integrand is
    a quadratic form in the pulse autocorrelation, so that is far more than
    enough for 1e-9 absolute accuracy. Stacked taps ``(..., L)`` give one sum
    per interferer, of shape ``(...)``, from one :func:`mai_variance_jitter` call,
    with ``weights`` as there.
    """
    eps, w = jitter_nodes()
    # the nodes run along a new last axis, one row of them per interferer
    vals = mai_variance_jitter(np.expand_dims(taps, -2), weights, eps, pulse)
    return np.sum(w * vals, axis=-1)


class BepMode(str, enum.Enum):
    """Which closed-form error probability to evaluate."""

    SYNC = "sync"
    ASYNC_EXACT = "async_exact"
    ASYNC_SGA = "async_sga"
    AWGN_SYNC = "awgn_sync"
    AWGN_ASYNC = "awgn_async"
    AWGN_NO_POLARITY_SYNC = "awgn_no_polarity_sync"


MULTIPATH_MODES = (BepMode.SYNC, BepMode.ASYNC_EXACT, BepMode.ASYNC_SGA)
_EQUAL_ENERGY_MODES = (
    BepMode.ASYNC_SGA,
    BepMode.AWGN_SYNC,
    BepMode.AWGN_ASYNC,
    BepMode.AWGN_NO_POLARITY_SYNC,
)


@dataclass(frozen=True)
class VarianceBreakdown:
    """Desired amplitude and unscaled variance sums entering one BEP evaluation, or ``R`` of them.

    For one channel realization every field is a float and ``mai_per_user``
    a tuple, one sum per interferer. For a stacked query every field is an
    array with the leading realization axis, ``mai_per_user`` of shape
    ``(R, n_users - 1)``. ``weight_energy`` is the Rake weights' ``|beta|^2``,
    which the noise density scales in :meth:`variance`, so no field depends
    on the noise level.
    """

    signal: float | np.ndarray
    ifi1: float | np.ndarray
    ifi2: float | np.ndarray
    mai_per_user: tuple | np.ndarray
    weight_energy: float | np.ndarray

    def __post_init__(self):
        parts = (self.ifi1, self.ifi2, self.weight_energy)
        if isinstance(self.mai_per_user, tuple):  # floats, compared without NumPy's per-call cost
            negative = min(parts + self.mai_per_user) < 0
        else:
            negative = any((p < 0).any() for p in parts + (self.mai_per_user,))
        if negative:
            raise ValueError("variance components must be non-negative")

    def variance(self, params: SystemParams):
        """Variance of the decision statistic: every sum scaled by its energy and gain, plus ``noise_psd |beta|^2``.

        The interferers' terms are added in turn, first to last; an empty
        ``mai_per_user`` (``async_exact``) adds none.
        """
        n_total = params.processing_gain
        e1 = params.bit_energy[0]
        mai = np.asarray(self.mai_per_user, dtype=float)
        mai = np.cumsum(np.multiply(params.interferer_energies, mai), axis=-1)[..., -1] if mai.shape[-1] else 0.0
        ifi = e1 * self.ifi1 / (params.n_chips_per_frame * n_total) + e1 * self.ifi2 / n_total
        return mai / n_total + ifi + params.noise_psd * self.weight_energy


@dataclass(frozen=True)
class BepQuery:
    """One error-probability evaluation request, or one per channel realization.

    The multipath modes require ``taps``, one tap vector per user of shape
    ``(n_users, L)`` with the user of interest in row 0, and the Rake
    weights ``beta`` of shape ``(L,)``; both must be finite and are stored
    as read-only copies. A fading ensemble stacks ``R`` such realizations:
    ``taps`` of shape ``(R, n_users, L)`` and ``beta`` of shape ``(R, L)``,
    and :func:`bep` then returns ``R`` values. The AWGN modes use only the
    scalar system parameters.
    """

    # async_exact is the exact node sum up to this many users and the binned
    # convolution beyond; only bench/run.py's _exact_branch reads it, and
    # ROADMAP item 2 removes it
    exact_quad_max_users: ClassVar[int] = 2

    params: SystemParams
    mode: BepMode
    taps: np.ndarray | None = None
    beta: np.ndarray | None = None
    pulse: PulseShape | None = None

    def __post_init__(self):
        mode = BepMode(self.mode)
        object.__setattr__(self, "mode", mode)
        p = self.params
        if mode in MULTIPATH_MODES:
            if self.taps is None or self.beta is None:
                raise ValueError(f"mode {mode.value} requires taps and beta")
            taps, beta = np.array(self.taps, dtype=float), np.array(self.beta, dtype=float)
            # a stacked query carries the realization axis on both
            stacked = taps.ndim == 3 and beta.ndim == 2
            form = "(R, n_users, L) with R >= 1 and" if stacked else "(n_users, L) with"
            if taps.ndim != 2 + stacked or taps.shape[-2] != p.n_users or taps.shape[-1] < 1 or taps.shape[0] < 1:
                raise ValueError(f"taps must have shape {form} n_users = {p.n_users}, got {taps.shape}")
            if beta.shape != taps.shape[:-2] + taps.shape[-1:]:
                form = f"(R, L) with R = {taps.shape[0]} and" if stacked else "(L,) with"
                raise ValueError(f"beta must have shape {form} L = {taps.shape[-1]}, got {beta.shape}")
            finite = np.isfinite(taps).all(axis=(-2, -1)) & np.isfinite(beta).all(axis=-1)
            if not finite.all():
                where = f": realization {int(np.argmin(finite))} is not" if stacked else ""
                raise ValueError(f"taps and beta must be finite{where}")
            for name, value in (("taps", taps), ("beta", beta)):
                value.setflags(write=False)
                object.__setattr__(self, name, value)
        if mode in (BepMode.ASYNC_EXACT, BepMode.ASYNC_SGA, BepMode.AWGN_ASYNC):
            if self.pulse is None:
                raise ValueError(f"mode {mode.value} requires a pulse shape")
        if mode in _EQUAL_ENERGY_MODES and p.n_users > 1:
            energies = p.interferer_energies
            if any(e != energies[0] for e in energies):
                raise ValueError(f"mode {mode.value} assumes equal interferer energies")


def variance_breakdown(query: BepQuery) -> VarianceBreakdown:
    """Desired amplitude and unscaled variance sums of a multipath mode.

    A stacked query gives every sum of every realization from one pass over
    the stack; a query of one realization gives floats from the same code.
    Under ``async_exact`` each interferer's MAI sum depends on its jitter,
    which :func:`bep_async_exact` integrates out, so ``mai_per_user`` is empty.
    """
    mode = query.mode
    if mode not in MULTIPATH_MODES:
        raise ValueError(f"no per-term breakdown for mode {mode.value}")
    p = query.params
    alpha1, interferers = query.taps[..., 0, :], query.taps[..., 1:, :]
    beta = query.beta
    if mode is BepMode.SYNC:
        mai = mai_variance_sync(interferers, beta)
    elif mode is BepMode.ASYNC_SGA:
        mai = mai_variance_async(interferers, beta, query.pulse)
    else:
        mai = np.zeros(interferers.shape[:-2] + (0,))
    signal = math.sqrt(p.bit_energy[0]) * np.vecdot(alpha1, beta)
    ifi1, ifi2 = ifi_variance_components(alpha1, beta, p.n_chips_per_frame)
    weight_energy = np.vecdot(beta, beta)
    if query.taps.ndim == 2:
        return VarianceBreakdown(float(signal), float(ifi1), float(ifi2), tuple(map(float, mai)), float(weight_energy))
    return VarianceBreakdown(signal, ifi1, ifi2, mai, weight_energy)


def _q_of_variance(numerator, variance):
    """``Q(numerator / sqrt(variance))``, element-wise; a zero variance gives 0 for a positive numerator, else 0.5.

    A float for scalars, else an array of the broadcast shape.
    """
    if not isinstance(variance, np.ndarray):
        if variance <= 0.0:
            return 0.0 if numerator > 0 else 0.5
        return float(q_function(numerator / math.sqrt(variance)))
    silent = 0.5 - 0.5 * (numerator > 0)  # 0 where the numerator is positive, else 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(variance > 0.0, q_function(numerator / np.sqrt(variance)), silent)


def _binned_sum(g, w, bins: int):
    """The distribution of ``sum_k g_k`` with every ``g_k`` spread onto ``bins`` bins: ``(h, pmf)``.

    Row ``g[k]`` holds interferer ``k``'s values at the nodes of weights
    ``w``. Each atom is split between its two neighbouring bins of width
    ``h = sum_k max g_k / (bins - 1) > 0``, which keeps its mass and its mean;
    the convolution of the binned distributions is the distribution of the
    sum, on the lattice ``h * arange(pmf.size)``.
    """
    h = float(np.sum(np.max(g, axis=1))) / (bins - 1)
    pmf = np.ones(1)
    for row in g / h:
        lo = row.astype(np.intp)
        upper = w * (row - lo)
        size = int(lo.max()) + 2
        pmf = np.convolve(pmf, np.bincount(lo, w - upper, size) + np.bincount(lo + 1, upper, size))
    return h, pmf


def bep_async_exact(query: BepQuery) -> tuple[float, float]:
    """Asynchronous BEP averaged over the interferer jitters, with its error.

    The jitters are independent and uniform on one chip, so the decision
    variance is the IFI and noise floor plus one MAI term per interferer,
    its :func:`mai_variance_jitter` sum scaled here by ``E_k / N``. For one
    interferer the average is the Gauss-Legendre sum over the
    :func:`jitter_nodes` (zero reported error). For more, each interferer's
    term on those nodes is a discrete distribution; the distributions are
    binned on a common lattice and convolved at the two bin counts of
    ``_BINS``, and the Richardson extrapolation of the two averages is
    returned with their difference as its error. Takes one realization;
    :func:`bep` evaluates a stacked query realization by realization.
    """
    if query.mode is not BepMode.ASYNC_EXACT:
        raise ValueError("bep_async_exact requires mode async_exact")
    if query.taps.ndim != 2:
        raise ValueError("bep_async_exact takes one channel realization; bep takes a stacked query")
    p = query.params
    vb = variance_breakdown(query)
    floor = vb.variance(p)
    nodes, w = jitter_nodes()
    mai = mai_variance_jitter(query.taps[1:, None, :], query.beta, nodes, query.pulse)
    # interferer k's scaled MAI term at each node, one row per interferer,
    # clipped at 0: a rounding-negative value would put negative mass in a bin
    g = np.maximum(np.asarray(p.interferer_energies)[:, None] / p.processing_gain * mai, 0.0)
    if not g.any():
        return _q_of_variance(vb.signal, floor), 0.0
    if len(g) == 1:
        return float(np.sum(w * _q_of_variance(vb.signal, floor + g[0]))), 0.0
    (h1, pmf1), (h2, pmf2) = (_binned_sum(g, w, bins) for bins in _BINS)
    # one Q pass over both lattices: a pass costs about as much per call as per bin
    probs = _q_of_variance(vb.signal, floor + np.concatenate([h1 * np.arange(pmf1.size), h2 * np.arange(pmf2.size)]))
    f1, f2 = float(probs[: pmf1.size] @ pmf1), float(probs[pmf1.size :] @ pmf2)
    return (4.0 * f2 - f1) / 3.0, abs(f2 - f1)


@dataclass
class ClosedFormSweep:
    """The :class:`VarianceBreakdown` of one ``sync`` or ``async_sga`` ensemble, shared along a noise sweep.

    A plain record like :class:`~thuwb.simulator.NoiseSweep`, made per run on
    the run's ``(R, n_users, L)`` ensemble ``taps``, held without a copy.
    :func:`bep` fills ``key``, the first query's settings but its noise level,
    and ``breakdown``, and checks every query against them. ``async_exact`` is
    not shared: its noise-free part holds two binned lattices per realization.
    """

    MODES = (BepMode.SYNC, BepMode.ASYNC_SGA)

    taps: np.ndarray
    key: dict | None = None
    breakdown: VarianceBreakdown | None = None


def bep(query: BepQuery, sweep: ClosedFormSweep | None = None):
    """Bit error probability for the requested mode: a float, or an array of ``R`` for a stacked query.

    The multipath modes read their :func:`variance_breakdown`, and
    ``async_exact`` :func:`bep_async_exact`, once per realization; the AWGN
    modes are the single-path specializations, written out as scalars.
    Every mode is strictly decreasing in the desired user's energy and
    increasing in the noise level.

    A shared ``sweep`` takes only stacked ``sync`` and ``async_sga``
    queries. The first, whose taps must be the sweep's, fills it; a later one
    only adds its noise level, bit for bit as without the sweep, and its taps
    are compared by shape, as a run builds every point from one ensemble. A
    query whose key differs is refused by one ValueError naming every entry
    that differs, and leaves the sweep as it was.
    """
    p = query.params
    mode = query.mode
    if sweep is not None:
        if mode not in sweep.MODES or query.taps.ndim != 3:
            raise ValueError("a ClosedFormSweep takes stacked sync or async_sga queries")
        key = {"mode": mode.value, "pulse": query.pulse}
        key.update((f.name, getattr(p, f.name)) for f in fields(p) if f.name != "noise_psd")
        key.update({"taps shape": query.taps.shape, "beta shape": query.beta.shape})
        if sweep.key is None:
            if query.taps.shape != sweep.taps.shape:
                raise ValueError(f"the sweep holds taps of shape {sweep.taps.shape}, not {query.taps.shape}")
            differ = (query.taps != sweep.taps).reshape(len(sweep.taps), -1).any(axis=1)
            if differ.any():
                raise ValueError(f"taps of realization {int(np.argmax(differ))} differ from the sweep's")
            sweep.key, sweep.breakdown = key, variance_breakdown(query)
        if key != sweep.key:
            differ = [f"{name} {held}, not {key[name]}" for name, held in sweep.key.items() if key[name] != held]
            raise ValueError(f"the sweep holds {'; '.join(differ)}")
    elif mode is BepMode.ASYNC_EXACT:
        if query.taps.ndim == 2:
            return bep_async_exact(query)[0]
        return np.array([bep_async_exact(replace(query, taps=t, beta=b))[0] for t, b in zip(query.taps, query.beta)])
    if mode in MULTIPATH_MODES:
        vb = variance_breakdown(query) if sweep is None else sweep.breakdown
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


def average_bep(queries: Sequence[BepQuery], sweep: ClosedFormSweep | None = None) -> tuple[float, float]:
    """Mean BEP over a channel ensemble, with the standard error of the mean.

    A list of ``sync`` or ``async_sga`` queries alike in mode, params, pulse
    and tap shape is stacked into one query, and :func:`bep` is called once.
    Any other list is evaluated query by query: :func:`bep_async_exact`
    takes one realization at a time, so a stack would only hold every
    realization's taps at once. A shared ``sweep`` goes to each :func:`bep`
    call, which refuses any query but a stacked ``sync`` or ``async_sga``
    one.
    """
    if not queries:
        raise ValueError("average_bep needs at least one query")
    first = queries[0]
    alike = [(q.mode, q.params, q.pulse, np.shape(q.taps)) for q in queries]
    stackable = first.mode in (BepMode.SYNC, BepMode.ASYNC_SGA) and all(key == alike[0] for key in alike)
    if stackable:
        stacked = replace(first, taps=np.stack([q.taps for q in queries]), beta=np.stack([q.beta for q in queries]))
        values = bep(stacked, sweep)
    else:
        values = np.array([bep(q, sweep) for q in queries])
    if values.size == 1:
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))
