"""Rake combining-weight selection and the pulse-train cross-correlation primitive.

The cross-correlation here is the single signal-domain primitive shared by the
closed-form error analysis and the Monte Carlo engine: the correlation between
one user's received multipath pulse train and the Rake template, at an offset
of a whole number of chips plus a sub-chip jitter. Keeping one implementation
for both consumers means any theory/simulation gap is statistical, not a code
divergence.

The primitive takes stacked tap vectors ``(..., L)``, so one call serves all
users of a drop or all interferers of a channel realization, and every lag of
the sequence comes from one batched :func:`lag_dot` call, also for one weight
vector per channel realization. Each entry is one 1-D dot product of a tap row
against a zero-padded, shifted view of its weights, so a stacked call equals
the row-by-row calls bit for bit. Lag ``j`` of :func:`correlation_sequence`
and offset ``j`` of :func:`cross_correlation_table` both sit at
``[..., L + j]``; neither comes with an offsets array.
"""

from __future__ import annotations

import numpy as np

from .model import PulseShape, check_jitter

ARAKE = "arake"
SRAKE = "srake"
PRAKE = "prake"
EGC = "egc"

SCHEMES = (ARAKE, SRAKE, PRAKE, EGC)

__all__ = [
    "ARAKE",
    "SRAKE",
    "PRAKE",
    "EGC",
    "SCHEMES",
    "select_weights",
    "lag_dot",
    "correlation_sequence",
    "cross_correlation_table",
]


def select_weights(taps, scheme: str, fingers: int | None = None) -> np.ndarray:
    """Maximal-ratio combining weights ``beta`` for the tap vector ``taps``, or for each row of a stack of them.

    ``arake`` uses every path; ``srake`` keeps the ``fingers`` largest-gain
    paths (ties broken toward the lower index); ``prake`` keeps the first
    ``fingers`` paths. ``egc`` keeps the sign only, on the same selection as
    ``srake`` (or on all paths when ``fingers`` is None). Returns a read-only
    array of the taps' shape: stacked taps ``(..., L)`` give each row its own call's weights.
    """
    alpha = np.asarray(taps, dtype=float)
    if alpha.ndim < 1 or alpha.shape[-1] < 1:
        raise ValueError("taps must be a non-empty 1-D vector")
    n = alpha.shape[-1]
    if scheme not in SCHEMES:
        raise ValueError(f"unknown combining scheme {scheme!r}")
    keep = np.zeros(alpha.shape, dtype=bool)
    if scheme == ARAKE or (scheme == EGC and fingers is None):
        keep[...] = True
    elif fingers is None or not 1 <= fingers <= n:
        raise ValueError(f"{scheme} requires fingers in [1, {n}] (the number of paths), got {fingers}")
    elif scheme == PRAKE:
        keep[..., :fingers] = True
    else:
        np.put_along_axis(keep, np.argsort(-np.abs(alpha), axis=-1, kind="stable")[..., :fingers], True, axis=-1)
    beta = np.where(keep, np.sign(alpha) if scheme == EGC else alpha, 0.0)
    beta.setflags(write=False)
    return beta


def lag_dot(x, y):
    """Sum of ``x[..., l] * y[l + j]`` over the valid ``l``, at every lag ``j = -L .. L``.

    ``y`` (the weights) is one vector as long as the last axis of ``x`` (the
    taps), shared by every row of ``x``, or an ``(R, L)`` stack of them whose
    row ``r`` serves ``x[r]``; the other leading axes of ``x`` broadcast. The
    C-contiguous result holds lag ``j`` at ``[..., L + j]``. Each entry is one
    1-D dot product of a row of ``x`` with a shifted, zero-padded view of its
    weights, as the row's own call makes it.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    stacked = x.ndim >= 2 and np.shape(y) == (len(x), n)
    if not stacked and np.shape(y) != (n,):
        raise ValueError("y (the weights) must be one vector as long as the taps, or one such row per x[r]")
    padded = np.zeros(np.shape(y)[:-1] + (3 * n,))
    padded[..., n : 2 * n] = y
    # window s, a contiguous view of the padded 8-byte weights, is y shifted by s - n;
    # a C-ordered result, also for Fortran-ordered taps, keeps an unstacked call's bits in the sums built on it
    windows = np.ndarray(padded.shape[:-1] + (2 * n + 1, n), buffer=padded, strides=padded.strides + (8,))
    if stacked:
        # a reshape, not np.expand_dims, whose axis check leaves 56 bytes per call in tracemalloc's count
        windows = windows.reshape(windows.shape[:1] + (1,) * (x.ndim - 2) + windows.shape[1:])
    return np.vecdot(x[..., None, :], windows, order="C")


def correlation_sequence(taps, weights) -> np.ndarray:
    """Chip-lag correlation sequence between tap vectors and the weights.

    Returns ``c`` of shape ``(..., 2L + 1)`` with ``c[..., L + j]`` holding
    ``sum_l alpha[l] * beta[l + j]`` for ``j = -L .. L``, from one
    :func:`lag_dot` call. Both ends are zero. ``taps`` may stack tap vectors
    along leading axes ``(..., L)``; ``weights`` is one vector, shared by
    every row, or an ``(R, L)`` stack whose row ``r`` serves ``taps[r]`` (a
    channel ensemble, one Rake per realization), bit for bit as unstacked.
    The closed forms and the simulator call this name, not :func:`lag_dot`:
    ``bench/run.py`` times and counts the two as separate layers.
    """
    return lag_dot(taps, weights)


def cross_correlation_table(taps, weights, jitter, pulse: PulseShape) -> np.ndarray:
    """Pulse-train/template cross-correlation at every chip offset with support.

    A pulse offset by ``j`` chips plus a sub-chip ``jitter`` overlaps exactly
    two chip-aligned template pulses, so the value at offset ``j`` is the
    lag-``j`` correlation weighted by ``R(jitter)`` plus the next lag weighted
    by ``R(1 - jitter)``. Returns the values alone, shape ``(..., 2L)``, with
    offset ``j`` at ``[..., L + j]`` for ``j = -L .. L-1``, where
    :func:`correlation_sequence` holds lag ``j``; no offsets array comes with
    them, and the value is zero at every other offset. Stacked taps
    ``(..., L)`` take one jitter per row (``jitter`` of shape ``(...)``). The
    Monte Carlo engine looks pulse collisions up by whole-chip distance.
    """
    r, rbar = pulse.overlaps(check_jitter(jitter))
    c = correlation_sequence(taps, weights)
    return r[..., None] * c[..., :-1] + rbar[..., None] * c[..., 1:]
