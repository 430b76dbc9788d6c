"""Rake combining-weight selection and the pulse-train cross-correlation primitive.

The cross-correlation here is the single signal-domain primitive shared by the
closed-form error analysis and the Monte Carlo engine: the correlation between
one user's received multipath pulse train and the Rake template, at an offset
of a whole number of chips plus a sub-chip jitter. Keeping one implementation
for both consumers means any theory/simulation gap is statistical, not a code
divergence.

The primitive takes stacked tap vectors ``(..., L)``, so one call serves all
users of a drop or all interferers of a channel realization, and every lag of
the sequence comes from one batched :func:`lag_dot` call. Each entry is one
1-D dot product of a tap row against a zero-padded, shifted copy of the
weights, so a stacked call equals the row-by-row calls bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
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
    "RakeWeights",
    "select_weights",
    "lag_dot",
    "correlation_sequence",
    "cross_correlation_table",
]


@dataclass(frozen=True)
class RakeWeights:
    """Combining weights, one per path."""

    beta: np.ndarray

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        if beta.ndim != 1 or beta.size < 1:
            raise ValueError("beta must be a non-empty 1-D vector")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)


def select_weights(channel: ChannelRealization, scheme: str, fingers: int | None = None) -> RakeWeights:
    """Maximal-ratio combining weights for the requested Rake structure.

    ``arake`` uses every path; ``srake`` keeps the ``fingers`` largest-gain
    paths (ties broken toward the lower index); ``prake`` keeps the first
    ``fingers`` paths. ``egc`` keeps the sign only, on the same selection as
    ``srake`` (or on all paths when ``fingers`` is None).
    """
    alpha = channel.taps
    n = alpha.size
    if scheme not in SCHEMES:
        raise ValueError(f"unknown combining scheme {scheme!r}")
    if scheme == ARAKE or (scheme == EGC and fingers is None):
        keep = slice(None)
    elif fingers is None or not 1 <= fingers <= n:
        raise ValueError(f"{scheme} requires fingers in [1, {n}] (the number of paths), got {fingers}")
    elif scheme == PRAKE:
        keep = slice(fingers)
    else:
        keep = np.argsort(-np.abs(alpha), kind="stable")[:fingers]
    beta = np.zeros(n)
    beta[keep] = np.sign(alpha[keep]) if scheme == EGC else alpha[keep]
    return RakeWeights(beta)


def lag_dot(x, y, lag):
    """Sum of ``x[..., l] * y[l + lag]`` over the valid ``l``, for every lag.

    ``y`` (the weights) is one vector as long as the last axis of ``x`` (the
    taps); the leading axes of ``x`` broadcast. ``lag`` is an int or an
    integer array of any sign, and the result has shape
    ``x.shape[:-1] + lag.shape``; a lag with ``|lag| >= len(y)`` gives
    exactly 0. Each entry is one 1-D dot product of a row of ``x`` with a
    shifted, zero-padded copy of ``y``.
    """
    x = np.asarray(x, dtype=float)
    lag = np.asarray(lag)
    n = x.shape[-1]
    if np.shape(y) != (n,):
        raise ValueError("y (the weights) must be one vector as long as the taps")
    padded = np.zeros(3 * n)
    padded[n : 2 * n] = y
    # y[l + lag] sits at padded[n + l + lag]; an index past either end clips onto the zero padding
    shifted = padded.take(lag[..., None] + np.arange(n, 2 * n), mode="clip")
    return np.vecdot(x.reshape(x.shape[:-1] + (1,) * lag.ndim + (n,)), shifted)


def correlation_sequence(taps, weights) -> np.ndarray:
    """Chip-lag correlation sequence between tap vectors and the weights.

    Returns ``c`` of shape ``(..., 2L + 1)`` with ``c[..., L + j]`` holding
    ``sum_l alpha[l] * beta[l + j]`` for ``j = -L .. L``, one
    :func:`lag_dot` call for every lag. Both ends are zero. ``taps`` may
    stack tap vectors along leading axes ``(..., L)``; ``weights`` is one
    vector, shared by every row.
    """
    n = np.shape(taps)[-1]
    return lag_dot(taps, weights, np.arange(-n, n + 1))


def cross_correlation_table(taps, weights, jitter, pulse: PulseShape) -> tuple[np.ndarray, np.ndarray]:
    """Pulse-train/template cross-correlation at every chip offset with support.

    A pulse offset by ``j`` chips plus a sub-chip ``jitter`` overlaps exactly
    two chip-aligned template pulses, so the value at offset ``j`` is the
    lag-``j`` correlation weighted by ``R(jitter)`` plus the next lag weighted
    by ``R(1 - jitter)``. Returns ``(offsets, values)`` with
    ``offsets = -L .. L-1``; the value is zero at every other offset. Stacked
    taps ``(..., L)`` take one jitter per row (``jitter`` of shape ``(...)``)
    and give ``values`` of shape ``(..., 2L)``. The Monte Carlo engine looks
    pulse collisions up by whole-chip distance.
    """
    r, rbar = pulse.overlaps(check_jitter(jitter))
    c = correlation_sequence(taps, weights)
    n = (c.shape[-1] - 1) // 2
    offsets = np.arange(-n, n)
    values = np.expand_dims(r, -1) * c[..., :-1] + np.expand_dims(rbar, -1) * c[..., 1:]
    return offsets, values
