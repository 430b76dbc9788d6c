"""Rake combining-weight selection and the pulse-train cross-correlation primitive.

The cross-correlation here is the single signal-domain primitive shared by the
closed-form error analysis and the Monte Carlo engine: the correlation between
one user's received multipath pulse train and the Rake template, at an offset
of a whole number of chips plus a sub-chip jitter. Keeping one implementation
for both consumers means any theory/simulation gap is statistical, not a code
divergence.

The primitive takes stacked tap vectors ``(..., L)``, so one call serves all
users of a drop or all interferers of a channel realization. It loops over
the ``2L - 1`` lags, each a 1-D dot product per row, so a stacked call equals
the row-by-row calls bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .model import PulseShape

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


def _tap_vector(x) -> np.ndarray:
    """Accept a ChannelRealization, RakeWeights, or plain array of gains."""
    if isinstance(x, ChannelRealization):
        return x.taps
    if isinstance(x, RakeWeights):
        return x.beta
    return np.asarray(x, dtype=float)


def select_weights(channel: ChannelRealization, scheme: str, fingers: int | None = None) -> RakeWeights:
    """Maximal-ratio combining weights for the requested Rake structure.

    ``arake`` uses every path; ``srake`` keeps the ``fingers`` largest-gain
    paths (ties broken toward the lower index); ``prake`` keeps the first
    ``fingers`` paths. ``egc`` keeps the sign only, on the same selection as
    ``srake`` (or on all paths when ``fingers`` is None).
    """
    alpha = _tap_vector(channel)
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


def lag_dot(x, y, lag: int):
    """Sum of ``x[..., l] * y[..., l + lag]`` over valid l, for lag >= 0.

    The sum runs over the last axis and the leading axes broadcast; every
    entry is one 1-D dot product.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.vecdot(x[..., : max(x.shape[-1] - lag, 0)], y[..., lag:])


def correlation_sequence(taps, weights) -> np.ndarray:
    """Chip-lag correlation sequence between tap vectors and the weights.

    Returns ``c`` of shape ``(..., 2L + 1)`` with ``c[..., L + j]`` holding
    the correlation at lag ``j``: ``sum_l alpha[l] * beta[l + j]`` for
    ``j >= 0`` and ``sum_l beta[l] * alpha[l - j]`` for ``j < 0``. Both ends
    are zero. ``taps`` may stack tap vectors along leading axes ``(..., L)``;
    ``weights`` is one vector, shared by every row.
    """
    alpha = _tap_vector(taps)
    beta = _tap_vector(weights)
    if beta.shape != alpha.shape[-1:]:
        raise ValueError("weights must be one vector as long as the taps")
    n = alpha.shape[-1]
    c = np.zeros(alpha.shape[:-1] + (2 * n + 1,))
    for j in range(n):
        c[..., n + j] = lag_dot(alpha, beta, j)
    for j in range(1, n):
        c[..., n - j] = lag_dot(beta, alpha, j)
    return c


def cross_correlation_table(taps, weights, jitter, pulse: PulseShape) -> tuple[np.ndarray, np.ndarray]:
    """Pulse-train/template cross-correlation at every chip offset with support.

    A pulse offset by ``j`` chips plus a sub-chip ``jitter`` overlaps exactly
    two chip-aligned template pulses, so the value at offset ``j`` is the
    lag-``j`` correlation weighted by ``R(jitter)`` plus the next lag weighted
    by ``R(chip_time - jitter)``. Returns ``(offsets, values)`` with
    ``offsets = -L .. L-1``; the value is zero at every other offset. Stacked
    taps ``(..., L)`` take one jitter per row (``jitter`` of shape ``(...)``)
    and give ``values`` of shape ``(..., 2L)``. The Monte Carlo engine looks
    pulse collisions up by whole-chip distance.
    """
    jit = np.asarray(jitter, dtype=float)
    if not np.all((jit >= 0.0) & (jit < pulse.chip_time)):
        raise ValueError(f"jitter must lie in [0, chip_time), got {jitter}")
    c = correlation_sequence(taps, weights)
    n = (c.shape[-1] - 1) // 2
    r0 = np.expand_dims(pulse.autocorrelation(jit), -1)
    r1 = np.expand_dims(pulse.autocorrelation(pulse.chip_time - jit), -1)
    offsets = np.arange(-n, n)
    values = r0 * c[..., :-1] + r1 * c[..., 1:]
    return offsets, values
