"""Multipath channel realizations, lognormal fading ensembles, and delay splitting."""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

# Reference 10-tap multipath profile used throughout the bundled experiments.
FIXED_CHANNEL_TAPS = (
    0.4653,
    0.5817,
    0.2327,
    -0.4536,
    0.3490,
    0.2217,
    -0.1163,
    0.0233,
    -0.0116,
    -0.0023,
)

__all__ = [
    "FIXED_CHANNEL_TAPS",
    "ChannelRealization",
    "FadingModel",
    "SyncMode",
    "fixed_channel",
    "gen_lognormal_channel",
    "decompose_delay",
]


class SyncMode(str, enum.Enum):
    """Relative timing of the interfering users.

    Symbol-synchronous users have zero delay, chip-synchronous users are
    offset by a whole number of chips, and asynchronous users by a continuous
    uniform delay over one symbol.
    """

    SYMBOL_SYNC = "symbol_sync"
    CHIP_SYNC = "chip_sync"
    ASYNC = "async"


@dataclass(frozen=True)
class ChannelRealization:
    """Tapped-delay-line channel: one gain per chip-spaced path."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.array(self.taps, dtype=float)
        if taps.ndim != 1 or taps.size < 1:
            raise ValueError("taps must be a non-empty 1-D vector")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)

    @property
    def n_taps(self) -> int:
        return self.taps.size


def fixed_channel() -> ChannelRealization:
    """The built-in reference multipath profile."""
    return ChannelRealization(np.array(FIXED_CHANNEL_TAPS))


@dataclass(frozen=True)
class FadingModel:
    """Lognormal tap magnitudes with an exponentially decaying energy profile.

    Tap ``l`` (1-based) has random sign and magnitude ``exp(N(mu_l, s2))``
    with ``mu_l`` chosen so the mean tap energies follow
    ``omega0 * exp(-decay * (l - 1))`` and sum to one.
    """

    n_taps: int
    decay: float
    log_variance: float

    def __post_init__(self):
        if self.n_taps < 1:
            raise ValueError("n_taps must be >= 1")
        if self.decay <= 0 or self.log_variance <= 0:
            raise ValueError("decay and log_variance must be > 0")

    @functools.cached_property
    def leading_tap_energy(self) -> float:
        """Mean energy of the first tap; normalizes the profile to unit total."""
        lam = self.decay
        return (1.0 - math.exp(-lam)) / (1.0 - math.exp(-lam * self.n_taps))

    @functools.cached_property
    def log_means(self) -> np.ndarray:
        """Per-tap means of the log-magnitude distribution (read-only, computed once per model)."""
        l = np.arange(self.n_taps)
        means = 0.5 * (math.log(self.leading_tap_energy) - self.decay * l - 2.0 * self.log_variance)
        means.setflags(write=False)
        return means


def gen_lognormal_channel(model: FadingModel, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization from ``model`` with the generator ``rng``.

    Signs are equiprobable +/-1 and magnitudes lognormal, so the expected
    total tap energy is exactly one.
    """
    mags = np.exp(rng.normal(model.log_means, math.sqrt(model.log_variance)))
    signs = 2 * rng.integers(0, 2, size=model.n_taps) - 1
    return ChannelRealization(signs * mags)


def decompose_delay(delay) -> tuple[np.ndarray, np.ndarray]:
    """Split delays, in chips, into whole chip counts and sub-chip jitters.

    ``delay`` is a scalar or an array; returns integer chip offsets and
    jitters of the same shape with ``delay == chip_offset + jitter`` exactly
    and every ``jitter`` in ``[0, 1)``: a double minus its floor is exact.
    """
    delay = np.asarray(delay, dtype=float)
    if np.any(delay < 0):
        raise ValueError("delay must be >= 0")
    chip_offset = np.floor(delay)
    return chip_offset.astype(np.int64), delay - chip_offset
