"""Multipath tap vectors, lognormal fading ensembles, and delay splitting.

A channel realization is a float tap vector, one gain per chip-spaced path;
a set of them is an ``(n_users, L)`` array, and a fading ensemble of ``R`` sets
one ``(R, n_users, L)`` draw.
"""

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
    "FadingModel",
    "SyncMode",
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


# Largest log_variance a FadingModel takes. Above it the taps underflow: at
# log_variance 1e6 every tap draws exp(-1e6) = 0. At the cap, with n_taps <= 1024
# and any decay, the leading tap's log-magnitude has mean >= -103.5 and standard
# deviation 10, so its energy falls below the smallest normal double only
# beyond 25 standard deviations. The same number bounds every drawn tap: tap
# l's log-magnitude is mu_l + s z with s^2 = log_variance, z standard normal and
# mu_l <= -s^2 (the profile's energies are at most 1), and -s^2 + s z <= z^2 / 4,
# so a tap passes exp(MAX_LOG_VARIANCE) = 2.7e43 in magnitude only for z beyond
# 20 standard deviations (probability below 3e-89).
MAX_LOG_VARIANCE = 100.0


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
        # each message starts with the field it names
        if self.n_taps < 1:
            raise ValueError("n_taps must be >= 1")
        # below about 5.6e-17, exp(-decay) rounds to 1 and the profile's
        # normalization would divide 0 by 0
        if self.decay <= 0 or math.exp(-self.decay) == 1.0:
            raise ValueError(f"decay must be > 0 with exp(-decay) < 1, got {self.decay!r}")
        if not 0 < self.log_variance <= MAX_LOG_VARIANCE:
            raise ValueError(f"log_variance must be in (0, {MAX_LOG_VARIANCE:g}], got {self.log_variance!r}")

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


def gen_lognormal_channel(model: FadingModel, rng: np.random.Generator, shape=()) -> np.ndarray:
    """Draw a read-only ``shape + (L,)`` array of tap vectors from ``model`` with ``rng``.

    Signs are equiprobable +/-1 and magnitudes lognormal, so the expected
    total tap energy is exactly one. One normal draw gives every magnitude,
    then one integer draw every sign, each in C order.
    """
    size = tuple(shape) + (model.n_taps,)
    # in place, so the draw holds two arrays of its size at a time
    taps = rng.normal(model.log_means, math.sqrt(model.log_variance), size=size)
    np.exp(taps, out=taps)
    taps *= 2 * rng.integers(0, 2, size=size) - 1
    taps.setflags(write=False)
    return taps


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
