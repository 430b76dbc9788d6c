"""System parameters, received UWB pulse models, and code/bit generation.

The chip is the unit of time: ``CHIP_TIME`` is 1.0 and cannot be set, and
every delay, jitter, or correlation offset is measured as a multiple of it.
The toolkit works directly with the received pulse (transmit-side shaping and
antenna distortion are out of scope); two unit-energy shapes are provided, a
Gaussian doublet and a one-chip rectangle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

CHIP_TIME = 1.0

# Gauss-Legendre nodes of every average over a jitter uniform on one chip
QUAD_NODES = 64

GAUSSIAN_DOUBLET = "gaussian_doublet"
RECTANGULAR = "rectangular"

__all__ = [
    "CHIP_TIME",
    "QUAD_NODES",
    "GAUSSIAN_DOUBLET",
    "RECTANGULAR",
    "SystemParams",
    "PulseShape",
    "check_jitter",
    "jitter_nodes",
    "substream",
    "gen_th_codes",
    "gen_polarity_codes",
    "gen_bits",
    "gamma_factor",
]


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for stream ``path`` under a master seed.

    The mapping ``(master_seed, path) -> stream`` is pure, so per-drop and
    per-purpose streams can be created in any order, on any worker, and the
    draws replay bit-identically.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=path))


@dataclass(frozen=True)
class SystemParams:
    """Scalar constants of a BPSK time-hopping impulse-radio link.

    Parameters
    ----------
    n_users : int
        Number of active users; user 1 is the user of interest.
    n_frames : int
        Pulses (frames) per information symbol.
    n_chips_per_frame : int
        Possible pulse positions per frame; the frame lasts this many chips.
    bit_energy : float or sequence of float
        Per-user bit energies. A scalar is broadcast to all users.
    noise_psd : float
        Two-sided spectral density of the additive white Gaussian noise.

    The total processing gain ``n_frames * n_chips_per_frame`` is derived,
    never stored.
    """

    n_users: int
    n_frames: int
    n_chips_per_frame: int
    bit_energy: tuple
    noise_psd: float

    def __post_init__(self):
        for name in ("n_users", "n_frames", "n_chips_per_frame"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        energies = np.atleast_1d(np.asarray(self.bit_energy, dtype=float))
        if energies.size == 1:
            energies = np.full(self.n_users, float(energies[0]))
        if energies.size != self.n_users:
            raise ValueError(
                f"bit_energy must have one entry per user ({self.n_users}), got {energies.size}"
            )
        if not np.all(np.isfinite(energies) & (energies > 0)):
            raise ValueError("all bit_energy entries must be finite and > 0")
        object.__setattr__(self, "bit_energy", tuple(float(e) for e in energies))
        if not math.isfinite(self.noise_psd) or self.noise_psd < 0:
            raise ValueError("noise_psd must be finite and >= 0")

    @property
    def processing_gain(self) -> int:
        return self.n_frames * self.n_chips_per_frame

    @property
    def interferer_energies(self) -> tuple:
        return self.bit_energy[1:]


@dataclass(frozen=True)
class PulseShape:
    """Unit-energy received pulse and its chip-truncated autocorrelation.

    The autocorrelation is forced to zero for offsets of one chip or more.
    The rectangle satisfies this naturally; the doublet's analytic tail
    beyond one chip is below 1.5e-6 at the default width and discarding it
    keeps every partial pulse overlap confined to adjacent chips, which the
    rest of the toolkit relies on.

    Attributes
    ----------
    kind : str
        ``"gaussian_doublet"`` or ``"rectangular"``; either lasts one chip.
    shape_param : float or None
        Width parameter of the doublet, in chips; defaults to ``1 / 2.5``.
        Must be None for the rectangle.
    """

    kind: str
    shape_param: float | None = None

    def __post_init__(self):
        if self.kind not in (GAUSSIAN_DOUBLET, RECTANGULAR):
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        if self.kind == GAUSSIAN_DOUBLET:
            width = CHIP_TIME / 2.5 if self.shape_param is None else float(self.shape_param)
            if width <= 0:
                raise ValueError("shape_param must be > 0")
            object.__setattr__(self, "shape_param", width)
            try:
                edge = self._doublet_edge()
            except OverflowError:
                edge = math.nan
            # a finite edge bounds every offset inside the chip: the polynomial grows with u2
            if not abs(edge) < 0.01:
                raise ValueError(
                    f"shape_param must leave the doublet finite at the chip edge and negligible beyond it, got {width!r}"
                )
        elif self.shape_param is not None:
            raise ValueError("rectangular pulse takes no shape_param")

    @classmethod
    def gaussian_doublet(cls, shape_param: float | None = None) -> "PulseShape":
        return cls(GAUSSIAN_DOUBLET, shape_param)

    @classmethod
    def rectangular(cls) -> "PulseShape":
        return cls(RECTANGULAR)

    def waveform(self, t):
        """Received pulse amplitude at time ``t`` (scalar or array); a scalar takes the array path."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.kind == RECTANGULAR:
            out = np.where(np.abs(t) <= 0.5 * CHIP_TIME, 1.0 / math.sqrt(CHIP_TIME), 0.0)
        else:
            tau = self.shape_param
            u2 = (t / tau) ** 2
            # unit-energy normalization: integral of the squared raw doublet is 3*tau/8
            amp = 1.0 / math.sqrt(3.0 * tau / 8.0)
            out = np.where(
                np.abs(t) <= CHIP_TIME,
                amp * (1.0 - 4.0 * math.pi * u2) * np.exp(-2.0 * math.pi * u2),
                0.0,
            )
        return float(out[0]) if scalar else out

    def autocorrelation(self, offset):
        """Autocorrelation R at ``offset``; exactly zero beyond one chip.

        The doublet's analytic form has a tiny residual at the chip edge
        (1.3e-6 at the default width); it is rescaled away so the truncated
        autocorrelation is continuous there while R(0) stays exactly 1. A
        scalar goes through the array path: numpy's scalar ``exp`` can differ.
        """
        scalar = np.ndim(offset) == 0
        x = np.atleast_1d(np.asarray(offset, dtype=float))
        inside = np.abs(x) < CHIP_TIME
        if self.kind == RECTANGULAR:
            out = np.where(inside, 1.0 - np.abs(x) / CHIP_TIME, 0.0)
        else:
            u2 = (x / self.shape_param) ** 2
            raw = (1.0 - 4.0 * math.pi * u2 + (4.0 * math.pi**2 / 3.0) * u2**2) * np.exp(
                -math.pi * u2
            )
            edge = self._doublet_edge()
            out = np.where(inside, (raw - edge) / (1.0 - edge), 0.0)
        return float(out[0]) if scalar else out

    def overlaps(self, jitter) -> tuple:
        """``(R(jitter), R(1 - jitter))``: a pulse late by a sub-chip ``jitter`` overlaps two template pulses.

        ``jitter`` is not checked here; :func:`check_jitter` does that.
        """
        return self.autocorrelation(jitter), self.autocorrelation(CHIP_TIME - jitter)

    def _doublet_edge(self) -> float:
        u2 = (CHIP_TIME / self.shape_param) ** 2
        return (1.0 - 4.0 * math.pi * u2 + (4.0 * math.pi**2 / 3.0) * u2**2) * math.exp(
            -math.pi * u2
        )


def check_jitter(jitter) -> np.ndarray:
    """``jitter`` as a float array; raises unless every entry lies in [0, 1) chip."""
    jit = np.asarray(jitter, dtype=float)
    if not np.all((jit >= 0.0) & (jit < CHIP_TIME)):
        raise ValueError(f"jitter must lie in [0, 1) chip, got {jitter}")
    return jit


def gen_th_codes(params: SystemParams, n_symbols: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. uniform hop positions, one per user per frame, drawn from ``rng``.

    Returns an ``(n_users, n_symbols * n_frames)`` integer array with entries
    in ``[0, n_chips_per_frame)``; identically seeded generators replay
    identically. The draw is ``int16`` whenever the positions fit, the
    cheapest width to draw, and ``int64`` otherwise; widen it before doing
    index arithmetic with it.
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    nc = params.n_chips_per_frame
    shape = (params.n_users, n_symbols * params.n_frames)
    return rng.integers(0, nc, size=shape, dtype=np.int16 if nc <= 2**15 else np.int64)


def _signs(shape: tuple, rng) -> np.ndarray:
    """I.i.d. equiprobable +/-1 ``int8`` signs, one random bit each."""
    n = math.prod(shape)
    out = np.unpackbits(np.frombuffer(rng.bytes(-(-n // 8)), np.uint8), count=n).view(np.int8)
    # 2 * bit - 1; numpy's int8 add is vectorized, its int8 left shift is not
    out += out
    out -= 1
    return out.reshape(shape)


def gen_polarity_codes(params: SystemParams, n_symbols: int, enabled: bool, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. +/-1 polarity codes per user per frame from ``rng``; all +1, with no draw, when disabled."""
    shape = (params.n_users, n_symbols * params.n_frames)
    if not enabled:
        return np.ones(shape, dtype=np.int8)
    return _signs(shape, rng)


def gen_bits(params: SystemParams, n_symbols: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. +/-1 information bits, one per user per symbol, drawn from ``rng``."""
    return _signs((params.n_users, n_symbols), rng)


@functools.cache
def jitter_nodes() -> tuple[np.ndarray, np.ndarray]:
    """``QUAD_NODES``-point Gauss-Legendre jitters on [0, 1) chip and weights summing to one.

    Every average over a jitter uniform on one chip is the weighted sum over
    these nodes. Cached; both arrays are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(QUAD_NODES)
    nodes, weights = 0.5 * CHIP_TIME * (x + 1.0), w / w.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gamma_factor(pulse: PulseShape) -> float:
    """Asynchronous-to-synchronous MAI power ratio of a pulse.

    Equals the mean of ``R(e)^2 + R(1 - e)^2`` over a uniformly distributed
    sub-chip offset ``e``, i.e. the autocorrelation energy per chip.
    Evaluated on the :func:`jitter_nodes`; the integrand is smooth (doublet)
    or polynomial (rectangle), so that gives far better than 1e-6 absolute
    accuracy.
    """
    nodes, w = jitter_nodes()
    r = pulse.autocorrelation(nodes)
    # both terms have the same mean over one chip
    return float(2.0 * np.sum(w * r * r))
