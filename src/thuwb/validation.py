"""Empirical validation of the closed-form interference variances.

Each check isolates one interference component in the exact simulator (zero
noise, single interferer where applicable), measures its sample variance, and
compares it against the matching closed form. The checks double as the
``validate-lemmas`` CLI command and as the statistical half of the acceptance
suite. Numbering of the closed-form results:

1. IFI variance, multipath spread within one frame.
2. IFI variance, multipath spread beyond one frame (two-term form).
3. MAI variance of a chip- or symbol-synchronized interferer.
4. MAI variance conditioned on the interferer's sub-chip jitter.
5. Jitter-averaged MAI variance of an asynchronous interferer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import analytic
from .channel import ChannelRealization, SyncMode, fixed_channel
from .model import PulseShape, SystemParams
from .rake import ARAKE, select_weights
from .simulator import (
    CUSTOM,
    FIXED,
    ChannelSource,
    TrialConfig,
    empirical_interference_variance,
)

DEFAULT_SYMBOLS = 100_000
DEFAULT_SEED = 20_240_601

__all__ = [
    "CheckResult",
    "check_ifi_short",
    "check_ifi_long",
    "check_mai_sync",
    "check_mai_jitter",
    "check_mai_async_average",
    "check_async_equivalence",
    "run_lemma_checks",
    "format_check",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one empirical-vs-closed-form comparison.

    Unresolved means the sample is too small to decide: the 99.73% Student-t
    interval of the drop means (three standard errors for many drops) is
    wider than the tolerance band. Such a check neither passes nor fails.
    """

    name: str
    empirical: float
    reference: float
    stderr: float
    detail: str
    passed: bool
    resolved: bool = True


def format_check(check: CheckResult) -> str:
    status = "PASS" if check.passed else "FAIL" if check.resolved else "UNRESOLVED"
    return (
        f"[{status}] {check.name}: empirical={check.empirical:.6g} "
        f"reference={check.reference:.6g} ({check.detail})"
    )


def _relative_check(name, empirical, reference, stderr, n_drops, tolerance=0.05) -> CheckResult:
    rel = abs(empirical - reference) / abs(reference)
    rel_stderr = stderr / abs(reference)
    # the standard error comes from n_drops drop means, so few drops widen the
    # two-sided 99.73% (three-sigma) interval to its Student-t quantile
    coverage = float(special.stdtrit(n_drops - 1, 0.99865))
    resolved = coverage * rel_stderr <= tolerance
    detail = f"rel err {100 * rel:.2f}%, tol {100 * tolerance:.0f}%"
    if not resolved:
        detail += f", rel stderr {100 * rel_stderr:.2f}%: {coverage:.3g} of them exceed tol"
    return CheckResult(name, empirical, reference, stderr, detail, resolved and rel <= tolerance, resolved)


def _z_check(name, empirical, reference, stderr) -> CheckResult:
    """Pass when the two values agree within three standard errors."""
    z = abs(empirical - reference) / stderr if stderr > 0 else 0.0
    return CheckResult(name, empirical, reference, stderr, f"z = {z:.2f}, limit 3", z <= 3.0)


def _split_symbols(symbols: int, per_drop: int = 2000) -> tuple[int, int]:
    n_drops = max(2, -(-symbols // per_drop))
    return n_drops, -(-symbols // n_drops)


def _short_spread_channel(n_taps: int = 5, seed: int = 318) -> np.ndarray:
    """A reproducible unit-energy random channel with few taps."""
    rng = np.random.default_rng(seed)
    taps = rng.normal(size=n_taps)
    return taps / np.linalg.norm(taps)


def _base_config(
    channel_source: ChannelSource,
    n_users: int,
    n_frames: int,
    n_chips: int,
    sync_mode: SyncMode,
    symbols: int,
    seed: int,
    pulse: PulseShape | None = None,
    forced_jitter: float | None = None,
    uniform_jitter: bool = False,
    per_drop: int = 2000,
) -> TrialConfig:
    params = SystemParams(
        n_users=n_users,
        n_frames=n_frames,
        n_chips_per_frame=n_chips,
        bit_energy=1.0,
        noise_psd=0.0,
    )
    n_drops, per_drop = _split_symbols(symbols, per_drop)
    return TrialConfig(
        params=params,
        pulse=pulse or PulseShape.gaussian_doublet(),
        sync_mode=sync_mode,
        scheme=ARAKE,
        fingers=None,
        polarity_enabled=True,
        channel_source=channel_source,
        n_drops=n_drops,
        symbols_per_drop=per_drop,
        master_seed=seed,
        forced_jitter=forced_jitter,
        uniform_jitter=uniform_jitter,
    )


def check_ifi_short(symbols: int = DEFAULT_SYMBOLS, seed: int = DEFAULT_SEED) -> CheckResult:
    """IFI variance against the single-frame-spill closed form (check 1)."""
    taps = _short_spread_channel(n_taps=5)
    source = ChannelSource(CUSTOM, taps=tuple(taps))
    config = _base_config(source, 1, 100, 8, SyncMode.SYMBOL_SYNC, symbols, seed)
    beta = select_weights(ChannelRealization(taps), ARAKE).beta
    empirical, stderr = empirical_interference_variance(config, "ifi")
    e1 = config.params.bit_energy[0]
    nc = config.params.n_chips_per_frame
    reference = e1 / nc**2 * analytic.ifi_variance_adjacent(taps, beta)
    return _relative_check("ifi variance (short spread)", empirical, reference, stderr, config.n_drops)


def check_ifi_long(symbols: int = DEFAULT_SYMBOLS, seed: int = DEFAULT_SEED) -> CheckResult:
    """IFI variance against the two-term closed form (check 2)."""
    channel = fixed_channel()
    config = _base_config(ChannelSource(FIXED), 1, 100, 5, SyncMode.SYMBOL_SYNC, symbols, seed)
    beta = select_weights(channel, ARAKE).beta
    empirical, stderr = empirical_interference_variance(config, "ifi")
    e1 = config.params.bit_energy[0]
    nc = config.params.n_chips_per_frame
    near, far = analytic.ifi_variance_components(channel.taps, beta, nc)
    reference = e1 * (near / nc**2 + far / nc)
    return _relative_check("ifi variance (long spread)", empirical, reference, stderr, config.n_drops)


def check_mai_sync(symbols: int = DEFAULT_SYMBOLS, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Synchronized-interferer MAI variance, chip- and symbol-aligned (check 3)."""
    channel = fixed_channel()
    beta = select_weights(channel, ARAKE).beta
    reference = analytic.mai_variance_sync(channel.taps, beta)
    results = []
    values = {}
    for mode in (SyncMode.CHIP_SYNC, SyncMode.SYMBOL_SYNC):
        config = _base_config(ChannelSource(FIXED), 2, 100, 5, mode, symbols, seed)
        empirical, stderr = empirical_interference_variance(config, "mai")
        values[mode] = (empirical, stderr)
        results.append(
            _relative_check(f"mai variance ({mode.value})", empirical, reference, stderr, config.n_drops)
        )
    (v1, s1), (v2, s2) = values[SyncMode.CHIP_SYNC], values[SyncMode.SYMBOL_SYNC]
    results.append(_z_check("mai variance chip vs symbol sync", v1, v2, math.sqrt(s1**2 + s2**2)))
    return results


def check_mai_jitter(
    symbols: int = DEFAULT_SYMBOLS,
    seed: int = DEFAULT_SEED,
    jitters: tuple = (0.0, 0.25, 0.5, 0.75),
) -> list[CheckResult]:
    """Jitter-conditional MAI variance on a jitter grid (check 4)."""
    channel = fixed_channel()
    beta = select_weights(channel, ARAKE).beta
    pulse = PulseShape.gaussian_doublet()
    results = []
    for jitter in jitters:
        config = _base_config(
            ChannelSource(FIXED), 2, 100, 5, SyncMode.CHIP_SYNC, symbols, seed, pulse=pulse,
            forced_jitter=float(jitter),
        )
        empirical, stderr = empirical_interference_variance(config, "mai")
        reference = float(analytic.mai_variance_jitter(channel.taps, beta, jitter, pulse))
        results.append(
            _relative_check(
                f"mai variance (jitter {jitter:.2f} chip)", empirical, reference, stderr, config.n_drops
            )
        )
    return results


def check_mai_async_average(symbols: int = DEFAULT_SYMBOLS, seed: int = DEFAULT_SEED) -> CheckResult:
    """Jitter-averaged MAI variance of an asynchronous interferer (check 5).

    The jitter is redrawn once per drop, so the estimate's uncertainty is
    dominated by how many drops sample the jitter average; the check uses
    short drops and a three-standard-error criterion accordingly.
    """
    channel = fixed_channel()
    beta = select_weights(channel, ARAKE).beta
    pulse = PulseShape.gaussian_doublet()
    config = _base_config(
        ChannelSource(FIXED), 2, 100, 5, SyncMode.ASYNC, symbols, seed, pulse=pulse,
        per_drop=100,
    )
    empirical, stderr = empirical_interference_variance(config, "mai")
    reference = analytic.mai_variance_async(channel.taps, beta, pulse)
    return _z_check("mai variance (async average)", empirical, reference, stderr)


def check_async_equivalence(symbols: int = DEFAULT_SYMBOLS, seed: int = DEFAULT_SEED) -> CheckResult:
    """Asynchronous delays vs the chip-offset-plus-uniform-jitter construction.

    The two delay models must produce the same MAI statistics; the check
    compares the empirical MAI variances within three combined standard
    errors.
    """
    pulse = PulseShape.gaussian_doublet()
    async_cfg = _base_config(
        ChannelSource(FIXED), 2, 100, 5, SyncMode.ASYNC, symbols, seed, pulse=pulse,
        per_drop=100,
    )
    jitter_cfg = _base_config(
        ChannelSource(FIXED), 2, 100, 5, SyncMode.CHIP_SYNC, symbols, seed + 1, pulse=pulse,
        uniform_jitter=True, per_drop=100,
    )
    v1, s1 = empirical_interference_variance(async_cfg, "mai")
    v2, s2 = empirical_interference_variance(jitter_cfg, "mai")
    return _z_check("async vs chip-sync-plus-jitter MAI variance", v1, v2, math.sqrt(s1**2 + s2**2))


_CHECKS = {
    1: lambda symbols, seed: [check_ifi_short(symbols, seed)],
    2: lambda symbols, seed: [check_ifi_long(symbols, seed)],
    3: check_mai_sync,
    4: check_mai_jitter,
    5: lambda symbols, seed: [check_mai_async_average(symbols, seed)],
}


def run_lemma_checks(
    lemma: int | None = None,
    symbols: int = DEFAULT_SYMBOLS,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Run the empirical-variance suite (or a single numbered check)."""
    if lemma is not None:
        if lemma not in _CHECKS:
            raise ValueError(f"no check numbered {lemma}; choose from 1-5")
        numbers = [lemma]
    else:
        numbers = sorted(_CHECKS)
    results: list[CheckResult] = []
    for number in numbers:
        results.extend(_CHECKS[number](symbols, seed))
    if lemma is None:
        results.append(check_async_equivalence(symbols, seed))
    return results
