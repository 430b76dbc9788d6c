"""Empirical validation of the closed-form interference variances.

Each check isolates one interference component in the exact simulator (zero
noise, single interferer where applicable), measures its sample variance, and
compares it against the matching closed form. The checks double as the
``validate-lemmas`` CLI command and as the statistical half of the acceptance
suite. Numbering of the checks, which ``--lemma`` selects:

1. IFI variance, multipath spread within one frame (the two-term closed form,
   whose second sum is then empty).
2. IFI variance, multipath spread beyond one frame (the two-term closed form).
3. MAI variance of a chip- or symbol-synchronized interferer.
4. MAI variance conditioned on the interferer's sub-chip jitter.
5. Jitter-averaged MAI variance of an asynchronous interferer.

The full run adds asynchronous delays against the chip-offset-plus-uniform-
jitter construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from . import analytic
from .channel import SyncMode
from .model import PulseShape, SystemParams
from .rake import ARAKE, select_weights
from .simulator import CUSTOM, FIXED, ChannelSource, TrialConfig, _interference_variance

DEFAULT_SYMBOLS = 100_000
DEFAULT_SEED = 20_240_601

# the link every check simulates; the MAI references read the same pulse
_N_FRAMES = 100
_PULSE = PulseShape.gaussian_doublet()
_FIXED = ChannelSource(FIXED)
# the fixed source's taps and their arake weights, both read-only
_TAPS = _FIXED.draw(1, None)[0]
_BETA = select_weights(_TAPS, ARAKE)

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

    Unresolved means the sample is too small to decide: it has fewer drops
    than the check trusts (``_MIN_DROPS``, or ``_MIN_Z_DROPS`` for a
    z-check), or the 99.73% Student-t interval of the drop means (three
    standard errors for many drops) is wider than the tolerance band of a
    relative check, or wider than ``|reference|`` for a z-check. Such a
    check neither passes nor fails.
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


# Fewest drops whose means a check trusts to follow the Student-t interval.
# Two 1-symbol drops can both read zero MAI, a zero standard error. A
# z-check's drop means each sample one per-drop delay draw, and skew that
# more drop symbols do not remove: from 20 drops, check 5 read z = 11.8
# against a limit of 3.45.
_MIN_DROPS = 3
_MIN_Z_DROPS = 30
# Largest relative error a relative check passes.
_TOLERANCE = 0.05


def _too_few(n_drops: int, least: int, wide: str) -> str:
    """Why a check is unresolved: too few drops, else ``wide``, the interval that is too wide."""
    return f"{n_drops} drops, below {least}" if n_drops < least else wide


def _log_beta_half(a: float) -> float:
    """``ln B(a, 1/2)``.

    From ``a = 25`` on it is the asymptotic series of ``ln Gamma(a + 1/2) /
    Gamma(a)``: the two lgamma terms grow as ``a ln a`` and cancel to about
    ``ln a``, so their difference would lose 7e-10 at ``a = 5e5``.
    """
    if a < 25.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    return 0.5 * math.log(math.pi / a) + 1 / (8 * a) - 1 / (192 * a**3) + 1 / (640 * a**5) - 17 / (14336 * a**7)


def _t_tail(t: float, df: int) -> float:
    """``P(T > t)`` for Student's t with ``df`` degrees of freedom, for ``t >= 2``.

    It is ``I_x(df/2, 1/2) / 2`` at ``x = df / (df + t^2)``, the regularized
    incomplete beta function by its continued fraction (modified Lentz, as
    Numerical Recipes' ``betacf``). The fraction converges there, since
    ``x < (a + 1) / (a + b + 2)`` whenever ``t^2 > 3``; but its steps cancel
    to about ``1 / df`` of their size, so they run in 40-digit decimals.
    """
    a = 0.5 * df
    front = -a * math.log1p(t * t / df) + 0.5 * math.log(t * t / (df + t * t)) - _log_beta_half(a)
    with localcontext() as ctx:
        ctx.prec = 40
        a, b, one = Decimal(a), Decimal(0.5), Decimal(1)
        x = df / (df + Decimal(t) ** 2)
        c, d = one, one / (one - (a + b) * x / (a + 1))
        h, m = d, 0
        while True:
            m += 1
            even = m * (b - m) * x / ((a - 1 + 2 * m) * (a + 2 * m))
            odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1 + 2 * m))
            for step in (even, odd):
                d = one / (one + step * d)
                c = one + step / c
                h *= d * c
            if abs(d * c - one) < Decimal("1e-30"):
                return 0.5 * math.exp(front) * float(h / a)


def _coverage(n_drops: int) -> float:
    """The two-sided 99.73% (three-sigma) Student-t quantile of a standard error from ``n_drops`` drop means.

    Bisection on ``[2, 1000]``: the quantile lies above the normal one, 3.0,
    and at most at its value for one degree of freedom, 235.8.
    """
    df, tail = n_drops - 1, 1.0 - 0.99865
    lo, hi = 2.0, 1000.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if _t_tail(mid, df) > tail else (lo, mid)
    return mid


def _relative_check(name, empirical, reference, stderr, n_drops) -> CheckResult:
    rel = abs(empirical - reference) / abs(reference)
    rel_stderr = stderr / abs(reference)
    coverage = _coverage(n_drops)
    resolved = n_drops >= _MIN_DROPS and coverage * rel_stderr <= _TOLERANCE
    detail = f"rel err {100 * rel:.2f}%, tol {100 * _TOLERANCE:.0f}%"
    if not resolved:
        detail += f", rel stderr {100 * rel_stderr:.2f}%: " + _too_few(
            n_drops, _MIN_DROPS, f"{coverage:.3g} of them exceed tol"
        )
    return CheckResult(name, empirical, reference, stderr, detail, resolved and rel <= _TOLERANCE, resolved)


def _z_check(name, empirical, reference, stderr, n_drops) -> CheckResult:
    """Pass when the two values agree within the coverage quantile of standard errors.

    Unresolved below ``_MIN_Z_DROPS`` drops, or when that many standard
    errors exceed ``|reference|``: the sample cannot then tell the value from
    zero, let alone from the reference.
    """
    limit = _coverage(n_drops)
    z = abs(empirical - reference) / stderr if stderr > 0 else 0.0
    resolved = n_drops >= _MIN_Z_DROPS and limit * stderr <= abs(reference)
    detail = f"z = {z:.2f}, limit {limit:.3g}"
    if not resolved:
        detail += f", stderr {stderr:.3g}: " + _too_few(n_drops, _MIN_Z_DROPS, f"{limit:.3g} of them exceed |reference|")
    return CheckResult(name, empirical, reference, stderr, detail, resolved and z <= limit, resolved)


def _two_sample_check(name, first, second) -> CheckResult:
    """z-check of two ``(variance, stderr, n_drops)`` measurements against each other."""
    (v1, s1, n1), (v2, s2, n2) = first, second
    return _z_check(name, v1, v2, math.sqrt(s1**2 + s2**2), min(n1, n2))


def _measure(component, source, n_users, n_chips, sync_mode, symbols, seed, per_drop=2000, **jitter):
    """``(variance, stderr, n_drops)`` of one interference component on a noise-free, unit-energy arake link.

    ``symbols`` are split into at least two drops of at most ``per_drop``;
    ``jitter`` is ``forced_jitter`` or ``uniform_jitter`` of the :class:`TrialConfig`.
    """
    params = SystemParams(n_users=n_users, n_frames=_N_FRAMES, n_chips_per_frame=n_chips, bit_energy=1.0, noise_psd=0.0)
    n_drops = max(2, -(-symbols // per_drop))
    config = TrialConfig(
        params=params, pulse=_PULSE, sync_mode=sync_mode, scheme=ARAKE, fingers=None, polarity_enabled=True,
        channel_source=source, n_drops=n_drops, symbols_per_drop=-(-symbols // n_drops), master_seed=seed, **jitter,
    )
    return (*_interference_variance(config, component), n_drops)


def _ifi_check(name, source, taps, beta, n_chips, symbols, seed) -> CheckResult:
    """The desired user's IFI variance against ``E1 (near / Nc^2 + far / Nc)``, with ``E1 = 1``."""
    empirical, stderr, n_drops = _measure("ifi", source, 1, n_chips, SyncMode.SYMBOL_SYNC, symbols, seed)
    near, far = analytic.ifi_variance_components(taps, beta, n_chips)
    return _relative_check(name, empirical, near / n_chips**2 + far / n_chips, stderr, n_drops)


def check_ifi_short(symbols: int = DEFAULT_SYMBOLS, seed: int = DEFAULT_SEED) -> CheckResult:
    """IFI variance of a spread within one frame (check 1); the far sum is empty."""
    taps = np.random.default_rng(318).normal(size=5)
    taps /= np.linalg.norm(taps)  # a reproducible unit-energy channel
    beta = select_weights(taps, ARAKE)
    source = ChannelSource(CUSTOM, taps=tuple(taps))
    return _ifi_check("ifi variance (short spread)", source, taps, beta, 8, symbols, seed)


def check_ifi_long(symbols: int = DEFAULT_SYMBOLS, seed: int = DEFAULT_SEED) -> CheckResult:
    """IFI variance of a spread beyond one frame, both sums (check 2)."""
    return _ifi_check("ifi variance (long spread)", _FIXED, _TAPS, _BETA, 5, symbols, seed)


def check_mai_sync(symbols: int = DEFAULT_SYMBOLS, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Synchronized-interferer MAI variance, chip- and symbol-aligned (check 3)."""
    reference = analytic.mai_variance_sync(_TAPS, _BETA)
    results = []
    measured = []
    for mode in (SyncMode.CHIP_SYNC, SyncMode.SYMBOL_SYNC):
        measured.append(_measure("mai", _FIXED, 2, 5, mode, symbols, seed))
        empirical, stderr, n_drops = measured[-1]
        results.append(_relative_check(f"mai variance ({mode.value})", empirical, reference, stderr, n_drops))
    results.append(_two_sample_check("mai variance chip vs symbol sync", *measured))
    return results


def check_mai_jitter(symbols: int = DEFAULT_SYMBOLS, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Jitter-conditional MAI variance on a jitter grid (check 4)."""
    results = []
    for jitter in (0.0, 0.25, 0.5, 0.75):
        empirical, stderr, n_drops = _measure(
            "mai", _FIXED, 2, 5, SyncMode.CHIP_SYNC, symbols, seed, forced_jitter=float(jitter)
        )
        reference = float(analytic.mai_variance_jitter(_TAPS, _BETA, jitter, _PULSE))
        results.append(
            _relative_check(f"mai variance (jitter {jitter:.2f} chip)", empirical, reference, stderr, n_drops)
        )
    return results


def check_mai_async_average(symbols: int = DEFAULT_SYMBOLS, seed: int = DEFAULT_SEED) -> CheckResult:
    """Jitter-averaged MAI variance of an asynchronous interferer (check 5).

    The jitter is redrawn once per drop, so the estimate's uncertainty is
    dominated by how many drops sample the jitter average. The check uses
    100-symbol drops and a z-check: it passes within the Student-t coverage
    quantile of standard errors for its drop count (3.01 at the default
    1,000 drops) and is unresolved when that many standard errors exceed the
    closed form.
    """
    empirical, stderr, n_drops = _measure("mai", _FIXED, 2, 5, SyncMode.ASYNC, symbols, seed, per_drop=100)
    reference = analytic.mai_variance_async(_TAPS, _BETA, _PULSE)
    return _z_check("mai variance (async average)", empirical, reference, stderr, n_drops)


def check_async_equivalence(symbols: int = DEFAULT_SYMBOLS, seed: int = DEFAULT_SEED) -> CheckResult:
    """Asynchronous delays vs the chip-offset-plus-uniform-jitter construction.

    The two delay models must produce the same MAI statistics; the check
    compares the empirical MAI variances with a z-check on their combined
    standard error.
    """
    return _two_sample_check(
        "async vs chip-sync-plus-jitter MAI variance",
        _measure("mai", _FIXED, 2, 5, SyncMode.ASYNC, symbols, seed, per_drop=100),
        _measure("mai", _FIXED, 2, 5, SyncMode.CHIP_SYNC, symbols, seed + 1, per_drop=100, uniform_jitter=True),
    )


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
        return _CHECKS[lemma](symbols, seed)
    results = [check for number in sorted(_CHECKS) for check in _CHECKS[number](symbols, seed)]
    return results + [check_async_equivalence(symbols, seed)]
