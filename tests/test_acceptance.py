"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines. The statistical criteria use fixed seeds, so outcomes are
reproducible.
"""

import time

import numpy as np

from thuwb.analytic import (
    BepMode,
    BepQuery,
    average_bep,
    bep,
    mai_variance_jitter,
    mai_variance_sync,
)
from thuwb.channel import FadingModel, SyncMode, fixed_channel, gen_lognormal_channel
from thuwb.model import PulseShape, SystemParams, gamma_factor, substream
from thuwb.rake import cross_correlation_table, select_weights
from thuwb.simulator import (
    AWGN,
    FIXED,
    ChannelSource,
    NoiseSweep,
    TrialConfig,
    estimate_bep,
    run_drop,
)
from thuwb.validation import (
    check_async_equivalence,
    check_ifi_long,
    check_ifi_short,
    check_mai_jitter,
    check_mai_sync,
)

from _oracles import waveform_cross_correlation

DOUBLET = PulseShape.gaussian_doublet()
RECT = PulseShape.rectangular()


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {label} {detail}".rstrip())
    assert ok, f"criterion {number}: {label} {detail}"


def awgn_params(sinr_db):
    noise = 0.5 * 10.0 ** (-sinr_db / 10.0) - 9.0 / 75.0
    assert noise >= 0.0
    return SystemParams(
        n_users=10,
        n_frames=15,
        n_chips_per_frame=5,
        bit_energy=(0.5,) + (1.0,) * 9,
        noise_psd=noise,
    )


def test_criterion_01_pulse_overlap_factors():
    started = time.perf_counter()
    rect_value = gamma_factor(RECT)
    doublet_value = gamma_factor(DOUBLET)
    elapsed = time.perf_counter() - started
    ok = abs(rect_value - 2.0 / 3.0) <= 1e-6 and 0.18 <= doublet_value <= 0.22
    _report(
        1,
        "pulse overlap factors",
        ok,
        f"(rect {rect_value:.8f}, doublet {doublet_value:.5f}, {elapsed:.2f}s)",
    )


def test_criterion_02_cross_correlation_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst = 0.0
    for case in range(1000):
        pulse = DOUBLET if case % 2 == 0 else RECT
        n = int(rng.integers(1, 11))
        alpha = rng.normal(size=n)
        beta = rng.normal(size=n)
        j = int(rng.integers(-n - 1, n + 1))
        if pulse is RECT:
            jitter = float(rng.integers(0, 64)) / 64.0
        else:
            jitter = float(rng.uniform(0.0, 1.0))
        offsets, values = cross_correlation_table(alpha, beta, jitter, pulse)
        hit = offsets == j
        closed = float(values[hit][0]) if hit.any() else 0.0
        oracle = waveform_cross_correlation(alpha, beta, pulse, j + jitter)
        worst = max(worst, abs(closed - oracle))
    elapsed = time.perf_counter() - started
    _report(
        2,
        "cross-correlation vs oversampled waveform oracle",
        worst <= 1e-3,
        f"(1000 cases, worst {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_03_ifi_variance_short_spread():
    started = time.perf_counter()
    check = check_ifi_short(symbols=100_000, seed=31)
    elapsed = time.perf_counter() - started
    _report(3, "ifi variance, short spread", check.passed, f"({check.detail}, {elapsed:.0f}s)")


def test_criterion_04_ifi_variance_long_spread():
    started = time.perf_counter()
    check = check_ifi_long(symbols=100_000, seed=32)
    elapsed = time.perf_counter() - started
    _report(4, "ifi variance, long spread", check.passed, f"({check.detail}, {elapsed:.0f}s)")


def test_criterion_05_mai_variance_synchronized():
    started = time.perf_counter()
    checks = check_mai_sync(symbols=100_000, seed=33)
    elapsed = time.perf_counter() - started
    detail = "; ".join(f"{c.name}: {c.detail}" for c in checks)
    _report(5, "mai variance, synchronized", all(c.passed for c in checks), f"({detail}, {elapsed:.0f}s)")


def test_criterion_06_mai_variance_conditional_jitter():
    started = time.perf_counter()
    ch = fixed_channel()
    beta = select_weights(ch, "arake").beta
    exact_zero = abs(
        float(mai_variance_jitter(ch.taps, beta, 0.0, DOUBLET)) - mai_variance_sync(ch.taps, beta)
    )
    checks = check_mai_jitter(symbols=100_000, seed=34, jitters=(0.0, 0.25, 0.5, 0.75))
    elapsed = time.perf_counter() - started
    ok = exact_zero <= 1e-12 and all(c.passed for c in checks)
    detail = "; ".join(c.detail for c in checks)
    _report(
        6,
        "mai variance vs sub-chip jitter",
        ok,
        f"(zero-jitter gap {exact_zero:.1e}; {detail}; {elapsed:.0f}s)",
    )


def test_criterion_07_async_equals_offset_plus_jitter():
    started = time.perf_counter()
    check = check_async_equivalence(symbols=100_000, seed=35)
    elapsed = time.perf_counter() - started
    _report(7, "async delays vs chip-offset-plus-jitter model", check.passed, f"({check.detail}, {elapsed:.0f}s)")


def test_criterion_08_template_energy():
    started = time.perf_counter()
    params = SystemParams(
        n_users=1, n_frames=100, n_chips_per_frame=5, bit_energy=1.0, noise_psd=0.0
    )
    config = TrialConfig(
        params=params,
        pulse=DOUBLET,
        sync_mode=SyncMode.SYMBOL_SYNC,
        scheme="arake",
        fingers=None,
        polarity_enabled=True,
        channel_source=ChannelSource(FIXED),
        n_drops=10,
        symbols_per_drop=1000,
        master_seed=36,
    )
    beta = select_weights(fixed_channel(), "arake").beta
    scale = 100.0 * float(beta @ beta)
    ratios = np.concatenate(
        [run_drop(config, d).template_energy / scale for d in range(config.n_drops)]
    )
    mean = float(ratios.mean())
    elapsed = time.perf_counter() - started
    _report(
        8,
        "mean template energy over 10^4 templates",
        0.99 <= mean <= 1.01,
        f"(ratio {mean:.5f}, {elapsed:.0f}s)",
    )


def _simulate(params, pulse, sync_mode, polarity, seed, symbols, source_kind=AWGN,
              scheme="arake", fingers=None, sweep=None):
    config = TrialConfig(
        params=params,
        pulse=pulse,
        sync_mode=sync_mode,
        scheme=scheme,
        fingers=fingers,
        polarity_enabled=polarity,
        channel_source=ChannelSource(source_kind),
        n_drops=symbols // 2000,
        symbols_per_drop=2000,
        master_seed=seed,
    )
    return estimate_bep(config, sweep)


def test_criterion_09_awgn_reference_scenario():
    # 10 users over a single-path channel; simulation against each closed
    # form within 15% wherever the closed form is at least 1e-3, plus the
    # system ordering in the interference-dominated regime. The interference
    # floor caps the attainable SINR at 6.2 dB, so the ordering is checked at
    # the top of the attainable grid.
    started = time.perf_counter()
    grid = (0.0, 2.0, 4.0, 6.0)
    symbols = 1_000_000
    failures = []
    estimates = {}
    systems = {
        "chip": (DOUBLET, SyncMode.CHIP_SYNC, True, 900),
        "symbol": (DOUBLET, SyncMode.SYMBOL_SYNC, True, 901),
        "async_doublet": (DOUBLET, SyncMode.ASYNC, True, 902),
        "async_rect": (RECT, SyncMode.ASYNC, True, 903),
        "no_polarity": (DOUBLET, SyncMode.SYMBOL_SYNC, False, 904),
    }
    # each system keeps its seed over the grid, so one drop pass decides every SINR
    sweeps = {name: NoiseSweep(tuple(awgn_params(s).noise_psd for s in grid)) for name in systems}
    for sinr in grid:
        params = awgn_params(sinr)
        refs = {
            "chip": bep(BepQuery(params=params, mode=BepMode.AWGN_SYNC)),
            "symbol": bep(BepQuery(params=params, mode=BepMode.AWGN_SYNC)),
            "async_doublet": bep(BepQuery(params=params, mode=BepMode.AWGN_ASYNC, pulse=DOUBLET)),
            "async_rect": bep(BepQuery(params=params, mode=BepMode.AWGN_ASYNC, pulse=RECT)),
            "no_polarity": bep(BepQuery(params=params, mode=BepMode.AWGN_NO_POLARITY_SYNC)),
        }
        sims = {
            name: _simulate(params, *system, symbols, sweep=sweeps[name]) for name, system in systems.items()
        }
        estimates[sinr] = sims
        for name, ref in refs.items():
            if ref >= 1e-3:
                rel = abs(sims[name].bep - ref) / ref
                if rel > 0.15:
                    failures.append(f"{name}@{sinr:g}dB rel {rel:.1%}")
    for sinr in (4.0, 6.0):
        sims = estimates[sinr]
        ordered = (
            sims["async_doublet"].bep
            < sims["async_rect"].bep
            < min(sims["chip"].bep, sims["symbol"].bep)
            and max(sims["chip"].bep, sims["symbol"].bep) < sims["no_polarity"].bep
        )
        if not ordered:
            failures.append(f"ordering@{sinr:g}dB")
        chip_ci, sym_ci = sims["chip"].ci95, sims["symbol"].ci95
        if not (chip_ci[0] <= sym_ci[1] and sym_ci[0] <= chip_ci[1]):
            failures.append(f"chip/symbol CI overlap@{sinr:g}dB")
    elapsed = time.perf_counter() - started
    _report(
        9,
        "single-path reference scenario",
        not failures,
        f"({'; '.join(failures) or '20 runs of 1e6 symbols'}, {elapsed:.0f}s)",
    )


def test_criterion_10_multipath_reference_scenario():
    # 10 users sharing the built-in 10-tap profile; all three Rake structures
    # against the synchronous and jitter-averaged closed forms within 20%
    # wherever the closed form is at least 1e-3, plus the structure ordering.
    started = time.perf_counter()
    ch = fixed_channel()
    channels = tuple([ch] * 10)
    grid = (0.0, 2.0, 4.0)
    symbols = 400_000
    schemes = (("arake", None), ("srake", 3), ("prake", 3))
    failures = []
    sims = {}
    systems = {
        "chip": (DOUBLET, SyncMode.CHIP_SYNC, True, 910),
        "async_doublet": (DOUBLET, SyncMode.ASYNC, True, 911),
        "async_rect": (RECT, SyncMode.ASYNC, True, 912),
    }
    # each (system, scheme) keeps its seed over the grid, so one drop pass decides every SINR
    levels = tuple(awgn_params(s).noise_psd for s in grid)
    sweeps = {(name, scheme): NoiseSweep(levels) for name in systems for scheme, _ in schemes}
    for sinr in grid:
        params = awgn_params(sinr)
        for scheme, fingers in schemes:
            weights = select_weights(ch, scheme, fingers)
            refs = {
                "chip": bep(
                    BepQuery(params=params, mode=BepMode.SYNC, channels=channels, weights=weights)
                ),
                "async_doublet": bep(
                    BepQuery(
                        params=params,
                        mode=BepMode.ASYNC_SGA,
                        channels=channels,
                        weights=weights,
                        pulse=DOUBLET,
                    )
                ),
                "async_rect": bep(
                    BepQuery(
                        params=params,
                        mode=BepMode.ASYNC_SGA,
                        channels=channels,
                        weights=weights,
                        pulse=RECT,
                    )
                ),
            }
            runs = {
                name: _simulate(params, *system, symbols, FIXED, scheme, fingers, sweeps[(name, scheme)])
                for name, system in systems.items()
            }
            sims[(sinr, scheme)] = runs
            for name, ref in refs.items():
                if ref >= 1e-3:
                    rel = abs(runs[name].bep - ref) / ref
                    if rel > 0.20:
                        failures.append(f"{scheme}/{name}@{sinr:g}dB rel {rel:.1%}")
    for mode in ("chip", "async_doublet", "async_rect"):
        a = sims[(4.0, "arake")][mode].bep
        s = sims[(4.0, "srake")][mode].bep
        p = sims[(4.0, "prake")][mode].bep
        if not a <= s <= p:
            failures.append(f"structure ordering/{mode}")
    for scheme, _ in schemes:
        runs = sims[(4.0, scheme)]
        if not (
            runs["async_doublet"].bep < runs["async_rect"].bep
            and runs["async_doublet"].bep < runs["chip"].bep
        ):
            failures.append(f"async-doublet best/{scheme}")
    elapsed = time.perf_counter() - started
    _report(
        10,
        "multipath reference scenario",
        not failures,
        f"({'; '.join(failures) or '27 runs of 4e5 symbols'}, {elapsed:.0f}s)",
    )


def test_criterion_11_processing_gain_split_invariance():
    started = time.perf_counter()
    values = []
    for n_frames, n_chips in ((75, 1), (15, 5), (5, 15)):
        params = SystemParams(
            n_users=10,
            n_frames=n_frames,
            n_chips_per_frame=n_chips,
            bit_energy=(0.5,) + (1.0,) * 9,
            noise_psd=0.08,
        )
        values.append(
            (
                bep(BepQuery(params=params, mode=BepMode.AWGN_SYNC)),
                bep(BepQuery(params=params, mode=BepMode.AWGN_ASYNC, pulse=DOUBLET)),
            )
        )
    spread = max(
        abs(a - b) for pair in zip(*values) for a in pair for b in pair
    )
    elapsed = time.perf_counter() - started
    _report(
        11,
        "single-path error rates depend only on the total gain",
        spread <= 1e-12,
        f"(max spread {spread:.1e}, {elapsed:.2f}s)",
    )


def test_criterion_12_fading_ensemble_finger_tradeoff():
    # 2000 lognormal channel draws, jitter-averaged asynchronous closed form:
    # ten selective fingers nearly match full combining, ten leading fingers
    # are strictly worse.
    started = time.perf_counter()
    fading = FadingModel(n_taps=20, decay=0.25, log_variance=1.0)
    noise = 1.0 * 10.0 ** (-1.6) / 2.0  # Eb/N0 = 16 dB at unit bit energy
    params = SystemParams(
        n_users=10,
        n_frames=15,
        n_chips_per_frame=5,
        bit_energy=(1.0,) + (2.0,) * 9,
        noise_psd=noise,
    )
    realizations = []
    for r in range(2000):
        rng = substream(777, 1, r)
        realizations.append(tuple(gen_lognormal_channel(fading, rng) for _ in range(10)))
    means = {}
    for scheme, fingers in (("arake", None), ("srake", 10), ("prake", 10)):
        queries = [
            BepQuery(
                params=params,
                mode=BepMode.ASYNC_SGA,
                channels=chans,
                weights=select_weights(chans[0], scheme, fingers),
                pulse=DOUBLET,
            )
            for chans in realizations
        ]
        means[scheme], _ = average_bep(queries)
    gap = abs(means["srake"] - means["arake"]) / means["arake"]
    ok = gap <= 0.10 and means["prake"] > means["srake"]
    elapsed = time.perf_counter() - started
    _report(
        12,
        "fading ensemble finger tradeoff",
        ok,
        f"(selective-vs-full gap {gap:.1%}, leading {means['prake']:.3e} > selective {means['srake']:.3e}, {elapsed:.0f}s)",
    )
