import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from thuwb import simulator
from thuwb.channel import FIXED_CHANNEL_TAPS, FadingModel, SyncMode
from thuwb.model import PulseShape, SystemParams, substream
from thuwb.rake import correlation_sequence, cross_correlation_table, select_weights
from thuwb.simulator import (
    AWGN,
    CUSTOM,
    FIXED,
    LOGNORMAL,
    SHARED_LOGNORMAL,
    BepEstimate,
    ChannelSource,
    DropResult,
    NoiseSweep,
    TrialConfig,
    _correlate,
    _decide,
    _draw,
    _frame_shifts,
    _template_energies,
    estimate_bep,
    guard_symbols,
    run_drop,
    wilson_interval,
)

from _oracles import (
    brute_force_decision_statistic,
    drop_pass_by_level,
    render_received_waveform,
    waveform_decision_statistic,
)

DOUBLET = PulseShape.gaussian_doublet()
RECT = PulseShape.rectangular()


def make_config(
    n_users=2,
    n_frames=4,
    n_chips=4,
    energies=1.0,
    noise=0.0,
    pulse=DOUBLET,
    sync_mode=SyncMode.ASYNC,
    scheme="arake",
    fingers=None,
    polarity=True,
    source=None,
    n_drops=1,
    symbols_per_drop=50,
    seed=1234,
    **kwargs,
):
    params = SystemParams(
        n_users=n_users,
        n_frames=n_frames,
        n_chips_per_frame=n_chips,
        bit_energy=energies,
        noise_psd=noise,
    )
    return TrialConfig(
        params=params,
        pulse=pulse,
        sync_mode=sync_mode,
        scheme=scheme,
        fingers=fingers,
        polarity_enabled=polarity,
        channel_source=source or ChannelSource(AWGN),
        n_drops=n_drops,
        symbols_per_drop=symbols_per_drop,
        master_seed=seed,
        **kwargs,
    )


def drop_inputs(config, draw):
    """A drawn drop's inputs by name, hops widened to int64."""
    return {
        "taps": draw.taps,
        "beta": draw.beta,
        "chip_offsets": draw.deltas,
        "jitters": draw.eps,
        "th_codes": draw.th.astype(np.int64),
        "polarity_codes": draw.pol,
        "bits": draw.bits,
        "guard": guard_symbols(config.channel_source.n_taps, config.params.processing_gain),
    }


def run_drop_with_inputs(config, drop_index=0):
    """``run_drop``'s result and the drop's drawn inputs, hops widened to int64."""
    return run_drop(config, drop_index), drop_inputs(config, _draw(config, drop_index))


class TestGuardSymbols:
    def test_single_path(self):
        assert guard_symbols(1, 75) == 1

    def test_spread_within_symbol(self):
        assert guard_symbols(10, 75) == 2

    def test_spread_beyond_symbol(self):
        assert guard_symbols(77, 75) == 3

    @pytest.mark.parametrize("n_taps", [1, 2, 5, 6, 20, 33])
    def test_every_shift_stays_inside_the_drop(self, n_taps):
        # run_drop indexes frames m + shift without a bounds mask, for every
        # decided frame m of a drop with `guard` real symbols on each side
        for nc in (1, 2, 3, 5):
            for nf in (1, 2, 4, 15):
                guard_frames = guard_symbols(n_taps, nc * nf) * nf
                for delta in range(nc * nf):
                    shifts = _frame_shifts(-n_taps, n_taps - 1, delta, nc)
                    # the shifts at which some hop difference in (-Nc, Nc)
                    # lands the pulse on the table's support -L .. L-1
                    hits = [
                        shift
                        for shift in range(-n_taps - nc * nf - 2, n_taps + 2)
                        if -n_taps - nc < shift * nc + delta < n_taps + nc - 1
                    ]
                    assert list(shifts) == hits
                    assert -shifts[0] <= guard_frames and shifts[-1] <= guard_frames

    @pytest.mark.parametrize("n_taps", [1, 3, 20])
    def test_sub_support_takes_exactly_the_shifts_that_meet_it(self, n_taps):
        for nc in (1, 2, 5):
            for delta in range(3 * nc):
                for first in range(-n_taps, n_taps):
                    for last in range(first, n_taps):
                        shifts = _frame_shifts(first, last, delta, nc)
                        # a pulse `shift` frames away reads offsets
                        # shift*Nc + delta - (Nc-1) .. shift*Nc + delta + Nc-1
                        meets = [
                            shift
                            for shift in range(-n_taps - 3 * nc - 2, n_taps + 2)
                            if shift * nc + delta - (nc - 1) <= last and shift * nc + delta + nc - 1 >= first
                        ]
                        assert list(shifts) == meets


def _full_range_shifts(n_taps, chip_offset, nc):
    return range(-((n_taps + chip_offset + nc - 1) // nc), (n_taps + nc - 2 - chip_offset) // nc + 1)


def full_range_gather(config, ins):
    """IFI and MAI of a drop's drawn inputs, recomputed by the full-range gather.

    Every shift a full ``L``-tap table can reach, each gathered term times
    its int8 sign: the gather before tables were stored signed and shift
    ranges bounded by each row's support.
    """
    p = config.params
    nc, nf = p.n_chips_per_frame, p.n_frames
    n_taps = config.channel_source.n_taps
    guard, n_decide = ins["guard"], config.symbols_per_drop
    th, pol, bits = ins["th_codes"], ins["polarity_codes"], ins["bits"]
    lo, hi = guard * nf, (guard + n_decide) * nf
    cm = th[0, lo:hi]
    template_pol = pol[0, lo:hi].astype(np.float64)
    pad = n_taps + 2 * nc + 1
    values = cross_correlation_table(ins["taps"], ins["beta"], ins["jitters"], config.pulse)
    offsets = np.arange(-n_taps, n_taps)
    tables = np.zeros((p.n_users, 2 * pad + 1))
    tables[:, offsets + pad] = values * np.sqrt(np.asarray(p.bit_energy) / nf)[:, None]
    signs = pol * np.repeat(bits, nf, axis=1)
    acc = [np.zeros(hi - lo), np.zeros(hi - lo)]
    for k in range(p.n_users):
        dk = int(ins["chip_offsets"][k])
        for shift in _full_range_shifts(n_taps, dk, nc):
            term = np.take(tables[k], th[k, lo + shift : hi + shift] + (pad + dk - cm + shift * nc))
            term *= signs[k, lo + shift : hi + shift]
            acc[min(k, 1)] += term
    self_sym, mai = ((template_pol * a).reshape(n_decide, nf).sum(axis=1) for a in acc)
    gain = float(ins["taps"][0] @ ins["beta"])
    desired = bits[0, guard : guard + n_decide] * math.sqrt(p.bit_energy[0] * nf) * gain
    return self_sym - desired, mai


_FADING = FadingModel(n_taps=8, decay=0.25, log_variance=1.0)


class TestBoundedGather:
    @pytest.mark.parametrize(
        "source",
        [
            ChannelSource(FIXED),
            ChannelSource(AWGN),
            ChannelSource(CUSTOM, taps=(0.7, 0.0, -0.4, 0.3, 0.0, 0.1)),
            ChannelSource(CUSTOM, taps=(0.0, 0.0)),
            ChannelSource(LOGNORMAL, fading=_FADING),
            ChannelSource(SHARED_LOGNORMAL, fading=_FADING),
        ],
        ids=["fixed", "awgn", "custom", "all-zero", "lognormal", "shared"],
    )
    @pytest.mark.parametrize("pulse", [DOUBLET, RECT], ids=["doublet", "rect"])
    def test_matches_full_range_gather_byte_for_byte(self, source, pulse):
        # skipped shifts would add only +-0.0, which never changes an
        # accumulator that starts at +0.0, signed zeros included
        timings = [
            dict(sync_mode=SyncMode.ASYNC),
            dict(sync_mode=SyncMode.SYMBOL_SYNC),
            dict(sync_mode=SyncMode.CHIP_SYNC),
            # R(chip_time) = 0 for the rectangle: the support narrows
            dict(sync_mode=SyncMode.CHIP_SYNC, forced_jitter=0.0),
            dict(sync_mode=SyncMode.CHIP_SYNC, forced_jitter=0.3),
            dict(sync_mode=SyncMode.CHIP_SYNC, uniform_jitter=True),
        ]
        seed = 0
        for scheme in ("arake", "srake", "prake", "egc"):
            fingers = None if scheme == "arake" else min(2, source.n_taps)
            for timing in timings:
                for polarity in (True, False):
                    for n_users in (1, 3):
                        for n_chips in (2, 5):
                            seed += 1
                            config = make_config(
                                n_users=n_users,
                                n_frames=3,
                                n_chips=n_chips,
                                energies=(0.5,) + (1.0,) * (n_users - 1),
                                noise=0.1,
                                pulse=pulse,
                                scheme=scheme,
                                fingers=fingers,
                                polarity=polarity,
                                source=source,
                                symbols_per_drop=8,
                                seed=seed,
                                **timing,
                            )
                            result, ins = run_drop_with_inputs(config)
                            ifi, mai = full_range_gather(config, ins)
                            assert result.ifi.tobytes() == ifi.tobytes()
                            assert result.mai.tobytes() == mai.tobytes()

    @pytest.mark.parametrize("n_chips", [8192, 2**15])
    def test_signed_hops_wider_than_the_hop_draw(self, n_chips):
        # the hop draw stays int16 while a hop plus the negated half's start no
        # longer fits it; symbol-synchronous interferers on the desired user's
        # hops collide in every frame
        config = make_config(
            n_users=3,
            n_frames=2,
            n_chips=n_chips,
            sync_mode=SyncMode.SYMBOL_SYNC,
            source=ChannelSource(CUSTOM, taps=(0.7, 0.0, -0.4)),
            symbols_per_drop=6,
        )
        draw = _draw(config, 0)
        assert draw.th.dtype == np.int16
        th = draw.th.copy()
        th[1:] = th[0]
        draw = draw._replace(th=th)
        result = _correlate(config, draw)
        ifi, mai = full_range_gather(config, drop_inputs(config, draw))
        assert result.ifi.tobytes() == ifi.tobytes()
        assert result.mai.tobytes() == mai.tobytes()
        assert np.all(result.mai != 0.0)

    def test_selective_rake_takes_fewer_shifts(self, monkeypatch):
        n_taps, nc = 20, 5
        counts = {"taken": 0, "full": 0}

        def counting_shifts(first, last, chip_offset, n_chips_per_frame):
            shifts = _frame_shifts(first, last, chip_offset, n_chips_per_frame)
            counts["taken"] += len(shifts)
            counts["full"] += len(_full_range_shifts(n_taps, chip_offset, n_chips_per_frame))
            return shifts

        monkeypatch.setattr(simulator, "_frame_shifts", counting_shifts)
        config = make_config(
            n_users=10,
            n_frames=15,
            n_chips=nc,
            scheme="srake",
            fingers=3,
            source=ChannelSource(LOGNORMAL, fading=FadingModel(n_taps=n_taps, decay=0.25, log_variance=1.0)),
            symbols_per_drop=20,
        )
        run_drop(config, 0)
        assert 0 < counts["taken"] < counts["full"]


class TestNoInterferenceExactness:
    def test_clean_link_is_exact(self):
        config = make_config(n_users=1, noise=0.0, energies=2.25, symbols_per_drop=200)
        result = run_drop(config, 0)
        expected = result.bits * math.sqrt(2.25 * config.params.n_frames)
        npt.assert_allclose(result.received, expected, atol=1e-12)
        npt.assert_array_equal(result.ifi, 0.0)
        npt.assert_array_equal(result.mai, 0.0)
        assert _decide(result, [0.0]).tolist() == [0]


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "case",
        [
            dict(n_users=3, taps=4, n_frames=4, n_chips=4, sync_mode=SyncMode.ASYNC, polarity=True),
            dict(n_users=2, taps=7, n_frames=3, n_chips=2, sync_mode=SyncMode.CHIP_SYNC, polarity=True),
            dict(n_users=3, taps=1, n_frames=5, n_chips=3, sync_mode=SyncMode.ASYNC, polarity=False),
            dict(n_users=1, taps=10, n_frames=4, n_chips=3, sync_mode=SyncMode.SYMBOL_SYNC, polarity=True),
            dict(n_users=2, taps=5, n_chips=5, n_frames=3, sync_mode=SyncMode.CHIP_SYNC, polarity=True, forced=0.375),
            # slice edges of the gather: one chip per frame, one frame per
            # symbol, and a channel longer than a symbol (3 guard symbols),
            # whose outermost shifts start at the drop's first frame
            dict(n_users=3, taps=4, n_frames=4, n_chips=1, sync_mode=SyncMode.ASYNC, polarity=True),
            dict(n_users=3, taps=4, n_frames=4, n_chips=1, sync_mode=SyncMode.CHIP_SYNC, polarity=True),
            dict(n_users=3, taps=5, n_frames=1, n_chips=4, sync_mode=SyncMode.ASYNC, polarity=True),
            dict(n_users=3, taps=5, n_frames=1, n_chips=4, sync_mode=SyncMode.CHIP_SYNC, polarity=True),
            dict(n_users=3, taps=9, n_frames=2, n_chips=2, sync_mode=SyncMode.ASYNC, polarity=True),
            dict(n_users=3, taps=9, n_frames=2, n_chips=2, sync_mode=SyncMode.CHIP_SYNC, polarity=True),
        ],
    )
    def test_matches_direct_frame_pair_sum(self, case):
        taps = np.random.default_rng(42).normal(size=case["taps"])
        taps /= np.linalg.norm(taps)
        config = make_config(
            n_users=case["n_users"],
            n_frames=case["n_frames"],
            n_chips=case["n_chips"],
            energies=tuple([0.5] + [1.0] * (case["n_users"] - 1)),
            sync_mode=case["sync_mode"],
            polarity=case["polarity"],
            source=ChannelSource(CUSTOM, taps=tuple(taps)),
            symbols_per_drop=6,
            forced_jitter=case.get("forced"),
        )
        result, ins = run_drop_with_inputs(config)
        for s in range(config.symbols_per_drop):
            reference = brute_force_decision_statistic(
                config.params,
                config.pulse,
                ins["taps"],
                ins["beta"],
                ins["chip_offsets"],
                ins["jitters"],
                ins["th_codes"],
                ins["polarity_codes"],
                ins["bits"],
                ins["guard"] + s,
            )
            assert result.received[s] == pytest.approx(reference, abs=1e-10)
        npt.assert_allclose(result.desired + result.ifi + result.mai, result.received, atol=1e-12)


class TestBatchedTables:
    @pytest.mark.parametrize("n_users", [1, 2, 10])
    def test_one_table_call_and_one_autocorrelation_per_drop(self, monkeypatch, n_users):
        counts = {"table": 0, "autocorrelation": 0}
        table = simulator.cross_correlation_table
        autocorrelation = PulseShape.autocorrelation

        def counting_table(*args, **kwargs):
            counts["table"] += 1
            return table(*args, **kwargs)

        def counting_autocorrelation(pulse, offset):
            counts["autocorrelation"] += 1
            return autocorrelation(pulse, offset)

        monkeypatch.setattr(simulator, "cross_correlation_table", counting_table)
        monkeypatch.setattr(PulseShape, "autocorrelation", counting_autocorrelation)
        config = make_config(n_users=n_users, source=ChannelSource(FIXED), symbols_per_drop=20)
        run_drop(config, 0)
        assert counts == {"table": 1, "autocorrelation": 1}


class TestAgainstOversampledWaveform:
    def test_matches_rendered_integration(self):
        # three users, four paths, fractional interferer delays
        taps = np.array([0.72, -0.45, 0.38, 0.21])
        taps /= np.linalg.norm(taps)
        config = make_config(
            n_users=3,
            n_frames=4,
            n_chips=4,
            energies=(0.5, 1.0, 1.0),
            sync_mode=SyncMode.ASYNC,
            source=ChannelSource(CUSTOM, taps=tuple(taps)),
            symbols_per_drop=100,
            seed=505,
        )
        result, ins = run_drop_with_inputs(config)
        t, r, dt = render_received_waveform(
            config.params,
            config.pulse,
            ins["taps"],
            ins["chip_offsets"],
            ins["jitters"],
            ins["th_codes"],
            ins["polarity_codes"],
            ins["bits"],
        )
        th0 = ins["th_codes"][0]
        pol0 = ins["polarity_codes"][0]
        for s in range(config.symbols_per_drop):
            oracle = waveform_decision_statistic(
                config.params, config.pulse, ins["beta"], th0, pol0, ins["guard"] + s, t, r, dt
            )
            assert abs(result.received[s] - oracle) <= 1e-3


class TestEstimateBep:
    def test_coin_flip_limit(self):
        config = make_config(
            n_users=2,
            n_frames=2,
            n_chips=2,
            noise=1e8,
            n_drops=10,
            symbols_per_drop=10_000,
            sync_mode=SyncMode.CHIP_SYNC,
        )
        estimate = estimate_bep(config)
        assert 0.48 <= estimate.bep <= 0.52

    def test_deterministic_replay(self):
        config = make_config(noise=0.4, n_drops=4, symbols_per_drop=300, source=ChannelSource(FIXED))
        assert estimate_bep(config) == estimate_bep(config)

    def test_zero_statistic_counts_as_error(self):
        config = make_config(
            n_users=1,
            source=ChannelSource(CUSTOM, taps=(0.0,)),
            symbols_per_drop=40,
        )
        estimate = estimate_bep(config)
        assert estimate.errors == estimate.trials

    def test_estimate_fields(self):
        config = make_config(noise=0.3, n_drops=2, symbols_per_drop=500)
        estimate = estimate_bep(config)
        assert estimate.trials == 1000
        assert 0 <= estimate.errors <= estimate.trials
        lo, hi = estimate.ci95
        assert lo <= estimate.bep <= hi


class TestNoiseSweep:
    @pytest.mark.parametrize(
        "source",
        [
            ChannelSource(FIXED),
            ChannelSource(AWGN),
            ChannelSource(CUSTOM, taps=(0.7, 0.0, -0.4)),
            ChannelSource(LOGNORMAL, fading=_FADING),
            ChannelSource(SHARED_LOGNORMAL, fading=_FADING),
        ],
        ids=["fixed", "awgn", "custom", "lognormal", "shared"],
    )
    def test_shared_estimate_equals_independent(self, source):
        levels = (0.0, 0.15, 2.0)
        for sync_mode in SyncMode:
            for polarity in (True, False):
                for n_users in (1, 3):
                    configs = [
                        make_config(
                            n_users=n_users,
                            energies=(0.5,) + (1.0,) * (n_users - 1),
                            noise=level,
                            sync_mode=sync_mode,
                            polarity=polarity,
                            source=source,
                            n_drops=2,
                            symbols_per_drop=40,
                            seed=n_users + 10 * polarity,
                        )
                        for level in levels
                    ]
                    independent = [estimate_bep(config) for config in configs]
                    drops = [run_drop(configs[0], d) for d in range(2)]
                    sums = np.array([[d.ifi.sum(), (d.ifi * d.ifi).sum(), d.mai.sum(), (d.mai * d.mai).sum()] for d in drops])
                    # the first call, which runs the drops, holds the first,
                    # the middle and the last level in turn
                    for first in range(len(levels)):
                        sweep = NoiseSweep(levels)
                        order = [first] + [i for i in range(len(levels)) if i != first]
                        for i in order:
                            assert estimate_bep(configs[i], sweep) == independent[i]
                        # each drop's sums, bit for bit, whichever level ran the pass
                        assert sweep.moments.tobytes() == sums.tobytes()
                    # the levels move the count, so the equalities above are not vacuous
                    assert independent[0].errors < independent[-1].errors

    @pytest.mark.parametrize("source", [ChannelSource(AWGN), ChannelSource(LOGNORMAL, fading=_FADING)])
    def test_decision_repeats_bit_for_bit(self, source):
        # the noise level changes no component of a drop, and deciding one
        # drop at any level gives the error count estimate_bep reports there
        base = run_drop(make_config(n_users=3, noise=0.4, source=source), 0)
        for level in (0.0, 0.4, 0.05, 3.7):
            config = make_config(n_users=3, noise=level, source=source)
            drop = run_drop(config, 0)
            for field in dataclasses.fields(DropResult):
                assert getattr(drop, field.name).tobytes() == getattr(base, field.name).tobytes()
            (errors,) = _decide(base, [level]).tolist()
            assert errors == estimate_bep(config).errors

    def test_one_drop_pass_serves_every_level(self, monkeypatch):
        calls = []
        drop = simulator.run_drop
        monkeypatch.setattr(simulator, "run_drop", lambda *a: calls.append(1) or drop(*a))
        levels = (0.0, 0.3, 0.9, 4.0)
        sweep = NoiseSweep(levels)
        for level in reversed(levels):
            estimate_bep(make_config(noise=level, n_drops=3), sweep)
        assert len(calls) == 3
        assert len(sweep.errors) == len(levels)

    @pytest.mark.parametrize(
        "change",
        [
            dict(seed=5),
            dict(n_drops=2),
            dict(symbols_per_drop=60),
            dict(sync_mode=SyncMode.CHIP_SYNC),
            dict(polarity=False),
            dict(energies=(1.0, 2.0)),
            dict(source=ChannelSource(FIXED)),
        ],
        ids=["seed", "n_drops", "symbols", "sync_mode", "polarity", "energies", "channel"],
    )
    def test_other_configuration_rejected(self, change):
        sweep = NoiseSweep((0.1, 0.2))
        estimate_bep(make_config(noise=0.1), sweep)
        with pytest.raises(ValueError, match="shared sweep"):
            estimate_bep(make_config(noise=0.2, **change), sweep)

    def test_unknown_level_rejected(self):
        sweep = NoiseSweep((0.1, 0.2))
        with pytest.raises(ValueError, match="shared sweep"):
            estimate_bep(make_config(noise=0.3), sweep)
        assert sweep.errors is None
        estimate_bep(make_config(noise=0.1), sweep)
        with pytest.raises(ValueError, match="shared sweep"):
            estimate_bep(make_config(noise=0.15), sweep)

    @pytest.mark.parametrize("n_users", [1, 2, 10])
    @pytest.mark.parametrize(
        "source",
        [
            ChannelSource(AWGN),
            ChannelSource(FIXED),
            ChannelSource(CUSTOM, taps=(0.0, 0.6, -0.4, 0.0)),
            ChannelSource(CUSTOM, taps=(0.0, 0.0)),
            ChannelSource(LOGNORMAL, fading=_FADING),
            ChannelSource(SHARED_LOGNORMAL, fading=_FADING),
        ],
        ids=["awgn", "fixed", "custom-zero-ends", "all-zero", "lognormal", "shared"],
    )
    def test_pass_equals_the_level_by_level_loop(self, source, n_users):
        # every level decided from one array per drop, against one decision per level and drop
        levels = (0.0, 0.05, 0.4, 3.7)
        sizes = dict(n_users=n_users, source=source, n_drops=3, symbols_per_drop=40)
        counts, moments = drop_pass_by_level(make_config(**sizes), levels)
        sweep = NoiseSweep(levels)
        assert [estimate_bep(make_config(noise=level, **sizes), sweep).errors for level in levels] == counts
        assert sweep.errors == counts
        assert sweep.moments.tobytes() == moments.tobytes()
        if source.taps == (0.0, 0.0):
            # every statistic is exactly zero: a tie, counted as an error at every level
            assert counts == [3 * 40] * len(levels)


class TestWilsonInterval:
    def test_known_value(self):
        # 10 successes of 100 at 95%: classic textbook interval
        lo, hi = wilson_interval(10, 100)
        assert lo == pytest.approx(0.0552, abs=2e-4)
        assert hi == pytest.approx(0.1744, abs=2e-4)

    @pytest.mark.parametrize("errors,trials", [(0, 50), (50, 50), (1, 3), (500, 100000)])
    def test_contains_point_estimate(self, errors, trials):
        lo, hi = wilson_interval(errors, trials)
        assert 0.0 <= lo <= errors / trials <= hi <= 1.0

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            BepEstimate(errors=5, trials=4, bep=1.0, ci95=(0.9, 1.0))


def padded_template_energies(beta, hops, signs, nf, nc):
    """The template energies read from a zero-padded copy of the weight sequence's non-negative lags."""
    c_w = correlation_sequence(beta, beta)
    n_taps = beta.size
    hops = np.asarray(hops, dtype=np.intp).reshape(-1, nf)
    signs = signs.reshape(-1, nf)
    energies = np.full(hops.shape[0], nf * float(c_w[n_taps]))
    max_gap = (int(np.flatnonzero(c_w[n_taps:]).max(initial=0)) + nc - 1) // nc
    if max_gap < 1 or nf < 2:
        return energies
    table_len = max_gap * nc + nc
    wpad = np.zeros(table_len)
    top = min(n_taps, table_len)
    wpad[:top] = c_w[n_taps : n_taps + top]
    for gap in range(1, min(max_gap, nf - 1) + 1):
        diff = gap * nc + hops[:, gap:] - hops[:, : nf - gap]
        energies = energies + 2.0 * np.sum(signs[:, : nf - gap] * signs[:, gap:] * wpad[diff], axis=1)
    return energies


class TestTemplateEnergy:
    def test_single_path_energy_is_frame_count(self):
        config = make_config(n_users=1, n_frames=6, symbols_per_drop=64)
        result = run_drop(config, 0)
        npt.assert_allclose(result.template_energy, 6.0, atol=1e-12)

    @pytest.mark.parametrize(
        "n_frames,n_chips,taps",
        [(5, 3, None), (1, 4, 6), (2, 2, 9), (4, 3, 1), (3, 1, 5)],
        ids=["fixed-5x3", "one-frame", "gap-capped-by-frames", "single-tap", "one-chip"],
    )
    def test_matches_scatter_oracle(self, n_frames, n_chips, taps):
        # rebuild each symbol's template on the chip grid and sum the squares
        if taps is None:
            source = ChannelSource(FIXED)
        else:
            source = ChannelSource(CUSTOM, taps=tuple(np.random.default_rng(8).normal(size=taps)))
        config = make_config(
            n_users=1,
            n_frames=n_frames,
            n_chips=n_chips,
            source=source,
            symbols_per_drop=30,
            seed=77,
        )
        result, ins = run_drop_with_inputs(config)
        th0, pol0, beta = ins["th_codes"][0], ins["polarity_codes"][0], ins["beta"]
        nf, nc = n_frames, n_chips
        for s in range(30):
            grid = np.zeros(nf * nc + beta.size + nc + 2)
            base_sym = (ins["guard"] + s) * nf
            for f in range(nf):
                m = base_sym + f
                start = f * nc + th0[m]
                grid[start : start + beta.size] += pol0[m] * beta
            assert result.template_energy[s] == pytest.approx(float(grid @ grid), abs=1e-12)

    @pytest.mark.parametrize("n_chips", [1, 2, 5])
    def test_bounded_gaps_match_every_gap(self, n_chips):
        # the loop over every gap a full L-tap weight vector can reach
        rng = np.random.default_rng(n_chips)
        nf = 6
        for _ in range(50):
            n_taps = int(rng.integers(1, 25))
            beta = np.where(rng.random(n_taps) < 0.3, rng.normal(size=n_taps), 0.0)
            hops = rng.integers(0, n_chips, size=10 * nf)
            signs = rng.choice([-1.0, 1.0], size=10 * nf)
            c_w = correlation_sequence(beta, beta)
            expected = np.full(10, nf * float(c_w[n_taps]))
            max_gap = (n_taps - 1 + n_chips - 1) // n_chips
            table_len = max_gap * n_chips + n_chips
            wpad = np.zeros(table_len)
            wpad[: min(n_taps, table_len)] = c_w[n_taps : n_taps + min(n_taps, table_len)]
            h, sg = hops.reshape(-1, nf), signs.reshape(-1, nf)
            for gap in range(1, min(max_gap, nf - 1) + 1):
                diff = gap * n_chips + h[:, gap:] - h[:, : nf - gap]
                expected = expected + 2.0 * np.sum(sg[:, : nf - gap] * sg[:, gap:] * wpad[diff], axis=1)
            got = _template_energies(beta, hops, signs, nf, n_chips)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("hop_dtype", [np.int16, np.intp], ids=["int16", "intp"])
    def test_clipped_read_matches_the_padded_copy_bit_for_bit(self, hop_dtype):
        # hop distances of L or more read lag L's zero from the sequence itself
        rng = np.random.default_rng(28)
        schemes = ("arake", "srake", "prake", "egc")
        past_l = 0
        for case in range(400):
            n_taps = int(rng.integers(1, 41))
            nc = int(rng.integers(1, 9))
            nf = int(rng.integers(1, 31))
            scheme = schemes[case % 4]
            fingers = None if scheme in ("arake", "egc") and case % 8 < 4 else int(rng.integers(1, n_taps + 1))
            beta = select_weights(rng.normal(size=n_taps), scheme, fingers)
            hops = rng.integers(0, nc, size=(5, nf)).astype(hop_dtype)
            signs = rng.choice([-1.0, 1.0], size=(5, nf))
            got = _template_energies(beta, hops.ravel(), signs.ravel(), nf, nc)
            expected = padded_template_energies(beta, hops.ravel(), signs.ravel(), nf, nc)
            assert got.tobytes() == expected.tobytes()
            # the frame gaps the loop reads, up to the last nonzero lag
            last = int(np.flatnonzero(correlation_sequence(beta, beta)[n_taps:]).max(initial=0))
            wide = hops.astype(np.intp)
            read = range(1, min((last + nc - 1) // nc, nf - 1) + 1)
            past_l += any((gap * nc + wide[:, gap:] - wide[:, : nf - gap] >= n_taps).any() for gap in read)
        assert past_l >= 100

    def test_mean_energy_ratio_near_one(self):
        config = make_config(
            n_users=1,
            n_frames=100,
            n_chips=5,
            source=ChannelSource(FIXED),
            n_drops=2,
            symbols_per_drop=1000,
        )
        beta = select_weights(FIXED_CHANNEL_TAPS, "arake")
        scale = 100 * float(beta @ beta)
        ratios = np.concatenate(
            [run_drop(config, d).template_energy / scale for d in range(2)]
        )
        assert 0.99 <= ratios.mean() <= 1.01

    def test_narrow_hops_past_int16_frame_offsets(self):
        # Nc = 2**15 keeps the hop draw int16, while gap * Nc no longer fits it
        nc, nf = 2**15, 3
        beta = np.array([0.6, -0.5, 0.4, 0.3])
        rng = np.random.default_rng(21)
        hops = rng.integers(0, nc, size=(4, nf), dtype=np.int16)
        hops[0] = (nc - 1, 0, nc - 2)  # frames 0 and 1 one chip apart
        hops[1] = (nc - 3, 0, nc - 1)  # and frames 0 and 1 three chips apart
        signs = rng.choice([-1.0, 1.0], size=(4, nf))
        got = _template_energies(beta, hops.ravel(), signs.ravel(), nf, nc)
        for s in range(4):
            grid = np.zeros(nf * nc + beta.size)
            for f in range(nf):
                start = f * nc + int(hops[s, f])
                grid[start : start + beta.size] += signs[s, f] * beta
            assert got[s] == pytest.approx(float(grid @ grid), abs=1e-12)
        # the collisions count: the first two templates differ from Nf |beta|^2
        assert abs(got[0] - nf * float(beta @ beta)) > 0.1
        assert abs(got[1] - nf * float(beta @ beta)) > 0.1


class TestCodeStreams:
    def test_four_substreams_per_drop(self, monkeypatch):
        keys = []
        monkeypatch.setattr(simulator, "substream", lambda *key: keys.append(key) or substream(*key))
        run_drop(make_config(n_users=3, source=ChannelSource(LOGNORMAL, fading=_FADING)), 5)
        assert keys == [(1234, 5, i) for i in range(4)]

    def test_draw_stage_reads_the_four_substreams(self, monkeypatch):
        keys = []
        monkeypatch.setattr(simulator, "substream", lambda *key: keys.append(key) or substream(*key))
        _draw(make_config(n_users=3, source=ChannelSource(LOGNORMAL, fading=_FADING), seed=9), 4)
        assert keys == [(9, 4, i) for i in range(4)]

    @pytest.mark.parametrize(
        "source,sync_mode,n_users,streams",
        [
            (ChannelSource(AWGN), SyncMode.ASYNC, 3, (1, 2, 3)),
            (ChannelSource(FIXED), SyncMode.CHIP_SYNC, 3, (1, 2, 3)),
            (ChannelSource(AWGN), SyncMode.SYMBOL_SYNC, 3, (2, 3)),
            (ChannelSource(LOGNORMAL, fading=_FADING), SyncMode.ASYNC, 1, (0, 2, 3)),
        ],
        ids=["awgn-async", "fixed-chip-sync", "symbol-sync", "one-user-fading"],
    )
    def test_a_drop_makes_only_the_streams_it_reads(self, monkeypatch, source, sync_mode, n_users, streams):
        # the channel stream only for a fading source, the delay stream only where delays are drawn
        keys = []
        monkeypatch.setattr(simulator, "substream", lambda *key: keys.append(key) or substream(*key))
        config = make_config(n_users=n_users, source=source, sync_mode=sync_mode, noise=0.2)
        got = run_drop(config, 5)
        assert keys == [(1234, 5, i) for i in streams]
        # the same drop as one that makes all four streams
        monkeypatch.setattr(simulator, "substream", substream)
        draws = [substream(1234, 5, i) for i in range(4)]
        delays = simulator._drop_delays(config, draws[1])
        taps = config.channel_source.draw(n_users, draws[0])
        assert got.z.tobytes() == draws[3].standard_normal(config.symbols_per_drop).tobytes()
        assert _draw(config, 5).taps.tobytes() == taps.tobytes()
        assert [a.tobytes() for a in _draw(config, 5)[2:4]] == [a.tobytes() for a in delays]

    def test_drop_draws_every_user_channel_in_one_call(self, monkeypatch):
        shapes = []
        draw = simulator.gen_lognormal_channel
        monkeypatch.setattr(simulator, "gen_lognormal_channel", lambda *a: shapes.append(a[2]) or draw(*a))
        taps = _draw(make_config(n_users=3, source=ChannelSource(LOGNORMAL, fading=_FADING), seed=9), 4).taps
        assert shapes == [(3,)]
        assert taps.tobytes() == draw(_FADING, substream(9, 4, 0), (3,)).tobytes()

    def test_correlate_stage_draws_nothing_and_repeats(self, monkeypatch):
        config = make_config(n_users=3, noise=0.2, source=ChannelSource(LOGNORMAL, fading=_FADING))
        draw = _draw(config, 3)
        keys = []
        monkeypatch.setattr(simulator, "substream", lambda *key: keys.append(key) or substream(*key))
        first, second = _correlate(config, draw), _correlate(config, draw)
        assert keys == []
        for field in dataclasses.fields(DropResult):
            assert getattr(first, field.name).tobytes() == getattr(second, field.name).tobytes()

    def test_disabling_polarity_keeps_every_other_draw(self):
        kwargs = dict(n_users=3, noise=0.2, source=ChannelSource(LOGNORMAL, fading=_FADING))
        on, on_inputs = run_drop_with_inputs(make_config(polarity=True, **kwargs), 2)
        off, off_inputs = run_drop_with_inputs(make_config(polarity=False, **kwargs), 2)
        for name in ("th_codes", "bits", "chip_offsets", "jitters"):
            npt.assert_array_equal(on_inputs[name], off_inputs[name])
        npt.assert_array_equal(on_inputs["taps"], off_inputs["taps"])
        npt.assert_array_equal(on.z, off.z)
        npt.assert_array_equal(off_inputs["polarity_codes"], 1)

    # Pinned simulated outcomes: a change to any per-drop random stream moves
    # them. A deliberate re-baseline updates these pins and says so.
    @pytest.mark.parametrize("seed,errors", [(1, 47), (7, 60)])
    def test_pinned_streams(self, seed, errors):
        config = make_config(
            n_users=4,
            n_frames=4,
            n_chips=4,
            noise=0.3,
            source=ChannelSource(FIXED),
            n_drops=4,
            symbols_per_drop=250,
            seed=seed,
        )
        estimate = estimate_bep(config)
        assert (estimate.errors, estimate.trials) == (errors, 1000)


class TestConfigValidation:
    def test_forced_jitter_requires_chip_sync(self):
        with pytest.raises(ValueError):
            make_config(sync_mode=SyncMode.ASYNC, forced_jitter=0.5)

    def test_forced_jitter_domain(self):
        with pytest.raises(ValueError):
            make_config(sync_mode=SyncMode.CHIP_SYNC, forced_jitter=1.0)

    def test_uniform_and_forced_exclusive(self):
        with pytest.raises(ValueError):
            make_config(sync_mode=SyncMode.CHIP_SYNC, forced_jitter=0.2, uniform_jitter=True)

    def test_channel_source_validation(self):
        with pytest.raises(ValueError):
            ChannelSource("rayleigh")
        with pytest.raises(ValueError):
            ChannelSource("lognormal")
        with pytest.raises(ValueError):
            ChannelSource(CUSTOM)
        with pytest.raises(ValueError):
            ChannelSource(FIXED, taps=(1.0,))

