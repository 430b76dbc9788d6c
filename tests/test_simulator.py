import csv
import math

import numpy as np
import numpy.testing as npt
import pytest

from thuwb.channel import SyncMode, fixed_channel
from thuwb.model import PulseShape, SystemParams
from thuwb.rake import select_weights
from thuwb.simulator import (
    AWGN,
    CUSTOM,
    FIXED,
    BepEstimate,
    ChannelSource,
    TrialConfig,
    _frame_shifts,
    dump_components_csv,
    empirical_interference_variance,
    estimate_bep,
    guard_symbols,
    run_drop,
    wilson_interval,
)

from _oracles import (
    brute_force_decision_statistic,
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
                    shifts = _frame_shifts(n_taps, delta, nc)
                    # the shifts at which some hop difference in (-Nc, Nc)
                    # lands the pulse on the table's support -L .. L-1
                    hits = [
                        shift
                        for shift in range(-n_taps - nc * nf - 2, n_taps + 2)
                        if -n_taps - nc < shift * nc + delta < n_taps + nc - 1
                    ]
                    assert list(shifts) == hits
                    assert -shifts[0] <= guard_frames and shifts[-1] <= guard_frames


class TestNoInterferenceExactness:
    def test_clean_link_is_exact(self):
        config = make_config(n_users=1, noise=0.0, energies=2.25, symbols_per_drop=200)
        result = run_drop(config, 0)
        expected = result.bits * math.sqrt(2.25 * config.params.n_frames)
        npt.assert_allclose(result.y1, expected, atol=1e-12)
        npt.assert_array_equal(result.ifi, 0.0)
        npt.assert_array_equal(result.mai, 0.0)
        assert result.errors == 0


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
        result = run_drop(config, 0, keep_inputs=True)
        ins = result.inputs
        for s in range(config.symbols_per_drop):
            reference = brute_force_decision_statistic(
                config.params,
                config.pulse,
                ins["channels"],
                ins["beta"],
                ins["chip_offsets"],
                ins["jitters"],
                ins["th_codes"],
                ins["polarity_codes"],
                ins["bits"],
                ins["guard"] + s,
            )
            assert result.y1[s] == pytest.approx(reference, abs=1e-10)
        npt.assert_allclose(
            result.desired + result.ifi + result.mai + result.noise, result.y1, atol=1e-12
        )


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
        result = run_drop(config, 0, keep_inputs=True)
        ins = result.inputs
        t, r, dt = render_received_waveform(
            config.params,
            config.pulse,
            ins["channels"],
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
            assert abs(result.y1[s] - oracle) <= 1e-3


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


class TestWilsonInterval:
    def test_known_value(self):
        # 10 successes of 100 at z = 1.96: classic textbook interval
        lo, hi = wilson_interval(10, 100, z=1.96)
        assert lo == pytest.approx(0.0552, abs=2e-4)
        assert hi == pytest.approx(0.1744, abs=2e-4)

    @pytest.mark.parametrize("errors,trials", [(0, 50), (50, 50), (1, 3), (500, 100000)])
    def test_contains_point_estimate(self, errors, trials):
        lo, hi = wilson_interval(errors, trials)
        assert 0.0 <= lo <= errors / trials <= hi <= 1.0

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            BepEstimate(errors=5, trials=4, bep=1.0, ci95=(0.9, 1.0))


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
        result = run_drop(config, 0, keep_inputs=True)
        ins = result.inputs
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

    def test_mean_energy_ratio_near_one(self):
        config = make_config(
            n_users=1,
            n_frames=100,
            n_chips=5,
            source=ChannelSource(FIXED),
            n_drops=2,
            symbols_per_drop=1000,
        )
        beta = select_weights(fixed_channel(), "arake").beta
        scale = 100 * float(beta @ beta)
        ratios = np.concatenate(
            [run_drop(config, d).template_energy / scale for d in range(2)]
        )
        assert 0.99 <= ratios.mean() <= 1.01


class TestEmpiricalVariancePreconditions:
    def test_requires_zero_noise(self):
        config = make_config(noise=0.1, n_drops=2)
        with pytest.raises(ValueError):
            empirical_interference_variance(config, "ifi")

    def test_mai_requires_single_interferer(self):
        config = make_config(n_users=3, n_drops=2)
        with pytest.raises(ValueError):
            empirical_interference_variance(config, "mai")

    def test_jitter_only_for_mai(self):
        config = make_config(n_users=1, n_drops=2, sync_mode=SyncMode.SYMBOL_SYNC)
        with pytest.raises(ValueError):
            empirical_interference_variance(config, "ifi", jitter=0.5)

    def test_unknown_component(self):
        config = make_config(n_drops=2)
        with pytest.raises(ValueError):
            empirical_interference_variance(config, "noise")


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


class TestComponentDump:
    def test_csv_columns_and_consistency(self, tmp_path):
        config = make_config(noise=0.2, n_drops=2, symbols_per_drop=20)
        path = tmp_path / "components.csv"
        dump_components_csv(config, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        first = rows[0]
        assert set(first) == {
            "drop",
            "symbol",
            "desired",
            "ifi",
            "mai",
            "noise",
            "y1",
            "bit",
            "decision",
        }
        for row in rows:
            total = float(row["desired"]) + float(row["ifi"]) + float(row["mai"]) + float(row["noise"])
            assert total == pytest.approx(float(row["y1"]), abs=1e-9)
            assert int(row["bit"]) in (-1, 1)
            assert int(row["decision"]) in (-1, 0, 1)
