import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from thuwb.channel import (
    FIXED_CHANNEL_TAPS,
    MAX_LOG_VARIANCE,
    FadingModel,
    SyncMode,
    decompose_delay,
    gen_lognormal_channel,
)
from thuwb.model import CHIP_TIME, PulseShape, SystemParams
from thuwb.simulator import CUSTOM, FIXED, LOGNORMAL, SHARED_LOGNORMAL, ChannelSource, TrialConfig, _draw, _drop_delays


def mean_tap_energies(model: FadingModel) -> np.ndarray:
    """The model's mean tap energies, ``omega0 * exp(-decay * l)`` for ``l = 0 .. L - 1``."""
    return model.leading_tap_energy * np.exp(-model.decay * np.arange(model.n_taps))


class TestFixedChannel:
    def test_reference_profile(self):
        taps = ChannelSource(FIXED).draw(3, None)
        assert taps.shape == (3, 10) and taps.dtype == np.float64
        npt.assert_array_equal(taps, [FIXED_CHANNEL_TAPS] * 3)
        assert float(taps[0] @ taps[0]) == pytest.approx(1.0, abs=5e-4)
        assert taps[0, 3] == -0.4536  # sign preserved

    def test_taps_are_frozen(self):
        model = FadingModel(n_taps=4, decay=0.25, log_variance=1.0)
        rng = np.random.default_rng(5)
        drawn = [gen_lognormal_channel(model, rng)]
        for kind in (FIXED, "awgn", CUSTOM, LOGNORMAL, SHARED_LOGNORMAL):
            fading = model if kind in (LOGNORMAL, SHARED_LOGNORMAL) else None
            taps = (0.5, -0.2) if kind == CUSTOM else None
            drawn.append(ChannelSource(kind, fading=fading, taps=taps).draw(3, rng))
        for taps in drawn:
            with pytest.raises(ValueError):
                taps[0] = 9.9

    def test_validation(self):
        # a custom source is the one that takes taps from outside
        for taps in ((), (1.0, np.inf), (np.nan,), [-np.inf, 0.5]):
            with pytest.raises(ValueError, match="non-empty vector of finite taps"):
                ChannelSource(CUSTOM, taps=taps)
        assert ChannelSource(CUSTOM, taps=[1, -0.5]).taps == (1.0, -0.5)


class TestFadingModel:
    def test_leading_tap_energy_value(self):
        model = FadingModel(n_taps=20, decay=0.25, log_variance=1.0)
        direct = (1 - math.exp(-0.25)) / (1 - math.exp(-0.25 * 20))
        assert model.leading_tap_energy == pytest.approx(direct, abs=1e-15)
        assert model.leading_tap_energy == pytest.approx(0.22270, abs=1e-5)

    def test_profile_sums_to_one(self):
        model = FadingModel(n_taps=20, decay=0.25, log_variance=1.0)
        assert mean_tap_energies(model).sum() == pytest.approx(1.0, abs=1e-12)

    def test_first_log_mean_value(self):
        model = FadingModel(n_taps=20, decay=0.25, log_variance=1.0)
        direct = 0.5 * (math.log((1 - math.exp(-0.25)) / (1 - math.exp(-5.0))) - 2.0)
        assert model.log_means[0] == pytest.approx(direct, abs=1e-12)
        assert model.log_means[0] == pytest.approx(-1.7509654, abs=1e-6)

    @pytest.mark.parametrize("n_taps,decay,log_variance", [(20, 0.25, 1.0), (1, 0.4, 0.7), (7, 2.5, 0.1)])
    def test_cached_log_means_equal_the_formula_bit_for_bit(self, n_taps, decay, log_variance):
        model = FadingModel(n_taps=n_taps, decay=decay, log_variance=log_variance)
        leading = (1.0 - math.exp(-decay)) / (1.0 - math.exp(-decay * n_taps))
        l = np.arange(n_taps)
        means = 0.5 * (math.log(leading) - decay * l - 2.0 * log_variance)
        assert model.leading_tap_energy == leading
        assert model.log_means.tobytes() == means.tobytes()
        # computed once per model, and read-only so no caller can change it
        assert model.log_means is model.log_means
        with pytest.raises(ValueError):
            model.log_means[0] = 0.0

    def test_log_means_give_profile(self):
        # mean tap energy of a lognormal magnitude is exp(2 mu + 2 s2)
        model = FadingModel(n_taps=12, decay=0.4, log_variance=0.7)
        implied = np.exp(2 * model.log_means + 2 * model.log_variance)
        npt.assert_allclose(implied, mean_tap_energies(model), rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            FadingModel(0, 0.25, 1.0)
        with pytest.raises(ValueError):
            FadingModel(5, -0.1, 1.0)
        # a log_variance not above 0, or above the cap where the taps underflow to 0
        for log_variance in (0.0, math.nextafter(MAX_LOG_VARIANCE, math.inf), 400.0, 1e6):
            with pytest.raises(ValueError, match="^log_variance must be in"):
                FadingModel(5, 0.25, log_variance)
        # at the cap, the flattest profile keeps the leading tap's log-magnitude mean above -103.5
        capped = FadingModel(1024, 2.0**-53, MAX_LOG_VARIANCE)
        assert np.isfinite(capped.log_means).all() and capped.log_means[0] >= -103.5
        # exp(-decay) rounds to 1, and the normalization would read 0 / 0
        for decay in (0.0, 2.0**-54, 1e-17, 1e-300, 5e-324):
            with pytest.raises(ValueError, match="^decay must be > 0"):
                FadingModel(5, decay, 1.0)
        # the smallest decay above that edge still normalizes
        edge = FadingModel(5, 2.0**-53, 1.0)
        assert math.exp(-edge.decay) < 1.0
        assert np.isfinite(edge.log_means).all() and 0.0 < edge.leading_tap_energy <= 1.0


@pytest.fixture(scope="module")
def draws():
    model = FadingModel(n_taps=20, decay=0.25, log_variance=1.0)
    rng = np.random.default_rng(2024)
    taps = np.array([gen_lognormal_channel(model, rng) for _ in range(100_000)])
    return model, taps


class TestLognormalDraws:
    def test_mean_total_energy(self, draws):
        _, taps = draws
        total = (taps**2).sum(axis=1)
        assert 0.98 <= total.mean() <= 1.02

    def test_per_tap_energy_profile(self, draws):
        model, taps = draws
        profile = mean_tap_energies(model)
        second_moment = (taps**2).mean(axis=0)
        for l in range(10):
            assert second_moment[l] == pytest.approx(profile[l], rel=0.05)

    def test_sign_symmetry(self, draws):
        _, taps = draws
        n = taps.shape[0]
        bound = 3.0 * taps.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(taps.mean(axis=0)) <= bound)


SMALL = FadingModel(n_taps=6, decay=0.25, log_variance=1.0)


def reference_draw(model, rng, size):
    """Lognormal taps as a stacked draw makes them: every magnitude, then every sign."""
    mags = np.exp(rng.normal(model.log_means, math.sqrt(model.log_variance), size=size))
    return (2 * rng.integers(0, 2, size=size) - 1) * mags


class TestStackedDraw:
    def test_single_draw_is_one_vector_bit_for_bit(self):
        # shape () draws one tap vector: L normals around the log means, then L signs
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(20):
            taps = gen_lognormal_channel(SMALL, rng)
            mags = np.exp(ref.normal(SMALL.log_means, math.sqrt(SMALL.log_variance)))
            signs = 2 * ref.integers(0, 2, size=SMALL.n_taps) - 1
            assert taps.shape == (6,) and not taps.flags.writeable
            assert taps.tobytes() == (signs * mags).tobytes()

    @pytest.mark.parametrize("shape", [(1,), (7,), (4, 3)], ids=str)
    def test_stacked_draw_is_one_read_only_array(self, shape):
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        taps = gen_lognormal_channel(SMALL, rng, shape)
        assert taps.shape == shape + (6,) and not taps.flags.writeable
        assert taps.tobytes() == reference_draw(SMALL, ref, shape + (6,)).tobytes()
        # the generator is left where those two draws leave it
        assert rng.random() == ref.random()

    def test_stacked_draw_holds_two_arrays_of_its_size(self):
        # the magnitudes and the signs; the exponential and the sign flip run in place
        tracemalloc.start()
        try:
            taps = gen_lognormal_channel(SMALL, np.random.default_rng(14), (20_000,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * taps.nbytes

    def test_stacked_draw_follows_the_tap_profile(self):
        # every user of every set follows the profile: tap l's mean energy over
        # 4,000 sets, per user. A tap energy's relative spread is
        # sqrt(exp(4 log_variance) - 1) = 0.70 here, so 5% is 4.5 standard errors
        model = FadingModel(n_taps=6, decay=0.5, log_variance=0.1)
        taps = gen_lognormal_channel(model, np.random.default_rng(13), (4000, 5))
        npt.assert_allclose((taps**2).mean(axis=0), np.tile(mean_tap_energies(model), (5, 1)), rtol=0.05)

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)], ids=str)
    def test_lognormal_source_draws_every_set_in_one_call(self, shape):
        taps = ChannelSource(LOGNORMAL, fading=SMALL).draw(4, np.random.default_rng(3), shape)
        assert taps.shape == shape + (4, 6) and not taps.flags.writeable
        assert taps.tobytes() == gen_lognormal_channel(SMALL, np.random.default_rng(3), shape + (4,)).tobytes()

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)], ids=str)
    def test_shared_lognormal_source_repeats_one_vector_per_set(self, shape):
        taps = ChannelSource(SHARED_LOGNORMAL, fading=SMALL).draw(4, np.random.default_rng(3), shape)
        shared = gen_lognormal_channel(SMALL, np.random.default_rng(3), shape)
        assert taps.shape == shape + (4, 6) and not taps.flags.writeable
        for user in range(4):
            assert taps[..., user, :].tobytes() == shared.tobytes()

    @pytest.mark.parametrize("shape", [(), (1,), (2, 3)], ids=str)
    def test_sources_that_do_not_fade_tile_their_taps(self, shape):
        for source, row in ((ChannelSource(FIXED), FIXED_CHANNEL_TAPS), (ChannelSource(CUSTOM, taps=(0.5, -0.2)), (0.5, -0.2))):
            taps = source.draw(3, None, shape)
            assert taps.shape == shape + (3, len(row)) and not taps.flags.writeable
            assert taps.tobytes() == np.tile(row, shape + (3, 1)).tobytes()


class TestDelays:
    """User delays as the simulator draws them, read back from a drop's inputs."""

    def config(self, sync_mode, n_users=4, seed=1):
        params = SystemParams(
            n_users=n_users, n_frames=15, n_chips_per_frame=5, bit_energy=1.0, noise_psd=0.0
        )
        return TrialConfig(
            params=params,
            pulse=PulseShape.gaussian_doublet(),
            sync_mode=sync_mode,
            scheme="arake",
            fingers=None,
            polarity_enabled=True,
            channel_source=ChannelSource("awgn"),
            n_drops=1,
            symbols_per_drop=1,
            master_seed=seed,
        )

    def delays(self, config):
        draw = _draw(config, 0)
        return draw.deltas * CHIP_TIME + draw.eps

    def test_symbol_sync_all_zero(self):
        npt.assert_array_equal(self.delays(self.config(SyncMode.SYMBOL_SYNC)), 0.0)

    def test_chip_sync_whole_chips(self):
        delays = self.delays(self.config(SyncMode.CHIP_SYNC, n_users=1001, seed=2))
        assert delays[0] == 0.0
        npt.assert_array_equal(delays % 1.0, 0.0)
        assert delays.max() <= 74
        assert delays.min() >= 0

    def test_async_uniform_mean(self):
        # a million users is too large for a drop, so this draws the drop's
        # delays directly
        config = self.config(SyncMode.ASYNC, n_users=1_000_001)
        chip_offsets, jitters = _drop_delays(config, np.random.default_rng(3))
        delays = (chip_offsets + jitters)[1:]
        span = 75.0
        assert abs(delays.mean() - span / 2) <= 0.005 * span
        assert delays.min() >= 0.0 and delays.max() < span

    def test_user_one_always_zero(self):
        for mode in SyncMode:
            delays = self.delays(self.config(mode, seed=4))
            assert delays[0] == 0.0
            assert np.all((delays >= 0.0) & (delays < 75.0))


class TestDecomposeDelay:
    def test_zero(self):
        assert decompose_delay(0.0) == (0, 0.0)

    def test_whole_plus_fraction(self):
        offset, jitter = decompose_delay(7.25)
        assert offset == 7
        assert jitter == pytest.approx(0.25, abs=1e-15)

    def test_reconstruction(self):
        rng = np.random.default_rng(8)
        for delay in rng.uniform(0, 200, size=2000):
            offset, jitter = decompose_delay(float(delay))
            assert 0.0 <= jitter < 1.0
            assert offset * 1.0 + jitter == pytest.approx(delay, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            decompose_delay(-0.1)
        with pytest.raises(ValueError):
            decompose_delay(np.array([0.5, -0.1]))

    def test_array_matches_scalar_reference(self):
        def reference(delay, chip_time):
            chip_offset = math.floor(delay / chip_time)
            jitter = delay - chip_offset * chip_time
            if jitter < 0.0:
                chip_offset -= 1
                jitter = delay - chip_offset * chip_time
            if jitter >= chip_time:
                chip_offset += 1
                jitter = max(delay - chip_offset * chip_time, 0.0)
            return chip_offset, jitter

        rng = np.random.default_rng(12)
        whole = np.arange(200.0)
        delays = np.concatenate([rng.uniform(0, 75, size=100_000), whole, np.nextafter(whole, np.inf)])
        offsets, jitters = decompose_delay(delays)
        assert offsets.dtype == np.int64 and offsets.shape == delays.shape
        expected = [reference(float(d), 1.0) for d in delays]
        npt.assert_array_equal(offsets, [e[0] for e in expected])
        npt.assert_array_equal(jitters, [e[1] for e in expected])
        assert np.all((jitters >= 0.0) & (jitters < 1.0))

    def test_uniform_delay_splits_independently(self):
        # uniform on [0, N): whole-chip part uniform on {0..N-1}, jitter
        # uniform on [0, 1), and the two independent
        n_span = 75
        rng = np.random.default_rng(99)
        delays = rng.uniform(0, n_span, size=1_000_000)
        offsets = np.floor(delays).astype(int)
        jitters = delays - offsets
        k_bins = 8
        table = np.zeros((n_span, k_bins))
        jitter_bin = np.minimum((jitters * k_bins).astype(int), k_bins - 1)
        np.add.at(table, (offsets, jitter_bin), 1)
        chi2, p_value, _, _ = stats.chi2_contingency(table)[0:4]
        assert p_value > 1e-3
        assert stats.chisquare(table.sum(axis=1)).pvalue > 1e-3
        assert stats.chisquare(table.sum(axis=0)).pvalue > 1e-3
