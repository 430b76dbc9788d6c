import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate

from thuwb import analytic
from thuwb.analytic import (
    BepMode,
    BepQuery,
    VarianceBreakdown,
    average_bep,
    bep,
    bep_async_exact,
    ifi_variance_components,
    mai_variance_async,
    mai_variance_jitter,
    mai_variance_sync,
    q_function,
    variance_breakdown,
)
from thuwb.channel import ChannelRealization, fixed_channel
from thuwb.model import CHIP_TIME, QUAD_NODES, PulseShape, SystemParams, gamma_factor, substream
from thuwb.rake import select_weights

from _oracles import cross_correlation, enumerate_ifi_variance, enumerate_mai_variance

DOUBLET = PulseShape.gaussian_doublet()
RECT = PulseShape.rectangular()
UNIT = ChannelRealization(np.ones(1))


def make_params(n_users, noise, e1=0.5, e_int=1.0, n_frames=15, n_chips=5):
    energies = (e1,) + (e_int,) * (n_users - 1)
    return SystemParams(
        n_users=n_users,
        n_frames=n_frames,
        n_chips_per_frame=n_chips,
        bit_energy=energies,
        noise_psd=noise,
    )


def awgn_query(mode, params, pulse=DOUBLET, **kwargs):
    return BepQuery(params=params, mode=mode, pulse=pulse, **kwargs)


def unit_channel_query(mode, params, pulse=DOUBLET, **kwargs):
    channels = tuple([UNIT] * params.n_users)
    weights = select_weights(UNIT, "arake")
    return BepQuery(
        params=params, mode=mode, channels=channels, weights=weights, pulse=pulse, **kwargs
    )


class TestQFunction:
    def test_half_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_reflection(self):
        x = np.random.default_rng(1).normal(size=200) * 3
        npt.assert_allclose(q_function(-x), 1.0 - q_function(x), atol=1e-15)

    def test_five_percent_point(self):
        assert q_function(1.6449) == pytest.approx(0.05, abs=1e-4)
        density_tail, _ = integrate.quad(
            lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), 1.6449, 12.0
        )
        assert q_function(1.6449) == pytest.approx(density_tail, abs=1e-12)

    def test_high_precision_reference(self):
        mpmath.mp.dps = 40
        for x in np.linspace(-8.0, 8.0, 33):
            reference = float(0.5 * mpmath.erfc(x / mpmath.sqrt(2)))
            value = q_function(float(x))
            assert abs(value - reference) <= 1e-12 * abs(reference)


class TestIfiVariance:
    def test_no_multipath_means_no_ifi(self):
        assert ifi_variance_components(np.ones(1), np.ones(1), 5) == (0.0, 0.0)

    def test_single_finger_reduction(self):
        rng = np.random.default_rng(4)
        alpha = rng.normal(size=5)
        beta = np.zeros(5)
        beta[0] = 1.0
        near, far = ifi_variance_components(alpha, beta, 8)
        expected = sum(l * alpha[l] ** 2 for l in range(1, 5))
        assert near == pytest.approx(expected, abs=1e-12)
        assert far == 0.0

    def test_enumeration_oracle_long_spread(self):
        ch = fixed_channel()
        beta = select_weights(ch, "arake").beta
        near, far = ifi_variance_components(ch.taps, beta, 5)
        assembled = near / 25 + far / 5
        oracle = enumerate_ifi_variance(ch.taps, beta, 5, DOUBLET)
        assert assembled == pytest.approx(oracle, abs=1e-9)

    def test_enumeration_oracle_random(self):
        rng = np.random.default_rng(12)
        for n_chips in (3, 5, 8):
            alpha = rng.normal(size=6)
            beta = rng.normal(size=6)
            near, far = ifi_variance_components(alpha, beta, n_chips)
            assembled = near / n_chips**2 + far / n_chips
            oracle = enumerate_ifi_variance(alpha, beta, n_chips, DOUBLET)
            assert assembled == pytest.approx(oracle, abs=1e-9)


class TestMaiVariance:
    def test_single_finger_collects_all_taps(self):
        rng = np.random.default_rng(7)
        alpha = rng.normal(size=8)
        beta = np.zeros(8)
        beta[0] = 1.0
        assert mai_variance_sync(alpha, beta) == pytest.approx(float(alpha @ alpha), abs=1e-12)

    def test_single_path_single_finger(self):
        assert mai_variance_sync(np.ones(1), np.ones(1)) == 1.0

    def test_enumeration_oracle(self):
        rng = np.random.default_rng(21)
        alpha = rng.normal(size=6)
        beta = rng.normal(size=6)
        value = mai_variance_sync(alpha, beta)
        for chip_offset in (0, 3, 17):
            oracle = enumerate_mai_variance(alpha, beta, 5, DOUBLET, chip_offset=chip_offset)
            assert value == pytest.approx(oracle, abs=1e-9)

    def test_zero_jitter_reduces_to_sync(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(1, 12))
            alpha = rng.normal(size=n)
            beta = rng.normal(size=n)
            jitter0 = float(mai_variance_jitter(alpha, beta, 0.0, DOUBLET))
            assert jitter0 == pytest.approx(mai_variance_sync(alpha, beta), abs=1e-12)

    def test_jitter_enumeration_oracle(self):
        rng = np.random.default_rng(23)
        alpha = rng.normal(size=5)
        beta = rng.normal(size=5)
        for jitter in (0.2, 0.65):
            value = float(mai_variance_jitter(alpha, beta, jitter, DOUBLET))
            oracle = enumerate_mai_variance(alpha, beta, 4, DOUBLET, chip_offset=6, jitter=jitter)
            assert value == pytest.approx(oracle, abs=1e-9)

    def test_jitter_variance_is_cross_correlation_energy(self):
        # the conditional variance is the squared cross-correlation summed
        # over every chip offset with support
        rng = np.random.default_rng(26)
        for _ in range(10):
            n = int(rng.integers(1, 11))
            alpha = rng.normal(size=n)
            beta = rng.normal(size=n)
            jitter = float(rng.uniform(0.0, 1.0))
            value = float(mai_variance_jitter(alpha, beta, jitter, DOUBLET))
            by_phi = sum(
                cross_correlation(alpha, beta, j, jitter, DOUBLET) ** 2 for j in range(-n, n)
            )
            assert value == pytest.approx(by_phi, abs=1e-9)

    def test_single_path_rectangular_half_chip(self):
        value = float(mai_variance_jitter(np.ones(1), np.ones(1), 0.5, RECT))
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_jitter_domain(self):
        with pytest.raises(ValueError):
            mai_variance_jitter(np.ones(2), np.ones(2), 1.0, RECT)

    @pytest.mark.parametrize("jitter", [-0.1, np.nan, [0.2, np.nan]], ids=["negative", "nan", "nan-in-array"])
    def test_jitter_domain_rejects_negative_and_nan(self, jitter):
        with pytest.raises(ValueError, match="jitter must lie in"):
            mai_variance_jitter(np.ones(2), np.ones(2), jitter, RECT)

    def test_async_single_path_equals_gamma(self):
        for pulse in (DOUBLET, RECT):
            value = mai_variance_async(np.ones(1), np.ones(1), pulse)
            assert value == pytest.approx(gamma_factor(pulse), abs=1e-6)
        assert mai_variance_async(np.ones(1), np.ones(1), RECT) == pytest.approx(
            2.0 / 3.0, abs=1e-6
        )

    def test_async_is_between_jitter_extremes(self):
        rng = np.random.default_rng(24)
        grid = np.linspace(0.0, 1.0, 1000, endpoint=False)
        for pulse in (DOUBLET, RECT):
            alpha = rng.normal(size=7)
            beta = rng.normal(size=7)
            values = mai_variance_jitter(alpha, beta, grid, pulse)
            mean = mai_variance_async(alpha, beta, pulse)
            assert values.min() <= mean <= values.max()

    def test_quadrature_converged(self):
        # against adaptive quadrature of the conditional sum over one chip
        rng = np.random.default_rng(25)
        alpha = rng.normal(size=9)
        beta = rng.normal(size=9)
        for pulse in (DOUBLET, RECT):
            reference, _ = integrate.quad(
                lambda e: float(mai_variance_jitter(alpha, beta, e, pulse)), 0.0, 1.0, limit=200
            )
            assert mai_variance_async(alpha, beta, pulse) == pytest.approx(reference, abs=1e-9)


class TestBepAwgn:
    def test_sync_anchor(self):
        # E1=0.5, nine unit-energy interferers, N=75, noise 0.12
        params = make_params(10, 0.12)
        value = bep(awgn_query(BepMode.AWGN_SYNC, params))
        assert value == pytest.approx(0.0745, abs=1e-4)

    def test_zero_snr_limit(self):
        queries = []
        params = make_params(10, 1e9)
        for mode in (BepMode.AWGN_SYNC, BepMode.AWGN_ASYNC, BepMode.AWGN_NO_POLARITY_SYNC):
            queries.append(awgn_query(mode, params))
        queries.append(unit_channel_query(BepMode.SYNC, params))
        queries.append(unit_channel_query(BepMode.ASYNC_SGA, params))
        queries.append(unit_channel_query(BepMode.ASYNC_EXACT, params))
        for query in queries:
            value = bep(query)
            assert 0.4999 < value < 0.5

    def test_no_polarity_is_worse(self):
        params = make_params(10, 0.05)
        with_polarity = bep(awgn_query(BepMode.AWGN_SYNC, params))
        without = bep(awgn_query(BepMode.AWGN_NO_POLARITY_SYNC, params))
        assert without >= with_polarity

    def test_processing_gain_split_invariance(self):
        for n_frames, n_chips in ((75, 1), (15, 5), (5, 15)):
            params = SystemParams(
                n_users=10,
                n_frames=n_frames,
                n_chips_per_frame=n_chips,
                bit_energy=(0.5,) + (1.0,) * 9,
                noise_psd=0.08,
            )
            sync = bep(awgn_query(BepMode.AWGN_SYNC, params))
            asyn = bep(awgn_query(BepMode.AWGN_ASYNC, params))
            if n_frames == 75:
                sync_ref, async_ref = sync, asyn
            else:
                assert abs(sync - sync_ref) <= 1e-12
                assert abs(asyn - async_ref) <= 1e-12

    def test_unequal_interferer_energies_rejected(self):
        params = SystemParams(
            n_users=3, n_frames=15, n_chips_per_frame=5, bit_energy=(0.5, 1.0, 2.0), noise_psd=0.1
        )
        for mode in (
            BepMode.AWGN_SYNC,
            BepMode.AWGN_ASYNC,
            BepMode.AWGN_NO_POLARITY_SYNC,
        ):
            with pytest.raises(ValueError):
                awgn_query(mode, params)
        with pytest.raises(ValueError):
            unit_channel_query(BepMode.ASYNC_SGA, params)


class TestBepMultipath:
    def fig_params(self, noise):
        return make_params(10, noise)

    def multipath_query(self, mode, noise, scheme="arake", fingers=None, pulse=DOUBLET, **kwargs):
        ch = fixed_channel()
        params = self.fig_params(noise)
        return BepQuery(
            params=params,
            mode=mode,
            channels=tuple([ch] * 10),
            weights=select_weights(ch, scheme, fingers),
            pulse=pulse,
            **kwargs,
        )

    def test_conditional_at_zero_matches_sync(self):
        sync = bep(self.multipath_query(BepMode.SYNC, 0.05))
        conditional = bep(
            self.multipath_query(BepMode.ASYNC_CONDITIONAL, 0.05, jitters=(0.0,) * 9)
        )
        assert conditional == pytest.approx(sync, abs=1e-12)

    def test_single_path_matches_awgn(self):
        params = make_params(10, 0.07)
        sync = bep(unit_channel_query(BepMode.SYNC, params))
        awgn = bep(awgn_query(BepMode.AWGN_SYNC, params))
        assert sync == pytest.approx(awgn, abs=1e-12)

    def test_monotone_in_energy_and_noise(self):
        noise_grid = (0.01, 0.05, 0.2, 1.0)
        modes = (
            lambda n: bep(self.multipath_query(BepMode.SYNC, n)),
            lambda n: bep(self.multipath_query(BepMode.ASYNC_SGA, n)),
            lambda n: bep(awgn_query(BepMode.AWGN_SYNC, self.fig_params(n))),
            lambda n: bep(awgn_query(BepMode.AWGN_ASYNC, self.fig_params(n))),
            lambda n: bep(awgn_query(BepMode.AWGN_NO_POLARITY_SYNC, self.fig_params(n))),
        )
        for evaluate in modes:
            values = [evaluate(n) for n in noise_grid]
            assert all(a < b for a, b in zip(values, values[1:]))
        e_grid = (0.2, 0.4, 0.8, 1.6)
        ch = fixed_channel()
        for mode in (BepMode.SYNC, BepMode.ASYNC_SGA):
            values = []
            for e1 in e_grid:
                params = make_params(10, 0.1, e1=e1)
                query = BepQuery(
                    params=params,
                    mode=mode,
                    channels=tuple([ch] * 10),
                    weights=select_weights(ch, "arake"),
                    pulse=DOUBLET,
                )
                values.append(bep(query))
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_interference_worsens_single_chip_frames(self):
        # with the total gain fixed, putting every pulse in its own frame
        # maximizes the self-interference penalty
        ch = fixed_channel()
        weights = select_weights(ch, "arake")
        configs = ((75, 1), (1, 75))
        values = []
        for n_frames, n_chips in configs:
            params = SystemParams(
                n_users=2,
                n_frames=n_frames,
                n_chips_per_frame=n_chips,
                bit_energy=(0.5, 1.0),
                noise_psd=0.02,
            )
            query = BepQuery(
                params=params,
                mode=BepMode.SYNC,
                channels=(ch, ch),
                weights=weights,
                pulse=DOUBLET,
            )
            values.append(bep(query))
        assert values[0] >= values[1]

    @pytest.mark.parametrize("mode", ["sync", "async_sga", "async_exact"])
    def test_breakdown_components_nonnegative(self, mode):
        query = self.multipath_query(mode, 0.1)
        vb = variance_breakdown(query)
        sync = variance_breakdown(self.multipath_query(BepMode.SYNC, 0.1))
        # only the MAI sums depend on the mode; async_exact integrates them over the jitters
        assert (vb.signal, vb.ifi1, vb.ifi2, vb.noise) == (sync.signal, sync.ifi1, sync.ifi2, sync.noise)
        assert vb.signal > 0 and vb.ifi1 >= 0 and vb.ifi2 >= 0 and vb.noise >= 0
        assert len(vb.mai_per_user) == (0 if mode == "async_exact" else 9)
        assert all(v >= 0 for v in vb.mai_per_user)
        if mode != "async_exact":
            assert bep(query) == q_function(vb.signal / math.sqrt(vb.variance(query.params)))
        with pytest.raises(ValueError):
            VarianceBreakdown(1.0, -1.0, 0.0, (), 0.0)
        with pytest.raises(ValueError):
            variance_breakdown(awgn_query(BepMode.AWGN_SYNC, make_params(10, 0.1)))

    def test_variance_takes_mai_arrays_over_jitter_points(self):
        # one call over an array of jitters gives, point by point, the
        # conditional BEP with every interferer at that jitter
        exact = self.multipath_query(BepMode.ASYNC_EXACT, 0.1)
        eps = np.array([0.0, 0.1, 0.45, 0.9]) * CHIP_TIME
        taps, beta = exact.channels[1].taps, exact.weights.beta
        mai = [mai_variance_jitter(taps, beta, eps, DOUBLET)] * 9
        vb = variance_breakdown(exact)
        probs = q_function(vb.signal / np.sqrt(vb.variance(exact.params, mai)))
        for e, prob in zip(eps, probs):
            conditional = self.multipath_query(BepMode.ASYNC_CONDITIONAL, 0.1, jitters=(e,) * 9)
            assert prob == pytest.approx(bep(conditional), rel=1e-13)

    def test_jitter_vector_validation(self):
        with pytest.raises(ValueError):
            self.multipath_query(BepMode.ASYNC_CONDITIONAL, 0.1, jitters=(0.0,) * 4)
        with pytest.raises(ValueError):
            self.multipath_query(BepMode.ASYNC_CONDITIONAL, 0.1, jitters=(1.5,) * 9)
        with pytest.raises(ValueError, match="jitters must lie in"):
            self.multipath_query(BepMode.ASYNC_CONDITIONAL, 0.1, jitters=(math.nan,) * 9)


class TestStackedMai:
    """The MAI sums over stacked interferer taps equal the per-interferer calls."""

    def query(self, mode):
        rng = np.random.default_rng(61)
        channels = tuple(ChannelRealization(rng.normal(size=8)) for _ in range(10))
        jitters = tuple(rng.uniform(0.0, CHIP_TIME, size=9))
        return BepQuery(
            params=make_params(10, 0.1),
            mode=mode,
            channels=channels,
            weights=select_weights(channels[0], "srake", 3),
            pulse=DOUBLET,
            jitters=jitters if mode == BepMode.ASYNC_CONDITIONAL else None,
        )

    @pytest.mark.parametrize("mode", ["sync", "async_sga", "async_conditional"])
    def test_breakdown_matches_per_interferer_calls(self, mode):
        query = self.query(mode)
        beta = query.weights.beta
        expected = []
        for k, ch in enumerate(query.channels[1:]):
            if mode == "sync":
                expected.append(mai_variance_sync(ch.taps, beta))
            elif mode == "async_sga":
                expected.append(mai_variance_async(ch.taps, beta, DOUBLET))
            else:
                expected.append(mai_variance_jitter(ch.taps, beta, query.jitters[k], DOUBLET))
        mai = variance_breakdown(query).mai_per_user
        assert all(type(v) is float for v in mai)
        npt.assert_allclose(mai, expected, rtol=1e-15, atol=0.0)

    def test_jitter_broadcasts_against_leading_axes(self):
        rng = np.random.default_rng(62)
        taps = rng.normal(size=(4, 6))
        beta = rng.normal(size=6)
        per_row = rng.uniform(0.0, 1.0, size=4)
        grid = np.array([0.0, 0.3, 0.7])
        rows = mai_variance_jitter(taps, beta, per_row, RECT)
        table = mai_variance_jitter(taps[:, None, :], beta, grid, RECT)
        assert rows.shape == (4,) and table.shape == (4, 3)
        for k in range(4):
            assert rows[k] == pytest.approx(float(mai_variance_jitter(taps[k], beta, per_row[k], RECT)), rel=1e-15)
            npt.assert_allclose(table[k], mai_variance_jitter(taps[k], beta, grid, RECT), rtol=1e-15)

    def test_single_interferer_keeps_scalar_results(self):
        alpha = fixed_channel().taps
        assert np.ndim(mai_variance_sync(alpha, alpha)) == 0
        assert np.ndim(mai_variance_async(alpha, alpha, DOUBLET)) == 0

    def test_no_interferers(self):
        query = self.query("async_sga")
        single = replace(query, params=make_params(1, 0.1), channels=query.channels[:1])
        assert variance_breakdown(single).mai_per_user == ()

    def test_async_sga_makes_one_jitter_call(self, monkeypatch):
        calls = []
        original = analytic.mai_variance_jitter

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(analytic, "mai_variance_jitter", counting)
        bep(self.query("async_sga"))
        assert calls == [(9, 1, 8)]


class TestBepAsyncExact:
    def test_two_users_matches_adaptive_quadrature(self):
        ch = fixed_channel()
        params = make_params(2, 0.05)
        weights = select_weights(ch, "arake")
        query = BepQuery(
            params=params,
            mode=BepMode.ASYNC_EXACT,
            channels=(ch, ch),
            weights=weights,
            pulse=DOUBLET,
        )
        value, err = bep_async_exact(query)
        assert err == 0.0

        def conditional(eps):
            q = BepQuery(
                params=params,
                mode=BepMode.ASYNC_CONDITIONAL,
                channels=(ch, ch),
                weights=weights,
                pulse=DOUBLET,
                jitters=(float(eps),),
            )
            return bep(q)

        reference, _ = integrate.quad(conditional, 0.0, 1.0, limit=200)
        assert value == pytest.approx(reference, abs=1e-8)

    def test_monte_carlo_path_agrees_with_tensor(self, monkeypatch):
        ch = fixed_channel()
        params = make_params(4, 0.05, e1=0.5)
        weights = select_weights(ch, "arake")
        base = dict(
            params=params,
            mode=BepMode.ASYNC_EXACT,
            channels=tuple([ch] * 4),
            weights=weights,
            pulse=DOUBLET,
        )
        tensor, err_tensor = bep_async_exact(BepQuery(**base))
        assert err_tensor == 0.0
        monkeypatch.setattr(BepQuery, "exact_quad_max_users", 3)
        mc, err_mc = bep_async_exact(BepQuery(**base, seed=2))
        assert err_mc > 0.0
        assert abs(mc - tensor) <= 4.0 * err_mc


class TestAverageBep:
    def test_single_realization(self):
        params = make_params(10, 0.1)
        query = awgn_query(BepMode.AWGN_SYNC, params)
        mean, sem = average_bep([query])
        assert mean == bep(query)
        assert sem == 0.0

    def test_identical_realizations_have_zero_spread(self):
        params = make_params(10, 0.1)
        query = awgn_query(BepMode.AWGN_SYNC, params)
        mean, sem = average_bep([query, query])
        assert mean == bep(query)
        assert sem == 0.0

    def test_fading_average_monotone_in_snr(self):
        from thuwb.channel import FadingModel, gen_lognormal_channel
        from thuwb.model import substream

        fading = FadingModel(n_taps=20, decay=0.25, log_variance=1.0)
        realizations = []
        for r in range(300):
            rng = substream(90, r)
            realizations.append(tuple(gen_lognormal_channel(fading, rng) for _ in range(10)))
        means = []
        for ebno_db in (6.0, 10.0, 14.0, 18.0):
            noise = 1.0 * 10.0 ** (-ebno_db / 10.0) / 2.0
            params = make_params(10, noise, e1=1.0)
            queries = [
                BepQuery(
                    params=params,
                    mode=BepMode.ASYNC_SGA,
                    channels=chans,
                    weights=select_weights(chans[0], "arake"),
                    pulse=DOUBLET,
                )
                for chans in realizations
            ]
            means.append(average_bep(queries)[0])
        assert all(a > b for a, b in zip(means, means[1:]))


def reference_exact(query):
    """``bep_async_exact`` of one realization as it was before the shared pass.

    Each realization draws the whole jitter set and evaluates its MAI sums
    interferer by interferer, in one shot.
    """
    p = query.params
    vb = variance_breakdown(query)
    n_int = p.n_users - 1
    tc = CHIP_TIME
    if p.n_users <= query.exact_quad_max_users:
        x, w = np.polynomial.legendre.leggauss(QUAD_NODES)
        nodes, w = 0.5 * tc * (x + 1.0), w / np.sum(w)
        axes = [tuple(-1 if i == k else 1 for i in range(n_int)) for k in range(n_int)]
        jitters = [nodes.reshape(axis) for axis in axes]
        weights = math.prod(w.reshape(axis) for axis in axes)
    else:
        jitters = substream(query.seed, 0).uniform(0.0, tc, size=(analytic.MC_SAMPLES, n_int)).T
        weights = None
    beta = query.weights.beta
    mai = (mai_variance_jitter(ch.taps, beta, eps, query.pulse) for ch, eps in zip(query.channels[1:], jitters))
    probs = q_function(vb.signal / np.sqrt(vb.variance(p, mai)))
    if weights is None:
        return float(np.mean(probs)), float(np.std(probs, ddof=1) / math.sqrt(probs.size))
    return float(np.sum(weights * probs)), 0.0


def exact_ensemble(n_users, n_real, pulse=DOUBLET, scheme="srake", seed=5, noise=0.05, **settings):
    """``n_real`` async_exact queries on random 8-tap channels that share one jitter set."""
    rng = np.random.default_rng(seed)
    params = make_params(n_users, noise, **settings)
    queries = []
    for _ in range(n_real):
        channels = tuple(ChannelRealization(rng.normal(size=8)) for _ in range(n_users))
        weights = select_weights(channels[0], scheme, 3 if scheme == "srake" else None)
        queries.append(
            BepQuery(params=params, mode=BepMode.ASYNC_EXACT, channels=channels, weights=weights, pulse=pulse, seed=seed)
        )
    return queries


class TestExactPass:
    """One pass over the jitter points evaluates every realization of an ensemble."""

    @pytest.mark.parametrize("scheme", ["srake", "arake"])
    @pytest.mark.parametrize("pulse", [DOUBLET, RECT], ids=["doublet", "rect"])
    @pytest.mark.parametrize("n_users", [5, 7])
    def test_monte_carlo_matches_per_realization_code(self, n_users, pulse, scheme):
        queries = exact_ensemble(n_users, 3, pulse, scheme)
        record = analytic._ExactPass(queries)
        for q in queries:
            value, se = bep_async_exact(q, record)
            ref_value, ref_se = reference_exact(q)
            assert value == pytest.approx(ref_value, rel=1e-13, abs=0.0)
            assert se == pytest.approx(ref_se, rel=1e-10, abs=0.0)
            assert se > 0.0

    @pytest.mark.parametrize("n_users", [1, 2, 3, 4])
    def test_quadrature_is_unchanged(self, n_users):
        queries = exact_ensemble(n_users, 3, RECT if n_users == 3 else DOUBLET)
        record = analytic._ExactPass(queries)
        assert [bep_async_exact(q, record) for q in queries] == [reference_exact(q) for q in queries]

    def test_standard_error_at_small_bep(self):
        # a strong desired user over a long frame: the BEP is near 1e-12, where
        # raw sums of squares would lose the spread to cancellation
        (query,) = exact_ensemble(6, 1, scheme="arake", noise=0.002, e1=4.0, n_frames=26)
        value, se = bep_async_exact(query)
        ref_value, ref_se = reference_exact(query)
        assert 1e-13 < value < 1e-11
        assert value == pytest.approx(ref_value, rel=1e-13, abs=0.0)
        assert se == pytest.approx(ref_se, rel=1e-10, abs=0.0)

    def test_chunked_draw_equals_one_shot(self, monkeypatch):
        blocks = []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def uniform(self, *args, **kwargs):
                blocks.append(self.rng.uniform(*args, **kwargs))
                return blocks[-1]

        monkeypatch.setattr(analytic, "substream", lambda *key: Recording(substream(*key)))
        (query,) = exact_ensemble(10, 1)
        bep_async_exact(query)
        one_shot = substream(query.seed, 0).uniform(0.0, CHIP_TIME, size=(analytic.MC_SAMPLES, 9))
        # several full blocks and a shorter tail
        assert len(blocks) > 2 and len(blocks[-1]) < len(blocks[0])
        assert np.array_equal(np.concatenate(blocks), one_shot)

    def test_benchmark_hooks_see_one_call_per_realization(self, monkeypatch):
        calls = {"bep": 0, "bep_async_exact": 0, "mai_variance_jitter": 0}
        for name in calls:
            original = getattr(analytic, name)

            def counting(*args, name=name, original=original, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(analytic, name, counting)
        draws = []
        monkeypatch.setattr(analytic, "substream", lambda *key: draws.append(key) or substream(*key))
        for n_users, expected_draws in ((3, []), (6, [(5, 0)])):
            draws.clear()
            calls.update(bep=0, bep_async_exact=0)
            average_bep(exact_ensemble(n_users, 4))
            assert (calls["bep"], calls["bep_async_exact"]) == (4, 4)
            assert draws == expected_draws
        assert calls["mai_variance_jitter"] == 0
        sga = [replace(q, mode=BepMode.ASYNC_SGA) for q in exact_ensemble(6, 4)]
        average_bep(sga)
        assert calls["mai_variance_jitter"] == 4

    def test_record_holds_queries_by_identity(self):
        q, other = exact_ensemble(6, 2)
        assert average_bep([q, q]) == (bep(q), 0.0)
        record = analytic._ExactPass([q])
        with pytest.raises(ValueError, match="holds no such query"):
            bep_async_exact(replace(q), record)
        with pytest.raises(ValueError, match="holds no such query"):
            bep(other, record)

    def test_mixed_ensembles_evaluate_each_query_alone(self):
        quad, mc = exact_ensemble(3, 1)[0], exact_ensemble(6, 1)[0]
        sga = replace(quad, mode=BepMode.ASYNC_SGA)
        for queries in ([quad, mc], [quad, sga]):
            values = [bep(q) for q in queries]
            mean, sem = average_bep(queries)
            assert mean == pytest.approx(np.mean(values), rel=1e-15)
            assert sem == pytest.approx(np.std(values, ddof=1) / math.sqrt(2), rel=1e-12)

    def test_peak_memory_does_not_grow_with_the_ensemble(self):
        peaks = []
        for n_real in (50, 200):
            queries = exact_ensemble(10, n_real)
            tracemalloc.start()
            try:
                average_bep(queries)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # both fill a block of realizations; beyond it only per-realization scalars grow
        assert peaks[1] < peaks[0] + 512 * 1024
        # a handful of block temporaries, not the one-shot draw of 100,000 x 9 jitters
        assert peaks[1] < 10 * analytic._BLOCK_ELEMENTS * 8

    def test_quadrature_pass_holds_one_grid_array_per_realization(self):
        queries = exact_ensemble(4, 3)
        grid_bytes = QUAD_NODES**3 * 8
        tracemalloc.start()
        try:
            average_bep(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the weight tensor and the one array a realization's variance, Q and weighting share
        assert 2 * grid_bytes < peak < 2.5 * grid_bytes


class TestQOfVarianceInPlace:
    """The array path of ``_q_of_variance`` overwrites its variances with ``q_function``'s bits."""

    @pytest.mark.parametrize(
        "numerator", [1.3, 0.0, -0.4, np.array([[2.0], [0.0], [-1.0]])], ids=["positive", "zero", "negative", "per-row"]
    )
    def test_matches_q_function_bit_for_bit(self, numerator):
        rng = np.random.default_rng(3)
        variance = rng.uniform(1e-6, 4.0, size=(3, 500))
        variance[:, ::7] = 0.0
        expected = q_function(numerator / np.sqrt(np.where(variance > 0.0, variance, 1.0)))
        # the zero-variance rule: 0 for a positive numerator, else 0.5
        zero_rule = np.broadcast_to(np.where(np.greater(numerator, 0), 0.0, 0.5), variance.shape)
        expected[:, ::7] = zero_rule[:, ::7]
        out = analytic._q_of_variance(numerator, variance)
        assert out is variance
        npt.assert_array_equal(out, expected)

    def test_scalar_path_agrees_with_array_path(self):
        rng = np.random.default_rng(4)
        for numerator, variance in zip(rng.normal(size=200), rng.uniform(0.0, 2.0, size=200)):
            scalar = analytic._q_of_variance(float(numerator), float(variance))
            assert analytic._q_of_variance(numerator, np.array([variance]))[0] == scalar
        for numerator, value in ((1.0, 0.0), (0.0, 0.5), (-1.0, 0.5)):
            assert analytic._q_of_variance(numerator, 0.0) == value
            assert analytic._q_of_variance(numerator, np.zeros(2)).tolist() == [value, value]
