import math
import re
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate, special

from thuwb import analytic, experiment, model
from thuwb.analytic import (
    BepMode,
    BepQuery,
    ClosedFormSweep,
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
from thuwb.channel import FIXED_CHANNEL_TAPS
from thuwb.model import CHIP_TIME, PulseShape, SystemParams, gamma_factor
from thuwb.rake import select_weights

from _oracles import (
    _conditional_bep,
    binned_sum_by_row,
    cross_correlation,
    enumerate_ifi_variance,
    enumerate_mai_variance,
    monte_carlo_bep,
    tensor_grid_bep,
)

DOUBLET = PulseShape.gaussian_doublet()
RECT = PulseShape.rectangular()
FIXED = np.array(FIXED_CHANNEL_TAPS)


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
    return BepQuery(params=params, mode=mode, taps=np.ones((params.n_users, 1)), beta=np.ones(1), pulse=pulse, **kwargs)


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


class TestQFunctionAgainstScipy:
    """``q_function``'s own erfc follows the Cephes erfc that SciPy ships, on every branch."""

    @staticmethod
    def scipy_q(x):
        return 0.5 * special.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))

    def test_matches_scipy_on_a_dense_grid_and_the_branch_edges(self):
        # erfc switches branch at |x| / sqrt(2) = 1 and 8
        edges = np.array([s * e for e in (math.sqrt(2.0), 8.0 * math.sqrt(2.0)) for s in (1.0, -1.0)])
        x = np.concatenate([np.linspace(-40.0, 40.0, 100_001), edges, *(np.nextafter(edges, to) for to in (0.0, 2.0 * edges))])
        value, reference = q_function(x), self.scipy_q(x)
        normal = reference >= np.finfo(float).tiny
        npt.assert_array_less(np.abs(value - reference)[normal], 1e-15 * reference[normal])
        # a subnormal result keeps fewer bits: there the two agree to two of its steps
        subnormal = (reference > 0.0) & ~normal
        assert subnormal.any()
        npt.assert_array_less(np.abs(value - reference)[subnormal], 2.5 * np.finfo(float).smallest_subnormal)
        npt.assert_array_equal(value[reference == 0.0], 0.0)
        # a float takes the array path's steps, to the bit
        points = np.concatenate([x[::50], x[-12:]])
        npt.assert_array_equal([q_function(float(p)) for p in points], q_function(points))

    def test_limits_nan_and_the_underflow_tail(self):
        assert (q_function(math.inf), q_function(-math.inf)) == (0.0, 1.0)
        assert math.isnan(q_function(math.nan))
        npt.assert_array_equal(q_function(np.array([-math.inf, math.inf])), [1.0, 0.0])
        assert np.isnan(q_function(np.array([1.0, math.nan, 20.0]))).tolist() == [False, True, False]
        # no overflow or underflow warning, which this suite turns into an error
        npt.assert_array_equal(q_function(np.array([38.0, 40.0, 1e300])), 0.0)
        npt.assert_array_equal(q_function(np.array([-38.0, -1e300])), 1.0)
        assert q_function(40.0) == 0.0 and q_function(1e300) == 0.0

    def test_scalars_give_floats_and_arrays_keep_their_shape(self):
        for x in (1, 1.5, np.array(1.5), np.float64(1.5)):
            assert type(q_function(x)) is float
        assert q_function(1) == q_function(1.0)
        assert q_function(np.ones((3, 500))).shape == (3, 500)
        assert q_function(np.ones(0)).shape == (0,)


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
        beta = select_weights(FIXED, "arake")
        near, far = ifi_variance_components(FIXED, beta, 5)
        assembled = near / 25 + far / 5
        oracle = enumerate_ifi_variance(FIXED, beta, 5, DOUBLET)
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

    def multipath_query(self, mode, noise, scheme="arake", fingers=None, pulse=DOUBLET):
        return BepQuery(
            params=self.fig_params(noise),
            mode=mode,
            taps=np.tile(FIXED, (10, 1)),
            beta=select_weights(FIXED, scheme, fingers),
            pulse=pulse,
        )

    def test_conditional_at_zero_matches_sync(self):
        query = self.multipath_query(BepMode.SYNC, 0.05)
        conditional = float(_conditional_bep(query, [0.0] * 9))
        assert conditional == pytest.approx(bep(query), abs=1e-12)

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
        for mode in (BepMode.SYNC, BepMode.ASYNC_SGA):
            values = []
            for e1 in e_grid:
                query = replace(self.multipath_query(mode, 0.1), params=make_params(10, 0.1, e1=e1))
                values.append(bep(query))
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_interference_worsens_single_chip_frames(self):
        # with the total gain fixed, putting every pulse in its own frame
        # maximizes the self-interference penalty
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
            query = BepQuery(params=params, mode=BepMode.SYNC, taps=np.stack([FIXED, FIXED]), beta=FIXED, pulse=DOUBLET)
            values.append(bep(query))
        assert values[0] >= values[1]

    @pytest.mark.parametrize("mode", ["sync", "async_sga", "async_exact"])
    def test_breakdown_components_nonnegative(self, mode):
        query = self.multipath_query(mode, 0.1)
        vb = variance_breakdown(query)
        sync = variance_breakdown(self.multipath_query(BepMode.SYNC, 0.1))
        # only the MAI sums depend on the mode; async_exact integrates them over the jitters
        assert (vb.signal, vb.ifi1, vb.ifi2, vb.weight_energy) == (sync.signal, sync.ifi1, sync.ifi2, sync.weight_energy)
        assert vb.signal > 0 and vb.ifi1 >= 0 and vb.ifi2 >= 0 and vb.weight_energy >= 0
        assert len(vb.mai_per_user) == (0 if mode == "async_exact" else 9)
        assert all(v >= 0 for v in vb.mai_per_user)
        if mode != "async_exact":
            assert bep(query) == q_function(vb.signal / math.sqrt(vb.variance(query.params)))
        with pytest.raises(ValueError):
            VarianceBreakdown(1.0, -1.0, 0.0, (), 0.0)
        with pytest.raises(ValueError):
            variance_breakdown(awgn_query(BepMode.AWGN_SYNC, make_params(10, 0.1)))


class TestQueryInputs:
    """A query takes its taps and weights from outside: it checks them and keeps read-only copies."""

    @pytest.mark.parametrize(
        "taps,beta,message",
        [
            (np.ones((3, 4)), np.ones(4), "taps must have shape"),
            (np.ones(4), np.ones(4), "taps must have shape"),
            (np.ones((2, 0)), np.ones(0), "taps must have shape"),
            (np.ones((2, 2, 4)), np.ones(4), "taps must have shape"),
            (np.ones((2, 4)), np.ones(3), "beta must have shape"),
            (np.ones((2, 4)), np.ones((1, 4)), "beta must have shape"),
            ([[1.0, np.nan], [1.0, 1.0]], np.ones(2), "must be finite"),
            (np.ones((2, 2)), [np.inf, 1.0], "must be finite"),
            (None, np.ones(4), "requires taps and beta"),
            (np.ones((2, 4)), None, "requires taps and beta"),
        ],
        ids=[
            "rows", "vector", "empty-rows", "3-d", "beta-length", "beta-2-d", "nan-tap", "inf-weight", "no-taps", "no-beta"
        ],
    )
    @pytest.mark.parametrize("mode", ["sync", "async_sga", "async_exact"])
    def test_bad_taps_or_beta_rejected(self, mode, taps, beta, message):
        with pytest.raises(ValueError, match=message):
            BepQuery(params=make_params(2, 0.1), mode=mode, taps=taps, beta=beta, pulse=DOUBLET)

    def test_keeps_read_only_copies(self):
        taps, beta = np.tile(FIXED, (2, 1)), FIXED.copy()
        query = BepQuery(params=make_params(2, 0.1), mode=BepMode.SYNC, taps=taps, beta=beta)
        before = bep(query)
        taps[1], beta[0] = 5.0, 0.0
        assert bep(query) == before
        for value in (query.taps, query.beta):
            with pytest.raises(ValueError):
                value[0] = 2.0


class TestStackedMai:
    """The MAI sums over stacked interferer taps equal the per-interferer calls."""

    JITTERS = np.random.default_rng(63).uniform(0.0, CHIP_TIME, size=9)

    def query(self, mode):
        rng = np.random.default_rng(61)
        taps = rng.normal(size=(10, 8))
        return BepQuery(
            params=make_params(10, 0.1), mode=mode, taps=taps, beta=select_weights(taps[0], "srake", 3), pulse=DOUBLET
        )

    @pytest.mark.parametrize("mode", ["sync", "async_sga", "async_conditional"])
    def test_breakdown_matches_per_interferer_calls(self, mode):
        # async_conditional: one stacked mai_variance_jitter call, every
        # interferer at its own jitter
        query = self.query("async_exact" if mode == "async_conditional" else mode)
        beta = query.beta
        expected = []
        for k, alpha in enumerate(query.taps[1:]):
            if mode == "sync":
                expected.append(mai_variance_sync(alpha, beta))
            elif mode == "async_sga":
                expected.append(mai_variance_async(alpha, beta, DOUBLET))
            else:
                expected.append(mai_variance_jitter(alpha, beta, self.JITTERS[k], DOUBLET))
        if mode == "async_conditional":
            mai = tuple(map(float, mai_variance_jitter(query.taps[1:], beta, self.JITTERS, DOUBLET)))
        else:
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
        alpha = FIXED
        assert np.ndim(mai_variance_sync(alpha, alpha)) == 0
        assert np.ndim(mai_variance_async(alpha, alpha, DOUBLET)) == 0

    def test_no_interferers(self):
        query = self.query("async_sga")
        single = replace(query, params=make_params(1, 0.1), taps=query.taps[:1])
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
        params = make_params(2, 0.05)
        taps = np.stack([FIXED, FIXED])
        query = BepQuery(params=params, mode=BepMode.ASYNC_EXACT, taps=taps, beta=FIXED, pulse=DOUBLET)
        value, err = bep_async_exact(query)
        assert err == 0.0
        reference, _ = integrate.quad(lambda eps: float(_conditional_bep(query, [eps])), 0.0, 1.0, limit=200)
        assert value == pytest.approx(reference, abs=1e-8)


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
            realizations.append(np.stack([gen_lognormal_channel(fading, rng) for _ in range(10)]))
        means = []
        for ebno_db in (6.0, 10.0, 14.0, 18.0):
            noise = 1.0 * 10.0 ** (-ebno_db / 10.0) / 2.0
            params = make_params(10, noise, e1=1.0)
            queries = [
                BepQuery(
                    params=params,
                    mode=BepMode.ASYNC_SGA,
                    taps=taps,
                    beta=select_weights(taps[0], "arake"),
                    pulse=DOUBLET,
                )
                for taps in realizations
            ]
            means.append(average_bep(queries)[0])
        assert all(a > b for a, b in zip(means, means[1:]))


def exact_ensemble(n_users, n_real, pulse=DOUBLET, scheme="srake", seed=5, noise=0.05, n_taps=8, **settings):
    """``n_real`` async_exact queries on random ``n_taps``-tap channels."""
    rng = np.random.default_rng(seed)
    params = make_params(n_users, noise, **settings)
    queries = []
    for _ in range(n_real):
        taps = np.stack([rng.normal(size=n_taps) for _ in range(n_users)])
        beta = select_weights(taps[0], scheme, 3 if scheme == "srake" else None)
        queries.append(BepQuery(params=params, mode=BepMode.ASYNC_EXACT, taps=taps, beta=beta, pulse=pulse))
    return queries


def fine_bins(monkeypatch, query, bins=(16384, 32768)):
    """``bep_async_exact`` of ``query`` extrapolated from finer bins."""
    with monkeypatch.context() as m:
        m.setattr(analytic, "_BINS", bins)
        return bep_async_exact(query)


class TestExactPass:
    """The node sum for one interferer, the binned convolution for more; an ensemble runs block by block."""

    @pytest.mark.parametrize("scheme", ["srake", "arake"])
    @pytest.mark.parametrize("pulse", [DOUBLET, RECT], ids=["doublet", "rect"])
    @pytest.mark.parametrize("n_users", [5, 7, 10])
    def test_monte_carlo_matches_per_realization_code(self, n_users, pulse, scheme):
        for q in exact_ensemble(n_users, 3, pulse, scheme):
            value, error = bep_async_exact(q)
            mc, se = monte_carlo_bep(q, 100_000, seed=n_users)
            assert 0.0 < error < 4.0 * se
            assert abs(value - mc) <= 4.0 * se

    @pytest.mark.parametrize("n_users", [1, 2, 3, 4])
    def test_quadrature_is_unchanged(self, n_users):
        # no interferer or one: the node sum, bit for bit; more: within the reported error
        for q in exact_ensemble(n_users, 3, RECT if n_users == 3 else DOUBLET):
            value, error = bep_async_exact(q)
            reference = tensor_grid_bep(q)
            if n_users <= 2:
                assert (value, error) == (reference, 0.0)
            else:
                assert abs(value - reference) <= error

    @pytest.mark.parametrize("ebno_db", [4.0, 12.0, 20.0])
    @pytest.mark.parametrize("scheme", ["srake", "arake"])
    @pytest.mark.parametrize("pulse", [DOUBLET, RECT], ids=["doublet", "rect"])
    @pytest.mark.parametrize("n_users", [2, 3, 4])
    def test_error_bound_against_the_tensor_grid(self, n_users, pulse, scheme, ebno_db):
        noise = 0.5 * 10.0 ** (-ebno_db / 10.0) / 2.0
        for q in exact_ensemble(n_users, 2, pulse, scheme, seed=int(ebno_db), noise=noise):
            value, error = bep_async_exact(q)
            actual = abs(value - tensor_grid_bep(q))
            assert actual <= 2e-5 * value
            assert actual <= error

    def test_error_estimate_on_a_lognormal_ensemble(self, monkeypatch, tmp_path):
        # 20 realizations of 4 users on a 20-tap lognormal channel, srake-3,
        # Eb/N0 16 dB: on one of them the extrapolated value is 0.497 |f2 - f1|
        # from the grid, so a third of that difference would not bound it
        spec = experiment.parse_spec(
            {
                "n_users": 4, "scheme": "srake", "fingers": 3, "channel": {"source": "lognormal", "n_taps": 20},
                "ebno_db": 16, "sweep": {"variable": "n_users", "values": [4]}, "analytic_modes": ["async_exact"],
                "analytic_realizations": 20, "simulate": False, "seed": 1, "output_path": str(tmp_path / "run.csv"),
            }
        )
        params, fingers = experiment._point_settings(spec, 4)
        extrapolated = finest = 0.0
        for taps in experiment._analytic_ensemble(spec):
            query = experiment._analytic_query(spec, params, fingers, BepMode.ASYNC_EXACT, taps)
            value, error = bep_async_exact(query)
            grid = tensor_grid_bep(query)
            assert abs(value - grid) <= error
            extrapolated += abs(value - grid)
            finest += abs(fine_bins(monkeypatch, query, bins=(2048, 2048))[0] - grid)
        # the extrapolation, not the finer of its two bin counts, is what is returned
        assert extrapolated < 0.5 * finest

    def test_standard_error_at_small_bep(self, monkeypatch):
        # a strong desired user over a long frame: the BEP is near 1e-12, and
        # the reported error still bounds the distance to finer bins
        (query,) = exact_ensemble(6, 1, scheme="arake", noise=0.002, e1=4.0, n_frames=26)
        value, error = bep_async_exact(query)
        reference, _ = fine_bins(monkeypatch, query)
        assert 1e-13 < value < 1e-11
        assert abs(value - reference) <= min(error, 2e-5 * value)

    @pytest.mark.parametrize("n_users", [10, 40])
    def test_many_users_agree_with_finer_bins(self, monkeypatch, n_users):
        for q in exact_ensemble(n_users, 2, n_taps=20):
            value, error = bep_async_exact(q)
            reference, reference_error = fine_bins(monkeypatch, q)
            assert reference_error < error
            assert abs(value - reference) <= error

    def test_realization_is_the_same_alone_and_in_an_ensemble(self, monkeypatch):
        # 25 realizations of 4 users are three blocks of at most 10
        queries = exact_ensemble(4, 25)
        alone = [bep_async_exact(q) for q in queries]
        seen = []
        original = analytic.bep_async_exact
        monkeypatch.setattr(analytic, "bep_async_exact", lambda q: seen.append(original(q)) or seen[-1])
        mean, sem = average_bep(queries)
        assert [len(values) for values, _ in seen] == [10, 10, 5]
        assert [pair for values, errors in seen for pair in zip(values.tolist(), errors.tolist())] == alone
        assert mean == np.mean([value for value, _ in alone])
        assert average_bep([queries[0], queries[0]]) == (bep(queries[0]), 0.0)

    def test_silent_interferers_give_one_atom_at_the_floor(self):
        (query,) = exact_ensemble(4, 1)
        query = replace(query, taps=np.vstack([query.taps[:1], np.zeros((3, 8))]))
        assert bep_async_exact(query) == (bep(replace(query, mode=BepMode.SYNC)), 0.0)

    def test_negative_terms_count_as_zero(self, monkeypatch):
        # a rounding-negative MAI term, and one below minus a bin width, must
        # neither index bin -1 nor carry negative mass
        (query,) = exact_ensemble(4, 1)
        query = replace(query, taps=np.vstack([query.taps[:3], np.zeros((1, 8))]))
        original = analytic.mai_variance_jitter

        def silent_row_at(value):
            def form(*args):
                out = original(*args)
                out[-1, ::2] = value
                return out

            return form

        results = []
        for value in (-1e-18, -1.0, 0.0):
            monkeypatch.setattr(analytic, "mai_variance_jitter", silent_row_at(value))
            results.append(bep_async_exact(query))
        assert results[0] == results[1] == results[2]

    def test_benchmark_hooks_see_one_call_per_block(self, monkeypatch):
        # bench/run.py times bep once per alike sync or async_sga ensemble, once
        # per block of an alike async_exact one and once per query of any other
        # list, bep_async_exact once per block, and needs mai_variance_jitter on async_sga
        calls = {"bep": 0, "bep_async_exact": 0, "mai_variance_jitter": 0}
        for name in calls:
            original = getattr(analytic, name)

            def counting(*args, name=name, original=original, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(analytic, name, counting)
        # 8 realizations of 6 users are two blocks of at most 6
        exact = exact_ensemble(6, 8)
        sga = [replace(q, mode=BepMode.ASYNC_SGA) for q in exact]
        sync = [replace(q, mode=BepMode.SYNC) for q in exact]
        draws = []
        monkeypatch.setattr(model, "substream", lambda *key: draws.append(key))
        monkeypatch.setattr(np.random, "default_rng", lambda *seed: draws.append(seed))
        for queries, expected in (
            # async_exact is stacked a block at a time: one bep call, and one jitter call, per block
            (exact, {"bep": 2, "bep_async_exact": 2, "mai_variance_jitter": 2}),
            (sga, {"bep": 1, "bep_async_exact": 0, "mai_variance_jitter": 1}),
            # a mixed list is evaluated query by query
            (sync + sga + sga[:2], {"bep": 18, "bep_async_exact": 0, "mai_variance_jitter": 10}),
        ):
            calls.update(dict.fromkeys(calls, 0))
            average_bep(queries)
            assert calls == expected
        assert draws == []

    def test_mixed_ensembles_evaluate_each_query_alone(self):
        quad, conv = exact_ensemble(2, 1)[0], exact_ensemble(6, 1)[0]
        sga = replace(quad, mode=BepMode.ASYNC_SGA)
        for queries in ([quad, conv], [quad, sga]):
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
        # beyond one realization's arrays only the per-realization values grow
        assert peaks[1] < peaks[0] + 16 * 1024
        # a few bin-length arrays, not a grid or a sample of jitters
        assert peaks[1] < 16 * analytic._BINS[-1] * 8

    def test_stacked_query_holds_one_realization_s_lattices_at_a_time(self):
        peaks = []
        for n_real in (50, 200):
            query = stack(exact_ensemble(10, n_real))
            tracemalloc.start()
            try:
                bep(query)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # each realization's lattices are dropped before the next one's are made
        assert peaks[1] < peaks[0] + 16 * 1024
        assert peaks[1] < 16 * analytic._BINS[-1] * 8

    def test_peak_memory_is_bounded_in_the_number_of_users(self):
        # at 40 users a block is one realization, whose 39 x QUAD_NODES node
        # terms stay within the same bounds as the 10-user ensemble's
        peaks = []
        for n_real in (50, 200):
            query = stack(exact_ensemble(40, n_real))
            tracemalloc.start()
            try:
                bep(query)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 16 * 1024
        assert peaks[1] < 16 * analytic._BINS[-1] * 8


def stack(queries):
    """One query holding every realization of ``queries`` along a leading axis."""
    return replace(queries[0], taps=np.stack([q.taps for q in queries]), beta=np.stack([q.beta for q in queries]))


class TestExactBlocks:
    """An ``async_exact`` ensemble runs in blocks, and every value and error is its realization's own, bit for bit."""

    @staticmethod
    def ensemble(n_users, n_real):
        queries = exact_ensemble(n_users, n_real, seed=n_users)
        # inside the first block: a silent last interferer, then every interferer silent
        for r, silent in ((1, slice(-1, None)), (2, slice(1, None))):
            if r < n_real:
                taps = queries[r].taps.copy()
                taps[silent] = 0.0
                queries[r] = replace(queries[r], taps=taps)
        return queries

    @staticmethod
    def rounding_negative(monkeypatch):
        """Turn a silent interferer's exact zeros rounding-negative, alike in one realization's call and in a block's."""
        original = analytic.mai_variance_jitter

        def form(*args):
            out = original(*args)
            out[out == 0.0] = -1e-18
            return out

        monkeypatch.setattr(analytic, "mai_variance_jitter", form)

    @pytest.mark.parametrize("negative", [False, True], ids=["silent", "rounding-negative"])
    @pytest.mark.parametrize("n_users", [2, 3, 4, 10, 40])
    def test_every_path_gives_each_realization_s_own_bits(self, monkeypatch, n_users, negative):
        if negative:
            self.rounding_negative(monkeypatch)
        size = analytic._block_size(n_users)
        for n_real in sorted({1, size - 1, size, size + 1, 2 * size + 1} - {0}):
            queries = self.ensemble(n_users, n_real)
            alone = np.array([bep_async_exact(q) for q in queries])
            values, errors = bep_async_exact(stack(queries))
            assert values.tobytes() == alone[:, 0].tobytes() and errors.tobytes() == alone[:, 1].tobytes()
            assert bep(stack(queries)).tobytes() == alone[:, 0].tobytes()
            mean = float(alone[:, 0].mean())
            se = float(alone[:, 0].std(ddof=1) / math.sqrt(n_real)) if n_real > 1 else 0.0
            assert average_bep(queries) == (mean, se)

    @pytest.mark.parametrize("n_users", [2, 4])
    def test_rounding_negative_terms_count_as_zero_inside_a_block(self, monkeypatch, n_users):
        queries = self.ensemble(n_users, 10)
        silent = bep_async_exact(stack(queries))
        # the realization with every interferer silent is one atom at the floor
        assert (silent[0][2], silent[1][2]) == (bep(replace(queries[2], mode=BepMode.SYNC)), 0.0)
        self.rounding_negative(monkeypatch)
        negative = bep_async_exact(stack(queries))
        assert [a.tobytes() for a in negative] == [a.tobytes() for a in silent]

    def test_a_block_of_silent_single_interferers_is_the_floor_atoms(self):
        # not the node sum of a constant, which misses Q(floor) in its last bit for about 4 floors in 10
        queries = [replace(q, taps=q.taps * [[1.0], [0.0]]) for q in exact_ensemble(2, 20)]
        values, errors = bep_async_exact(stack(queries))
        assert values.tolist() == [bep(replace(q, mode=BepMode.SYNC)) for q in queries]
        assert not errors.any()

    @pytest.mark.parametrize("n_rows", [2, 3, 10, 39])
    def test_binned_sum_equals_the_row_by_row_bins(self, n_rows):
        rng = np.random.default_rng(n_rows)
        _, w = model.jitter_nodes()
        g = rng.exponential(size=(n_rows, model.QUAD_NODES))
        g[0] = 0.0  # a silent row has one atom at 0
        g[-1, ::3] = 0.0
        for bins in analytic._BINS:
            h, pmf = analytic._binned_sum(g, w, bins)
            h_row, pmf_row = binned_sum_by_row(g, w, bins)
            assert h == h_row and pmf.tobytes() == pmf_row.tobytes()


class TestStackedQuery:
    """A stacked query evaluates every realization at once, and each value is that realization's own, bit for bit."""

    @staticmethod
    def ensemble(mode, n_taps, scheme="srake", pulse=DOUBLET, n_users=4, n_real=50, seed=7, noise=0.05):
        rng = np.random.default_rng(seed)
        params = make_params(n_users, noise)
        queries = []
        for _ in range(n_real):
            taps = rng.normal(size=(n_users, n_taps))
            beta = select_weights(taps[0], scheme, min(3, n_taps) if scheme == "srake" else None)
            queries.append(BepQuery(params=params, mode=mode, taps=taps, beta=beta, pulse=pulse))
        return queries

    # 12 paths outlast the 5-chip frame, so the deeper IFI sum is not empty
    @pytest.mark.parametrize("pulse", [DOUBLET, RECT], ids=["doublet", "rect"])
    @pytest.mark.parametrize("scheme", ["arake", "srake", "egc"])
    @pytest.mark.parametrize("n_taps", [1, 4, 12])
    @pytest.mark.parametrize("mode", ["sync", "async_sga", "async_exact"])
    def test_each_value_is_its_realizations_own(self, mode, n_taps, scheme, pulse):
        queries = self.ensemble(mode, n_taps, scheme, pulse)
        values = bep(stack(queries))
        assert isinstance(values, np.ndarray) and values.shape == (50,)
        alone = np.array([bep(q) for q in queries])
        assert all(type(bep(q)) is float for q in queries[:2])
        assert values.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("mode", ["sync", "async_sga", "async_exact"])
    def test_breakdown_rows_are_the_realizations_own(self, mode):
        queries = self.ensemble(mode, 12, n_users=6)
        vb = variance_breakdown(stack(queries))
        assert vb.mai_per_user.shape == (50, 0 if mode == "async_exact" else 5)
        variance = vb.variance(queries[0].params)
        for r, q in enumerate(queries):
            alone = variance_breakdown(q)
            row = (vb.signal[r], vb.ifi1[r], vb.ifi2[r], tuple(vb.mai_per_user[r].tolist()), vb.weight_energy[r])
            assert row == (alone.signal, alone.ifi1, alone.ifi2, alone.mai_per_user, alone.weight_energy)
            assert variance[r] == alone.variance(q.params)

    def test_one_realization_stacked_is_the_query_itself(self):
        for mode in analytic.MULTIPATH_MODES:
            (query,) = self.ensemble(mode, 12, n_real=1)
            assert bep(stack([query])).tolist() == [bep(query)]

    def test_ensemble_with_no_interferers(self):
        queries = self.ensemble("async_sga", 4, n_users=1, n_real=3)
        assert variance_breakdown(stack(queries)).mai_per_user.shape == (3, 0)
        assert bep(stack(queries)).tolist() == [bep(q) for q in queries]

    @pytest.mark.parametrize(
        "taps,beta,message",
        [
            (np.ones((0, 2, 4)), np.ones((0, 4)), "taps must have shape (R, n_users, L) with R >= 1 and n_users = 2, got (0, 2, 4)"),
            (np.ones((3, 3, 4)), np.ones((3, 4)), "taps must have shape (R, n_users, L) with R >= 1 and n_users = 2, got (3, 3, 4)"),
            (np.ones((3, 2, 0)), np.ones((3, 0)), "taps must have shape (R, n_users, L) with R >= 1 and n_users = 2, got (3, 2, 0)"),
            (np.ones((3, 2, 4)), np.ones((2, 4)), "beta must have shape (R, L) with R = 3 and L = 4, got (2, 4)"),
            (np.ones((3, 2, 4)), np.ones((3, 5)), "beta must have shape (R, L) with R = 3 and L = 4, got (3, 5)"),
            (np.ones((3, 2, 4)) * [[[1.0]], [[np.nan]], [[1.0]]], np.ones((3, 4)), "taps and beta must be finite: realization 1 is not"),
            (np.ones((3, 2, 4)), np.ones((3, 4)) * [[1.0], [1.0], [np.inf]], "taps and beta must be finite: realization 2 is not"),
        ],
        ids=["no-realization", "users", "no-paths", "beta-realizations", "beta-length", "nan-tap", "inf-weight"],
    )
    @pytest.mark.parametrize("mode", ["sync", "async_sga", "async_exact"])
    def test_bad_stacked_taps_or_beta_rejected(self, mode, taps, beta, message):
        with pytest.raises(ValueError) as raised:
            BepQuery(params=make_params(2, 0.1), mode=mode, taps=taps, beta=beta, pulse=DOUBLET)
        assert str(raised.value) == message

    def test_bep_async_exact_takes_a_stacked_query(self):
        queries = exact_ensemble(3, 2)
        values, errors = bep_async_exact(stack(queries))
        alone = [bep_async_exact(q) for q in queries]
        assert all(type(v) is float and type(e) is float for v, e in alone)
        assert list(zip(values.tolist(), errors.tolist())) == alone

    def test_mixed_list_averages_query_by_query(self, monkeypatch):
        sync = self.ensemble("sync", 12)[:5]
        louder = [replace(q, params=make_params(4, 0.2)) for q in sync[:3]]
        sga = self.ensemble("async_sga", 12, n_real=4)
        exact = self.ensemble("async_exact", 12, n_real=2)
        awgn = awgn_query(BepMode.AWGN_ASYNC, make_params(4, 0.05))
        mixed = sync + louder + sync[:2] + [awgn, awgn] + exact + sga + [sync[0]]
        calls = []
        monkeypatch.setattr(analytic, "bep", lambda q, sweep: calls.append(q) or bep(q, sweep))
        # a list that is not one alike multipath ensemble takes one bep call per query
        for queries in (mixed, sync + louder, exact + [replace(exact[0], params=make_params(4, 0.2))], [awgn, awgn, awgn]):
            values = np.array([bep(q) for q in queries])
            calls.clear()
            mean, se = average_bep(queries)
            assert len(calls) == len(queries) and all(c is q for c, q in zip(calls, queries))
            assert (mean, se) == (float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size)))
        # an alike async_exact list takes one stacked bep call per block
        values = np.array([bep(q) for q in exact])
        calls.clear()
        assert average_bep(exact) == (float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size)))
        assert [c.taps.shape for c in calls] == [(2, 4, 12)]

    @pytest.mark.parametrize("mode", ["sync", "async_sga"])
    def test_temporaries_stay_within_the_ensemble_count(self, mode):
        # the ensemble cap counts R x n_users x max(L, QUAD_NODES) entries; the
        # stacked evaluation holds a few float arrays of that size at a time
        # (async_sga peaks near 2.85 of them, in its jitter form, which sums its
        # three terms in place; sync near 1.9)
        n_real, n_users, n_taps = 400, 10, 20
        queries = self.ensemble(mode, n_taps, n_users=n_users, n_real=n_real)
        tracemalloc.start()
        try:
            average_bep(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = n_real * n_users * max(n_taps, model.QUAD_NODES)
        assert peak < 3 * 8 * entries


def noise_levels(queries, levels):
    """``queries`` at each noise density of ``levels``, one list per level."""
    return [[replace(q, params=replace(q.params, noise_psd=level)) for q in queries] for level in levels]


class TestClosedFormSweep:
    """One variance breakdown per ensemble: every later noise level only adds its noise and takes Q, bit for bit."""

    LEVELS = (0.2, 0.05, 0.0, 0.01)

    @staticmethod
    def ensemble(mode, n_users=4, n_real=6):
        return [replace(q, mode=mode) for q in exact_ensemble(n_users, n_real)]

    @pytest.mark.parametrize("n_users", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["sync", "async_sga"])
    def test_values_equal_the_unshared_ones_bit_for_bit(self, mode, n_users):
        levels = noise_levels(self.ensemble(mode, n_users), self.LEVELS)
        sweep = ClosedFormSweep(stack(levels[0]).taps)
        for queries in levels:
            assert average_bep(queries, sweep) == average_bep(queries)
            alone = np.array([bep(q) for q in queries])
            assert bep(stack(queries), sweep).tobytes() == alone.tobytes()

    def test_breakdown_does_not_depend_on_the_noise_level(self):
        quiet, loud = noise_levels(self.ensemble("async_sga"), (0.0, 0.3))
        for a, b in zip([stack(quiet)] + quiet, [stack(loud)] + loud):
            x, y = variance_breakdown(a), variance_breakdown(b)
            assert [np.asarray(getattr(x, f)).tobytes() for f in VarianceBreakdown.__dataclass_fields__] == [
                np.asarray(getattr(y, f)).tobytes() for f in VarianceBreakdown.__dataclass_fields__
            ]

    def test_noise_free_part_runs_once(self, monkeypatch):
        calls = dict.fromkeys(["mai_variance_sync", "mai_variance_async", "mai_variance_jitter"], 0)
        for name in calls:
            original = getattr(analytic, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(analytic, name, counting)
        for mode, expected in (
            ("sync", {"mai_variance_sync": 1}),
            ("async_sga", {"mai_variance_async": 1, "mai_variance_jitter": 1}),
        ):
            calls.update(dict.fromkeys(calls, 0))
            levels = noise_levels(self.ensemble(mode), self.LEVELS)
            sweep = ClosedFormSweep(stack(levels[0]).taps)
            for queries in levels:
                average_bep(queries, sweep)
            assert calls == {**dict.fromkeys(calls, 0), **expected}

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda q, r: replace(q, mode=BepMode.SYNC), "the sweep holds mode async_sga, not sync"),
            (lambda q, r: replace(q, pulse=RECT), "the sweep holds pulse"),
            (lambda q, r: replace(q, params=make_params(4, 0.05, n_frames=16)), "the sweep holds n_frames 15, not 16"),
            (
                lambda q, r: replace(q, params=make_params(4, 0.05, e_int=2.0)),
                "the sweep holds bit_energy (0.5, 1.0, 1.0, 1.0), not (0.5, 2.0, 2.0, 2.0)",
            ),
            (
                lambda q, r: replace(q, taps=q.taps[:, :7], beta=q.beta[:7]),
                "the sweep holds taps of shape (6, 4, 8), not (6, 4, 7)",
            ),
        ],
        ids=["mode", "pulse", "n_frames", "energy", "shape"],
    )
    def test_a_query_that_differs_beyond_the_noise_level_is_refused(self, change, message):
        first, later = noise_levels(self.ensemble("async_sga"), (0.1, 0.05))
        sweep = ClosedFormSweep(stack(first).taps)
        average_bep(first, sweep)
        key, breakdown = dict(sweep.key), sweep.breakdown
        changed = [change(q, r) for r, q in enumerate(later)]
        with pytest.raises(ValueError) as raised:
            average_bep(changed, sweep)
        assert message in str(raised.value)
        # the refusal leaves the record as it was, and it still serves its own ensemble bit for bit
        assert sweep.key == key and sweep.breakdown is breakdown
        assert average_bep(later, sweep) == average_bep(later)
        assert bep(stack(later), sweep).tobytes() == bep(stack(later)).tobytes()

    def test_one_refusal_names_every_entry_that_differs(self):
        first, later = noise_levels(self.ensemble("async_sga"), (0.1, 0.05))
        sweep = ClosedFormSweep(stack(first).taps)
        average_bep(first, sweep)
        changed = [replace(q, pulse=RECT, params=make_params(4, 0.05, n_frames=16)) for q in later]
        with pytest.raises(ValueError, match=r"^the sweep holds pulse .*; n_frames 15, not 16$"):
            average_bep(changed, sweep)

    def test_only_one_alike_multipath_ensemble_is_shared(self):
        queries = self.ensemble("sync")
        awgn = awgn_query(BepMode.AWGN_SYNC, make_params(4, 0.05))
        exact = self.ensemble("async_exact")
        # average_bep hands the sweep to bep, which refuses any query but a stacked
        # sync or async_sga one: an async_exact list is refused on its first block
        for bad in ([awgn, awgn], queries[:2] + [replace(queries[2], params=make_params(4, 0.1))], exact):
            sweep = ClosedFormSweep(stack(queries).taps)
            with pytest.raises(ValueError, match="takes stacked sync or async_sga queries"):
                average_bep(bad, sweep)
            assert sweep.key is None and sweep.breakdown is None
        for bad in (queries[0], awgn, stack(exact)):
            with pytest.raises(ValueError, match="takes stacked sync or async_sga queries"):
                bep(bad, ClosedFormSweep(stack(queries).taps))

    def test_the_first_query_must_carry_the_sweep_s_taps(self):
        queries = self.ensemble("sync")
        taps = stack(queries).taps
        moved = taps.copy()
        moved[3, 1, 2] = np.nextafter(moved[3, 1, 2], np.inf)
        for held, message in ((moved, "taps of realization 3 differ"), (taps[:, :, :7], "taps of shape (6, 4, 7)")):
            refused = ClosedFormSweep(held)
            with pytest.raises(ValueError, match=re.escape(message)):
                average_bep(queries, refused)
            # a refused first query leaves the record empty
            assert refused.key is None and refused.breakdown is None
        sweep = ClosedFormSweep(taps)
        assert average_bep(queries, sweep) == average_bep(queries)
        assert sweep.key["mode"] == "sync" and sweep.key["beta"] == stack(queries).beta.tobytes()

    @pytest.mark.parametrize("mode", ["sync", "async_sga"])
    def test_a_later_query_on_other_weights_or_another_ensemble_is_refused(self, mode):
        first, later = noise_levels(self.ensemble(mode), (0.1, 0.05))
        sweep = ClosedFormSweep(stack(first).taps)
        average_bep(first, sweep)
        key, breakdown = dict(sweep.key), sweep.breakdown
        # srake with 2 fingers after 3 on the same ensemble, and another ensemble of the same shape
        two_fingers = [replace(q, beta=select_weights(q.taps[0], "srake", 2)) for q in later]
        other = noise_levels([replace(q, mode=mode) for q in exact_ensemble(4, 6, seed=6)], (0.05,))[0]
        assert stack(other).taps.shape == sweep.taps.shape
        for bad, message in ((two_fingers, "the sweep holds another beta"), (other, "taps of realization 0 differ")):
            for evaluate in (lambda: average_bep(bad, sweep), lambda: bep(stack(bad), sweep)):
                with pytest.raises(ValueError, match=re.escape(message)):
                    evaluate()
                # the refusal leaves the record as it was
                assert sweep.key == key and sweep.breakdown is breakdown
        # and it still serves its own ensemble bit for bit
        assert average_bep(later, sweep) == average_bep(later)
        assert bep(stack(later), sweep).tobytes() == bep(stack(later)).tobytes()


class TestQOfVariance:
    """The array path of ``_q_of_variance`` gives ``q_function``'s bits and leaves its variances alone."""

    @pytest.mark.parametrize("numerator", [1.3, 0.0, -0.4], ids=["positive", "zero", "negative"])
    def test_matches_q_function_bit_for_bit(self, numerator):
        rng = np.random.default_rng(3)
        variance = rng.uniform(1e-6, 4.0, size=(3, 500))
        variance[:, ::7] = 0.0
        before = variance.copy()
        expected = q_function(numerator / np.sqrt(np.where(variance > 0.0, variance, 1.0)))
        # the zero-variance rule: 0 for a positive numerator, else 0.5
        expected[:, ::7] = 0.0 if numerator > 0 else 0.5
        out = analytic._q_of_variance(numerator, variance)
        npt.assert_array_equal(variance, before)
        npt.assert_array_equal(out, expected)

    def test_scalar_path_agrees_with_array_path(self):
        rng = np.random.default_rng(4)
        for numerator, variance in zip(rng.normal(size=200), rng.uniform(0.0, 2.0, size=200)):
            scalar = analytic._q_of_variance(float(numerator), float(variance))
            assert analytic._q_of_variance(numerator, np.array([variance]))[0] == scalar
        for numerator, value in ((1.0, 0.0), (0.0, 0.5), (-1.0, 0.5)):
            assert analytic._q_of_variance(numerator, 0.0) == value
            assert analytic._q_of_variance(numerator, np.zeros(2)).tolist() == [value, value]
