import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate, stats

from thuwb.analytic import mai_variance_jitter
from thuwb.model import (
    CHIP_TIME,
    QUAD_NODES,
    PulseShape,
    SystemParams,
    gamma_factor,
    gen_bits,
    gen_polarity_codes,
    gen_th_codes,
    jitter_nodes,
    substream,
)
from thuwb.rake import cross_correlation_table

from _oracles import waveform_cross_correlation


def make_params(n_users=1, n_frames=10, n_chips=4, noise=0.0):
    return SystemParams(
        n_users=n_users,
        n_frames=n_frames,
        n_chips_per_frame=n_chips,
        bit_energy=1.0,
        noise_psd=noise,
    )


class TestSystemParams:
    def test_derived_quantities(self):
        p = SystemParams(n_users=3, n_frames=15, n_chips_per_frame=5, bit_energy=(0.5, 1, 1), noise_psd=0.1)
        assert p.processing_gain == 75
        assert p.bit_energy == (0.5, 1.0, 1.0)
        assert p.interferer_energies == (1.0, 1.0)

    def test_scalar_energy_broadcast(self):
        p = SystemParams(n_users=4, n_frames=2, n_chips_per_frame=3, bit_energy=2.0, noise_psd=0.0)
        assert p.bit_energy == (2.0, 2.0, 2.0, 2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_users=0),
            dict(n_frames=0),
            dict(n_chips_per_frame=0),
            dict(noise_psd=-1.0),
            dict(bit_energy=(1.0, -1.0, 1.0)),
            dict(bit_energy=(1.0, 1.0)),
            dict(noise_psd=math.nan),
            dict(noise_psd=math.inf),
            dict(bit_energy=(1.0, math.nan, 1.0)),
            dict(bit_energy=math.inf),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = dict(n_users=3, n_frames=2, n_chips_per_frame=3, bit_energy=1.0, noise_psd=0.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SystemParams(**base)


class TestPulseShape:
    @pytest.mark.parametrize("pulse", [PulseShape.gaussian_doublet(), PulseShape.rectangular()])
    def test_peak_is_one(self, pulse):
        assert pulse.autocorrelation(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_rectangular_half_chip_matches_overlap_integral(self):
        pulse = PulseShape.rectangular()
        numeric = waveform_cross_correlation([1.0], [1.0], pulse, 0.5)
        assert numeric == pytest.approx(0.5, abs=1e-12)
        assert pulse.autocorrelation(0.5) == pytest.approx(numeric, abs=1e-12)

    def test_doublet_at_width_offset(self):
        # closed value at an offset of one width parameter, cross-checked by
        # numerically integrating the waveform overlap
        pulse = PulseShape.gaussian_doublet()
        u = 1.0  # offset / shape_param with offset = chip_time / 2.5
        expected = (1 - 4 * math.pi + 4 * math.pi**2 / 3) * math.exp(-math.pi)
        assert expected == pytest.approx(0.0689, abs=1e-4)
        value = pulse.autocorrelation(0.4)
        assert value == pytest.approx(expected, abs=2e-6)
        numeric = waveform_cross_correlation([1.0], [1.0], pulse, 0.4)
        assert value == pytest.approx(numeric, abs=1e-5)

    @pytest.mark.parametrize("pulse", [PulseShape.gaussian_doublet(), PulseShape.rectangular()])
    def test_even_and_bounded(self, pulse):
        x = np.random.default_rng(3).uniform(-2.5, 2.5, size=1000)
        r_pos = pulse.autocorrelation(x)
        r_neg = pulse.autocorrelation(-x)
        npt.assert_allclose(r_pos, r_neg, atol=1e-12)
        assert np.all(np.abs(r_pos) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("pulse", [PulseShape.gaussian_doublet(), PulseShape.rectangular()])
    def test_truncated_beyond_one_chip(self, pulse):
        x = np.concatenate([np.linspace(1.0, 5.0, 101), -np.linspace(1.0, 5.0, 101)])
        npt.assert_array_equal(pulse.autocorrelation(x), 0.0)

    @pytest.mark.parametrize("pulse", [PulseShape.gaussian_doublet(), PulseShape.rectangular()])
    def test_scalar_equals_array_entry_bit_for_bit(self, pulse):
        # numpy's scalar exp can round differently from its array loop; a
        # scalar offset must give the same bits as inside an array
        x = np.random.default_rng(17).uniform(-1.5, 1.5, size=10_000)
        scalars = [pulse.autocorrelation(float(v)) for v in x]
        assert all(type(value) is float for value in scalars)
        assert np.array(scalars).tobytes() == pulse.autocorrelation(x).tobytes()

    @pytest.mark.parametrize("pulse", [PulseShape.gaussian_doublet(), PulseShape.rectangular()])
    def test_waveform_scalar_equals_array_entry_bit_for_bit(self, pulse):
        t = np.random.default_rng(19).uniform(-1.5, 1.5, size=10_000)
        scalars = [pulse.waveform(float(v)) for v in t]
        assert all(type(value) is float for value in scalars)
        assert np.array(scalars).tobytes() == pulse.waveform(t).tobytes()

    def test_unit_energy_by_trapezoid(self):
        doublet = PulseShape.gaussian_doublet()
        t = np.linspace(-1.0, 1.0, 10_000)
        energy = np.trapezoid(doublet.waveform(t) ** 2, t)
        assert energy == pytest.approx(1.0, abs=1e-6)
        rect = PulseShape.rectangular()
        t = np.linspace(-0.5, 0.5, 10_000)
        energy = np.trapezoid(rect.waveform(t) ** 2, t)
        assert energy == pytest.approx(1.0, abs=1e-6)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            PulseShape("triangle")
        with pytest.raises(ValueError):
            PulseShape.gaussian_doublet(shape_param=-0.1)
        with pytest.raises(ValueError):
            # too wide to be negligible beyond one chip
            PulseShape.gaussian_doublet(shape_param=1.0)
        for narrow in (1e-77, 8e-78):
            # the chip-edge value is NaN or overflows
            with pytest.raises(ValueError, match="shape_param"):
                PulseShape.gaussian_doublet(shape_param=narrow)
        with pytest.raises(ValueError):
            PulseShape(
                "rectangular", shape_param=0.3
            )


class TestHopCodes:
    def test_single_position_alphabet_is_all_zero(self):
        p = make_params(n_chips=1)
        codes = gen_th_codes(p, 50, np.random.default_rng(1))
        npt.assert_array_equal(codes, 0)

    def test_uniform_frequencies(self):
        p = make_params(n_chips=4)
        codes = gen_th_codes(p, 100_000, np.random.default_rng(7))  # one million draws
        assert codes.size == 1_000_000
        for value in range(4):
            frequency = np.mean(codes == value)
            assert 0.2475 <= frequency <= 0.2525

    def test_determinism(self):
        p = make_params(n_users=3)
        npt.assert_array_equal(gen_th_codes(p, 100, np.random.default_rng(42)), gen_th_codes(p, 100, np.random.default_rng(42)))
        assert not np.array_equal(gen_th_codes(p, 100, np.random.default_rng(42)), gen_th_codes(p, 100, np.random.default_rng(43)))

    def test_independence_across_users_and_frames(self):
        p = make_params(n_users=2, n_chips=8)
        codes = gen_th_codes(p, 50_000, np.random.default_rng(11)).astype(float)
        across_users = np.corrcoef(codes[0], codes[1])[0, 1]
        across_frames = np.corrcoef(codes[0, :-1], codes[0, 1:])[0, 1]
        assert abs(across_users) < 0.01
        assert abs(across_frames) < 0.01


class TestPolarityCodes:
    def test_disabled_is_all_ones(self):
        p = make_params()
        npt.assert_array_equal(gen_polarity_codes(p, 100, False, np.random.default_rng(5)), 1)

    def test_zero_mean(self):
        p = make_params()
        codes = gen_polarity_codes(p, 100_000, True, np.random.default_rng(5))
        assert set(np.unique(codes)) == {-1, 1}
        assert abs(codes.mean()) <= 0.003

    def test_pairwise_products_zero_mean(self):
        p = make_params()
        codes = gen_polarity_codes(p, 100_001, True, np.random.default_rng(6)).ravel()
        products = codes[:-1] * codes[1:]
        assert abs(products.mean()) <= 0.003

    def test_bits_are_symmetric(self):
        p = make_params(n_users=2)
        bits = gen_bits(p, 200_000, np.random.default_rng(9))
        assert set(np.unique(bits)) == {-1, 1}
        assert abs(bits.mean()) <= 0.005


class TestSymbolSequences:
    def test_substream_independence_of_order(self):
        a = substream(123, 4, 5).integers(0, 1000, size=8)
        b = substream(123, 4, 5).integers(0, 1000, size=8)
        npt.assert_array_equal(a, b)
        c = substream(123, 4, 6).integers(0, 1000, size=8)
        assert not np.array_equal(a, c)


# chi-square tests at fixed seeds reject below this p-value
_P_FLOOR = 1e-3


class TestNarrowDraws:
    @pytest.mark.parametrize("n_chips", [2, 5, 37, 1000])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_hops_uniform_by_chi_square(self, n_chips, seed):
        codes = gen_th_codes(make_params(n_users=4, n_frames=10, n_chips=n_chips), 5000, np.random.default_rng(seed))
        counts = np.bincount(codes.ravel(), minlength=n_chips)
        assert counts.size == n_chips  # nothing outside [0, Nc)
        assert stats.chisquare(counts).pvalue > _P_FLOOR

    @pytest.mark.parametrize("n_chips,dtype", [(2**15, np.int16), (2**15 + 1, np.int64)])
    def test_hop_dtype_is_the_narrowest_that_holds_nc(self, n_chips, dtype):
        codes = gen_th_codes(make_params(n_users=3, n_frames=10, n_chips=n_chips), 2000, np.random.default_rng(4))
        assert codes.dtype == dtype
        assert codes.min() >= 0 and codes.max() < n_chips

    @staticmethod
    def _signs(seed):
        p = make_params(n_users=3, n_frames=4)
        rng = np.random.default_rng(seed)
        return gen_polarity_codes(p, 20_000, True, rng), gen_bits(p, 20_000, rng)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_signs_balanced_by_chi_square(self, seed):
        for signs in self._signs(seed):
            assert signs.dtype == np.int8
            counts = [np.count_nonzero(signs == -1), np.count_nonzero(signs == 1)]
            assert sum(counts) == signs.size
            assert stats.chisquare(counts).pvalue > _P_FLOOR

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_signs_pairwise_independent_by_chi_square(self, seed):
        pol, bits = self._signs(seed)
        pairs = {
            "adjacent frames": (pol[:, :-1], pol[:, 1:]),
            "two users": (pol[0], pol[1]),
            "adjacent bits": (bits[:, :-1], bits[:, 1:]),
            "bit and its first pulse": (bits, pol[:, ::4]),
        }
        for name, (a, b) in pairs.items():
            table = np.zeros((2, 2))
            np.add.at(table, ((a.ravel() + 1) // 2, (b.ravel() + 1) // 2), 1)
            assert stats.chi2_contingency(table, correction=False).pvalue > _P_FLOOR, name

    def test_disabled_polarity_draws_nothing(self):
        p = make_params(n_users=2)
        rng = np.random.default_rng(8)
        gen_polarity_codes(p, 100, False, rng)
        npt.assert_array_equal(rng.bytes(16), np.random.default_rng(8).bytes(16))


class _SpikePulse:
    """Degenerate test double: a zero-width correlation spike."""

    def autocorrelation(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x == 0.0, 1.0, 0.0)
        return out if out.ndim else float(out)


class TestGammaFactor:
    def test_rectangular(self):
        assert gamma_factor(PulseShape.rectangular()) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_doublet_near_one_fifth(self):
        value = gamma_factor(PulseShape.gaussian_doublet())
        assert 0.18 <= value <= 0.22

    def test_matches_adaptive_quadrature(self):
        pulse = PulseShape.gaussian_doublet()
        reference, _ = integrate.quad(lambda e: pulse.autocorrelation(e) ** 2, 0.0, 1.0, limit=200)
        assert gamma_factor(pulse) == pytest.approx(2.0 * reference, abs=1e-9)

    def test_degenerate_spike_is_zero(self):
        assert gamma_factor(_SpikePulse()) == 0.0


class TestOverlapModel:
    @pytest.mark.parametrize("pulse", [PulseShape.gaussian_doublet(), PulseShape.rectangular()], ids=["doublet", "rect"])
    @pytest.mark.parametrize("jitter", [0.0, 0.37, np.array([0.0, 0.25, 0.5, 0.999]), np.linspace(0.0, 0.9, 12).reshape(3, 4)])
    def test_overlaps_equal_the_two_autocorrelations(self, pulse, jitter):
        r, rbar = pulse.overlaps(jitter)
        assert np.shape(r) == np.shape(rbar) == np.shape(jitter)
        assert np.asarray(r).tobytes() == np.asarray(pulse.autocorrelation(jitter)).tobytes()
        assert np.asarray(rbar).tobytes() == np.asarray(pulse.autocorrelation(CHIP_TIME - jitter)).tobytes()

    def test_jitter_nodes_are_the_gauss_legendre_rule_on_one_chip(self):
        nodes, weights = jitter_nodes()
        x, w = np.polynomial.legendre.leggauss(QUAD_NODES)
        assert nodes.tobytes() == (0.5 * (x + 1.0)).tobytes()
        assert weights.tobytes() == (w / w.sum()).tobytes()
        assert weights.sum() == 1.0
        assert np.all((nodes >= 0.0) & (nodes < CHIP_TIME))
        assert jitter_nodes() is jitter_nodes()
        for array in (nodes, weights):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize(
        "correlate",
        [
            lambda jitter: cross_correlation_table(np.ones(2), np.ones(2), jitter, PulseShape.rectangular()),
            lambda jitter: mai_variance_jitter(np.ones(2), np.ones(2), jitter, PulseShape.rectangular()),
        ],
        ids=["cross_correlation_table", "mai_variance_jitter"],
    )
    @pytest.mark.parametrize("bad", [1.0, -0.1, math.nan])
    def test_jitter_range_message(self, correlate, bad):
        with pytest.raises(ValueError) as info:
            correlate(bad)
        assert str(info.value) == f"jitter must lie in [0, 1) chip, got {bad}"
