import numpy as np
import numpy.testing as npt
import pytest

from thuwb import rake
from thuwb.channel import ChannelRealization, fixed_channel
from thuwb.model import CHIP_TIME, PulseShape
from thuwb.rake import (
    correlation_sequence,
    cross_correlation_table,
    lag_dot,
    select_weights,
)

from _oracles import cross_correlation, waveform_cross_correlation

DOUBLET = PulseShape.gaussian_doublet()
RECT = PulseShape.rectangular()


def table_value(taps, weights, chip_offset, jitter, pulse):
    """``cross_correlation_table`` looked up at one offset, zero outside its offsets."""
    offsets, values = cross_correlation_table(taps, weights, jitter, pulse)
    hit = offsets == chip_offset
    return float(values[hit][0]) if hit.any() else 0.0


class TestSelectWeights:
    def test_arake_is_channel(self):
        ch = fixed_channel()
        w = select_weights(ch, "arake")
        npt.assert_array_equal(w.beta, ch.taps)
        # every path is a finger, whatever the finger count
        npt.assert_array_equal(select_weights(ch, "arake", 3).beta, ch.taps)

    def test_srake_three_fingers(self):
        w = select_weights(fixed_channel(), "srake", 3)
        expected = np.array([0.4653, 0.5817, 0, -0.4536, 0, 0, 0, 0, 0, 0])
        npt.assert_allclose(w.beta, expected, atol=1e-15)

    def test_prake_three_fingers(self):
        w = select_weights(fixed_channel(), "prake", 3)
        expected = np.array([0.4653, 0.5817, 0.2327, 0, 0, 0, 0, 0, 0, 0])
        npt.assert_allclose(w.beta, expected, atol=1e-15)

    def test_srake_tie_breaks_to_lower_index(self):
        ch = ChannelRealization(np.array([1.0, -1.0, 0.5]))
        w = select_weights(ch, "srake", 1)
        npt.assert_array_equal(w.beta, [1.0, 0.0, 0.0])

    def test_egc_keeps_signs(self):
        ch = ChannelRealization(np.array([0.2, -0.7, 0.1]))
        npt.assert_array_equal(select_weights(ch, "egc").beta, [1.0, -1.0, 1.0])
        npt.assert_array_equal(select_weights(ch, "egc", 1).beta, [0.0, -1.0, 0.0])

    def test_too_many_fingers_rejected(self):
        with pytest.raises(ValueError):
            select_weights(fixed_channel(), "srake", 11)
        with pytest.raises(ValueError):
            select_weights(fixed_channel(), "prake", 0)
        with pytest.raises(ValueError):
            select_weights(fixed_channel(), "egc", 11)
        with pytest.raises(ValueError):
            select_weights(fixed_channel(), "egc", 0)
        with pytest.raises(ValueError):
            select_weights(fixed_channel(), "mrc")


class TestCrossCorrelation:
    def test_zero_offset_full_weights(self):
        ch = fixed_channel()
        value = table_value(ch.taps, ch.taps, 0, 0.0, DOUBLET)
        assert value == pytest.approx(float(ch.taps @ ch.taps), abs=1e-15)

    def test_chip_grid_matches_lag_sums(self):
        ch = fixed_channel()
        alpha = ch.taps
        beta = select_weights(ch, "srake", 3).beta
        n = alpha.size
        for j in range(-n, n):
            direct = lag_dot(alpha, beta, j) if j >= 0 else lag_dot(beta, alpha, -j)
            assert table_value(alpha, beta, j, 0.0, DOUBLET) == pytest.approx(
                direct, abs=1e-12
            )

    @pytest.mark.parametrize("pulse,grid_jitter", [(DOUBLET, False), (RECT, True)])
    def test_waveform_oracle(self, pulse, grid_jitter):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            alpha = rng.normal(size=n)
            beta = rng.normal(size=n)
            j = int(rng.integers(-n - 2, n + 2))
            jitter = float(rng.integers(0, 64) / 64 if grid_jitter else rng.uniform(0.0, 1.0))
            value = table_value(alpha, beta, j, jitter, pulse)
            oracle = waveform_cross_correlation(alpha, beta, pulse, j + jitter)
            assert value == pytest.approx(oracle, abs=1e-3)

    def test_role_swap_mirror(self):
        # swapping the pulse trains mirrors the offset axis
        rng = np.random.default_rng(23)
        pulse = DOUBLET
        for _ in range(50):
            n = int(rng.integers(1, 9))
            alpha = rng.normal(size=n)
            beta = rng.normal(size=n)
            jitter = float(rng.uniform(1e-9, 1.0))
            for j in range(-n - 1, n + 1):
                forward = table_value(alpha, beta, j, jitter, pulse)
                mirrored = table_value(beta, alpha, -j - 1, 1.0 - jitter, pulse)
                assert forward == pytest.approx(mirrored, abs=1e-9)

    def test_support(self):
        # the table's offsets cover every offset the direct lag sums reach
        rng = np.random.default_rng(5)
        alpha = rng.normal(size=6)
        beta = rng.normal(size=6)
        for jitter in (0.0, 0.3, 0.9):
            offsets, _ = cross_correlation_table(alpha, beta, jitter, DOUBLET)
            npt.assert_array_equal(offsets, np.arange(-6, 6))
            for j in (6, 9, -7):
                assert cross_correlation(alpha, beta, j, jitter, DOUBLET) == 0.0
        assert table_value(alpha, beta, -6, 0.3, DOUBLET) != 0.0

    @pytest.mark.parametrize("pulse", [DOUBLET, RECT])
    def test_continuity_at_chip_boundaries(self, pulse):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(1, 11))
            alpha = rng.normal(size=n)
            beta = rng.normal(size=n)
            for j in range(-n - 1, n + 1):
                limit = table_value(alpha, beta, j, 1.0 - 1e-12, pulse)
                next_chip = table_value(alpha, beta, j + 1, 0.0, pulse)
                assert limit == pytest.approx(next_chip, abs=1e-9)

    def test_jitter_domain(self):
        with pytest.raises(ValueError):
            table_value(np.ones(2), np.ones(2), 0, 1.0, DOUBLET)
        with pytest.raises(ValueError):
            table_value(np.ones(2), np.ones(2), 0, -0.1, DOUBLET)

    def test_table_matches_scalar(self):
        rng = np.random.default_rng(31)
        alpha = rng.normal(size=7)
        beta = rng.normal(size=7)
        offsets, values = cross_correlation_table(alpha, beta, 0.37, DOUBLET)
        npt.assert_array_equal(offsets, np.arange(-7, 7))
        for j, value in zip(offsets, values):
            assert value == pytest.approx(
                cross_correlation(alpha, beta, int(j), 0.37, DOUBLET), abs=1e-15
            )

    def test_correlation_sequence_ends_are_zero(self):
        c = correlation_sequence(np.ones(4), np.ones(4))
        assert c[0] == 0.0 and c[-1] == 0.0
        assert c[4] == 4.0


def _lag_scale(taps, weights):
    # Cauchy-Schwarz bound on every lag sum, the scale of its rounding error
    return float(np.linalg.norm(taps) * np.linalg.norm(weights))


class TestStackedPrimitive:
    @pytest.mark.parametrize("n_taps", [1, 2, 5, 20])
    @pytest.mark.parametrize("n_users", [1, 3, 10])
    def test_correlation_sequence_rows_match_single_calls(self, n_users, n_taps):
        rng = np.random.default_rng(100 * n_users + n_taps)
        taps = rng.normal(size=(n_users, n_taps))
        beta = rng.normal(size=n_taps)
        c = correlation_sequence(taps, beta)
        assert c.shape == (n_users, 2 * n_taps + 1)
        for row, alpha in zip(c, taps):
            tol = 1e-15 * _lag_scale(alpha, beta)
            npt.assert_allclose(row, correlation_sequence(alpha, beta), rtol=1e-15, atol=tol)
            lag_sums = [cross_correlation(alpha, beta, j, 0.0, RECT) for j in range(-n_taps, n_taps + 1)]
            npt.assert_allclose(row, lag_sums, rtol=1e-15, atol=tol)

    def test_any_leading_shape(self):
        rng = np.random.default_rng(5)
        taps = rng.normal(size=(2, 3, 4))
        beta = rng.normal(size=4)
        c = correlation_sequence(taps, beta)
        assert c.shape == (2, 3, 9)
        npt.assert_array_equal(correlation_sequence(taps[:, :, None, :], beta)[:, :, 0], c)

    def test_weights_are_one_vector_as_long_as_the_taps(self):
        for taps, weights in ((np.ones((2, 3)), np.ones(4)), (np.ones(3), np.ones((2, 3)))):
            with pytest.raises(ValueError, match="one vector as long as the taps"):
                correlation_sequence(taps, weights)

    @pytest.mark.parametrize("pulse", [DOUBLET, RECT], ids=["doublet", "rect"])
    def test_table_rows_match_single_calls(self, pulse):
        rng = np.random.default_rng(41)
        taps = rng.normal(size=(6, 8))
        beta = rng.normal(size=8)
        jitters = rng.uniform(0.0, CHIP_TIME, size=6)
        jitters[0] = 0.0
        offsets, values = cross_correlation_table(taps, beta, jitters, pulse)
        npt.assert_array_equal(offsets, np.arange(-8, 8))
        assert values.shape == (6, 16)
        for row, alpha, jitter in zip(values, taps, jitters):
            single_offsets, single = cross_correlation_table(alpha, beta, float(jitter), pulse)
            npt.assert_array_equal(single_offsets, offsets)
            npt.assert_allclose(row, single, rtol=1e-15, atol=1e-15 * _lag_scale(alpha, beta))

    @pytest.mark.parametrize("pulse", [DOUBLET, RECT], ids=["doublet", "rect"])
    def test_scalar_jitter_matches_stacked_row_bit_for_bit(self, pulse):
        rng = np.random.default_rng(43)
        taps = rng.normal(size=(10_000, 3))
        beta = rng.normal(size=3)
        jitters = rng.uniform(0.0, CHIP_TIME, size=10_000)
        _, values = cross_correlation_table(taps, beta, jitters, pulse)
        for row, alpha, jitter in zip(values, taps, jitters):
            _, single = cross_correlation_table(alpha, beta, float(jitter), pulse)
            assert single.tobytes() == row.tobytes()

    def test_stacked_jitter_domain(self):
        taps = np.ones((3, 2))
        _, values = cross_correlation_table(taps, np.ones(2), np.array([0.0, 0.99, 0.5]), DOUBLET)
        assert values.shape == (3, 4)
        for bad in (1.0, -0.1, np.nan):
            with pytest.raises(ValueError, match="jitter must lie in"):
                cross_correlation_table(taps, np.ones(2), np.array([0.0, bad, 0.5]), DOUBLET)


def loop_correlation_sequence(taps, weights):
    """The correlation sequence as the unbatched loop computed it: one scalar-lag sum per lag, valid terms only."""

    def scalar_lag_dot(x, y, lag):
        return np.vecdot(x[..., : max(x.shape[-1] - lag, 0)], y[..., lag:])

    alpha = np.asarray(taps, dtype=float)
    beta = np.asarray(weights, dtype=float)
    n = alpha.shape[-1]
    c = np.zeros(alpha.shape[:-1] + (2 * n + 1,))
    for j in range(n):
        c[..., n + j] = scalar_lag_dot(alpha, beta, j)
    for j in range(1, n):
        c[..., n - j] = scalar_lag_dot(beta, alpha, j)
    return c


class TestBatchedLagDot:
    @pytest.mark.parametrize("lead", [(), (3,), (9, 1)], ids=str)
    @pytest.mark.parametrize("n_taps", [1, 2, 5, 20])
    def test_one_lag_dot_call_per_sequence(self, monkeypatch, n_taps, lead):
        calls = []
        original = rake.lag_dot

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(rake, "lag_dot", counting)
        rng = np.random.default_rng(n_taps)
        c = rake.correlation_sequence(rng.normal(size=lead + (n_taps,)), rng.normal(size=n_taps))
        assert c.shape == lead + (2 * n_taps + 1,)
        assert len(calls) == 1

    @pytest.mark.parametrize("n_taps", [1, 2, 5, 20])
    def test_lag_array_matches_scalar_lag_sums(self, n_taps):
        rng = np.random.default_rng(50 + n_taps)
        x = rng.normal(size=(4, n_taps))
        y = rng.normal(size=n_taps)
        lags = np.arange(-n_taps - 3, n_taps + 4)
        values = lag_dot(x, y, lags)
        assert values.shape == (4, lags.size)
        for row, x_row in zip(values, x):
            for value, lag in zip(row, lags):
                lo, hi = max(0, -lag), min(n_taps, n_taps - lag)
                direct = float(x_row[lo:hi] @ y[lo + lag : hi + lag]) if lo < hi else 0.0
                assert value == pytest.approx(direct, rel=0.0, abs=1e-15 * _lag_scale(x_row, y))
                if abs(lag) >= n_taps:
                    assert value == 0.0
                assert lag_dot(x_row, y, int(lag)) == value

    def test_lag_shapes(self):
        x, y = np.ones((2, 3, 4)), np.ones(4)
        assert lag_dot(x, y, 1).shape == (2, 3)
        assert lag_dot(x, y, np.array([[0, -1, 2], [5, -5, 3]])).shape == (2, 3, 2, 3)
        npt.assert_array_equal(lag_dot(x[0, 0], y, np.array([[0, -1, 2], [5, -5, 3]])), [[4, 3, 2], [0, 0, 1]])
        with pytest.raises(ValueError, match="one vector as long as the taps"):
            lag_dot(x, np.ones(3), 0)

    @pytest.mark.parametrize("n_taps", [1, 2, 5, 20])
    def test_stacked_rows_equal_single_calls_bit_for_bit(self, n_taps):
        rng = np.random.default_rng(70 + n_taps)
        taps = rng.normal(size=(3, 5, n_taps))
        beta = rng.normal(size=n_taps)
        lags = np.arange(-n_taps, n_taps + 1)
        stacked = lag_dot(taps, beta, lags)
        sequences = correlation_sequence(taps, beta)
        for index in np.ndindex(taps.shape[:-1]):
            npt.assert_array_equal(stacked[index], lag_dot(taps[index], beta, lags))
            npt.assert_array_equal(sequences[index], correlation_sequence(taps[index], beta))

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "srake"])
    def test_matches_the_lag_loop(self, sparse):
        rng = np.random.default_rng(91 if sparse else 90)
        for _ in range(300):
            n = int(rng.integers(1, 25))
            alpha = rng.normal(size=n) * rng.lognormal(size=n)
            beta = rng.normal(size=n)
            if sparse:
                beta = select_weights(ChannelRealization(alpha), "srake", int(rng.integers(1, n + 1))).beta
            tol = 1e-15 * _lag_scale(alpha, beta)
            npt.assert_allclose(correlation_sequence(alpha, beta), loop_correlation_sequence(alpha, beta), rtol=0.0, atol=tol)
