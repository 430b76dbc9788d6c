import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from thuwb import rake
from thuwb.channel import FIXED_CHANNEL_TAPS
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
FIXED = np.array(FIXED_CHANNEL_TAPS)


def table_value(taps, weights, chip_offset, jitter, pulse):
    """``cross_correlation_table`` looked up at one offset, zero outside its offsets ``-L .. L-1``."""
    values = cross_correlation_table(taps, weights, jitter, pulse)
    n = values.shape[-1] // 2
    offsets = np.arange(-n, n)
    hit = offsets == chip_offset
    return float(values[hit][0]) if hit.any() else 0.0


class TestSelectWeights:
    def test_arake_is_channel(self):
        beta = select_weights(FIXED, "arake")
        npt.assert_array_equal(beta, FIXED)
        # every path is a finger, whatever the finger count
        npt.assert_array_equal(select_weights(FIXED, "arake", 3), FIXED)

    def test_srake_three_fingers(self):
        expected = np.array([0.4653, 0.5817, 0, -0.4536, 0, 0, 0, 0, 0, 0])
        npt.assert_allclose(select_weights(FIXED, "srake", 3), expected, atol=1e-15)

    def test_prake_three_fingers(self):
        expected = np.array([0.4653, 0.5817, 0.2327, 0, 0, 0, 0, 0, 0, 0])
        npt.assert_allclose(select_weights(FIXED, "prake", 3), expected, atol=1e-15)

    def test_srake_tie_breaks_to_lower_index(self):
        npt.assert_array_equal(select_weights([1.0, -1.0, 0.5], "srake", 1), [1.0, 0.0, 0.0])

    def test_egc_keeps_signs(self):
        taps = np.array([0.2, -0.7, 0.1])
        npt.assert_array_equal(select_weights(taps, "egc"), [1.0, -1.0, 1.0])
        npt.assert_array_equal(select_weights(taps, "egc", 1), [0.0, -1.0, 0.0])

    def test_too_many_fingers_rejected(self):
        with pytest.raises(ValueError):
            select_weights(FIXED, "srake", 11)
        with pytest.raises(ValueError):
            select_weights(FIXED, "prake", 0)
        with pytest.raises(ValueError):
            select_weights(FIXED, "egc", 11)
        with pytest.raises(ValueError):
            select_weights(FIXED, "egc", 0)
        with pytest.raises(ValueError):
            select_weights(FIXED, "mrc")

    @pytest.mark.parametrize("taps", [[], 1.0, [[0.5, 0.2]], np.ones((2, 3))], ids=["empty", "scalar", "row", "matrix"])
    def test_only_a_non_empty_vector_is_accepted(self, taps):
        with pytest.raises(ValueError, match="non-empty 1-D vector"):
            select_weights(taps, "arake")

    def test_weights_are_a_read_only_copy(self):
        taps = FIXED.copy()
        beta = select_weights(taps, "arake")
        taps[0] = 9.9
        assert beta[0] == FIXED[0]
        with pytest.raises(ValueError):
            beta[0] = 9.9


class TestCrossCorrelation:
    def test_zero_offset_full_weights(self):
        value = table_value(FIXED, FIXED, 0, 0.0, DOUBLET)
        assert value == pytest.approx(float(FIXED @ FIXED), abs=1e-15)

    def test_chip_grid_matches_lag_sums(self):
        alpha = FIXED
        beta = select_weights(alpha, "srake", 3)
        n = alpha.size
        sequence, mirrored = lag_dot(alpha, beta), lag_dot(beta, alpha)
        for j in range(-n, n):
            direct = sequence[n + j] if j >= 0 else mirrored[n - j]
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
            values = cross_correlation_table(alpha, beta, jitter, DOUBLET)
            # offsets -6 .. 5, offset j at [6 + j]
            assert values.shape == (12,)
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
        values = cross_correlation_table(alpha, beta, 0.37, DOUBLET)
        offsets = np.arange(-7, 7)
        assert values.shape == offsets.shape
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
        values = cross_correlation_table(taps, beta, jitters, pulse)
        assert values.shape == (6, 16)
        for row, alpha, jitter in zip(values, taps, jitters):
            single = cross_correlation_table(alpha, beta, float(jitter), pulse)
            # offsets -8 .. 7 on the row and the single call alike
            assert single.shape == (16,)
            npt.assert_allclose(row, single, rtol=1e-15, atol=1e-15 * _lag_scale(alpha, beta))

    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)], ids=str)
    @pytest.mark.parametrize("pulse", [DOUBLET, RECT], ids=["doublet", "rect"])
    def test_offset_j_sits_where_lag_j_does(self, pulse, lead):
        # one layout: offset j at [..., L + j], as lag j of the correlation sequence
        rng = np.random.default_rng(len(lead))
        for n in (1, 2, 7, 20):
            taps = rng.normal(size=lead + (n,))
            beta = rng.normal(size=n)
            jitter = rng.uniform(0.0, CHIP_TIME, size=lead)
            values = cross_correlation_table(taps, beta, jitter, pulse)
            c = correlation_sequence(taps, beta)
            r, rbar = pulse.autocorrelation(jitter), pulse.autocorrelation(CHIP_TIME - jitter)
            assert values.shape == lead + (2 * n,)
            for j in range(-n, n):
                expected = r * c[..., n + j] + rbar * c[..., n + j + 1]
                assert values[..., n + j].tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("pulse", [DOUBLET, RECT], ids=["doublet", "rect"])
    def test_scalar_jitter_matches_stacked_row_bit_for_bit(self, pulse):
        rng = np.random.default_rng(43)
        taps = rng.normal(size=(10_000, 3))
        beta = rng.normal(size=3)
        jitters = rng.uniform(0.0, CHIP_TIME, size=10_000)
        values = cross_correlation_table(taps, beta, jitters, pulse)
        for row, alpha, jitter in zip(values, taps, jitters):
            single = cross_correlation_table(alpha, beta, float(jitter), pulse)
            assert single.tobytes() == row.tobytes()

    def test_stacked_jitter_domain(self):
        taps = np.ones((3, 2))
        values = cross_correlation_table(taps, np.ones(2), np.array([0.0, 0.99, 0.5]), DOUBLET)
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

    @pytest.mark.parametrize("taps_shape", [(6, 4), (6, 3, 1), ()], ids=["users", "nodes", "flat"])
    @pytest.mark.parametrize("n_taps", [1, 3, 8, 20, 33])
    def test_weight_stack_rows_equal_single_calls_bit_for_bit(self, monkeypatch, n_taps, taps_shape):
        # row r of the weights serves taps[r]; the stack takes one lag_dot call,
        # and a strided or Fortran-ordered stack gives the same bits
        rng = np.random.default_rng(200 + n_taps)
        n_real = 6
        taps = rng.normal(size=(n_real,) + taps_shape[1:] + (n_taps,)) * rng.lognormal(size=n_taps)
        dense = rng.normal(size=(2 * n_real, n_taps))
        calls = []
        original = rake.lag_dot
        monkeypatch.setattr(rake, "lag_dot", lambda *a: calls.append(1) or original(*a))
        for weights in (dense[:n_real], dense[::2], np.asfortranarray(dense[:n_real])):
            sequences = rake.correlation_sequence(taps, weights)
            stacked = lag_dot(taps, weights)
            assert sequences.shape == stacked.shape == taps.shape[:-1] + (2 * n_taps + 1,)
            for r in range(n_real):
                npt.assert_array_equal(sequences[r], correlation_sequence(taps[r], np.array(weights[r])))
                npt.assert_array_equal(stacked[r], lag_dot(taps[r], np.array(weights[r])))
        # one call per sequence: the three stacked ones and the 18 single rows
        assert len(calls) == 3 + 3 * n_real

    @pytest.mark.parametrize("n_taps", [1, 3, 8, 20, 33])
    def test_result_is_c_contiguous_for_any_layout(self, n_taps):
        # sliced interferers, Fortran-ordered and reversed taps, strided weight
        # rows: the result is C-contiguous, and each row keeps its own call's bits
        # (a reversed row is a strided dot, whose bits a contiguous copy need not keep)
        rng = np.random.default_rng(400 + n_taps)
        users = rng.normal(size=(6, 5, n_taps))
        dense = rng.normal(size=(12, n_taps))
        for taps in (users[:, 1:], np.asfortranarray(users[:, 1:]), users[:, 1:, ::-1]):
            for weights in (dense[:6], dense[::2], np.asfortranarray(dense[:6])):
                sequences = correlation_sequence(taps, weights)
                assert sequences.flags.c_contiguous
                for r in range(6):
                    npt.assert_array_equal(sequences[r], lag_dot(taps[r], np.array(weights[r])))

    def test_weights_are_shifted_without_a_copy(self):
        # 256 paths: one realization's shifted weights would take (2L + 1) L
        # floats, 1 MB, and the stack's 8 MB; the windows are views of the
        # padded weights, so the call holds little beyond its result
        rng = np.random.default_rng(301)
        taps, weights = rng.normal(size=(8, 256)), rng.normal(size=(8, 256))
        tracemalloc.start()
        try:
            sequences = correlation_sequence(taps, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sequences.flags.c_contiguous
        assert peak < 8 * 513 * 256 / 4

    def test_weight_stack_needs_one_row_per_realization(self):
        for taps, weights in ((np.ones((3, 4)), np.ones((2, 4))), (np.ones((3, 4)), np.ones((3, 5)))):
            with pytest.raises(ValueError, match="one vector as long as the taps"):
                lag_dot(taps, weights)

    @pytest.mark.parametrize("n_taps", [1, 2, 5, 20])
    def test_lag_array_matches_scalar_lag_sums(self, n_taps):
        rng = np.random.default_rng(50 + n_taps)
        x = rng.normal(size=(4, n_taps))
        y = rng.normal(size=n_taps)
        lags = np.arange(-n_taps, n_taps + 1)
        values = lag_dot(x, y)
        assert values.shape == (4, lags.size)
        for row, x_row in zip(values, x):
            alone = lag_dot(x_row, y)
            for value, lag in zip(row, lags):
                lo, hi = max(0, -lag), min(n_taps, n_taps - lag)
                direct = float(x_row[lo:hi] @ y[lo + lag : hi + lag]) if lo < hi else 0.0
                assert value == pytest.approx(direct, rel=0.0, abs=1e-15 * _lag_scale(x_row, y))
                if abs(lag) >= n_taps:
                    assert value == 0.0
                assert alone[n_taps + lag] == value

    @pytest.mark.parametrize("n_taps", [1, 2, 5, 20])
    def test_stacked_rows_equal_single_calls_bit_for_bit(self, n_taps):
        rng = np.random.default_rng(70 + n_taps)
        taps = rng.normal(size=(3, 5, n_taps))
        beta = rng.normal(size=n_taps)
        stacked = lag_dot(taps, beta)
        sequences = correlation_sequence(taps, beta)
        for index in np.ndindex(taps.shape[:-1]):
            npt.assert_array_equal(stacked[index], lag_dot(taps[index], beta))
            npt.assert_array_equal(sequences[index], correlation_sequence(taps[index], beta))

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "srake"])
    def test_matches_the_lag_loop(self, sparse):
        rng = np.random.default_rng(91 if sparse else 90)
        for _ in range(300):
            n = int(rng.integers(1, 25))
            alpha = rng.normal(size=n) * rng.lognormal(size=n)
            beta = rng.normal(size=n)
            if sparse:
                beta = select_weights(alpha, "srake", int(rng.integers(1, n + 1)))
            tol = 1e-15 * _lag_scale(alpha, beta)
            npt.assert_allclose(correlation_sequence(alpha, beta), loop_correlation_sequence(alpha, beta), rtol=0.0, atol=tol)
