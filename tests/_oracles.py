"""Independent slow-path oracles used to validate the fast implementations.

Everything here recomputes quantities from first principles (oversampled
waveform rendering, exhaustive hop-code enumeration, direct frame-pair sums)
and deliberately avoids the code paths under test wherever possible.
"""

from __future__ import annotations

import math

import numpy as np

SAMPLES_PER_CHIP = 64
# the chip is the unit of time
CHIP_TIME = 1.0


def cross_correlation(taps, weights, chip_offset, jitter, pulse):
    """Pulse-train/template cross-correlation at ``chip_offset`` chips + ``jitter``.

    Direct lag sums ``sum_l taps[l] * weights[l + j]`` at the two whole-chip
    lags the shifted pulse overlaps, weighted by ``R(jitter)`` and
    ``R(chip_time - jitter)``; zero wherever no tap pair lines up.
    """
    if not 0.0 <= jitter < CHIP_TIME:
        raise ValueError(f"jitter must lie in [0, chip_time), got {jitter}")
    taps = np.asarray(taps, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = taps.size

    def lag_sum(j):
        if abs(j) >= n:
            return 0.0
        return float(taps[max(0, -j) : n - max(0, j)] @ weights[max(0, j) : n + min(0, j)])

    r0 = pulse.autocorrelation(jitter)
    r1 = pulse.autocorrelation(CHIP_TIME - jitter)
    return float(r0 * lag_sum(int(chip_offset)) + r1 * lag_sum(int(chip_offset) + 1))


def waveform_cross_correlation(taps, weights, pulse, offset, samples_per_chip=SAMPLES_PER_CHIP):
    """Midpoint-rule integral of u(t - offset) * v(t) from rendered waveforms.

    The grid is anchored on chip boundaries, so for the rectangular pulse
    (whose edges sit on half-chips) any offset that is a multiple of
     1/samples_per_chip chips puts every discontinuity on a cell edge and the
    midpoint rule is exact.
    """
    taps = np.asarray(taps, dtype=float)
    weights = np.asarray(weights, dtype=float)
    tc = CHIP_TIME
    n = taps.size
    dt = tc / samples_per_chip
    start = (math.floor(min(0.0, offset) / tc) - 2) * tc
    stop = (math.ceil(max(0.0, offset) / tc) + n + 2) * tc
    t = start + (np.arange(round((stop - start) / dt)) + 0.5) * dt
    u = np.zeros_like(t)
    v = np.zeros_like(t)
    for l in range(n):
        u += taps[l] * pulse.waveform(t - offset - l * tc)
        v += weights[l] * pulse.waveform(t - l * tc)
    return float(np.sum(u * v) * dt)


def render_received_waveform(params, pulse, channels, chip_offsets, jitters, th, pol, bits,
                             samples_per_chip=SAMPLES_PER_CHIP):
    """Render the full received waveform (all users, no noise) on a fine grid."""
    nc = params.n_chips_per_frame
    nf = params.n_frames
    tc = CHIP_TIME
    n_users, total_frames = th.shape
    n_taps = channels[0].n_taps
    dt = tc / samples_per_chip
    t0 = -2.0 * tc
    n_chips = total_frames * nc + params.processing_gain + n_taps + 6
    t = t0 + (np.arange(n_chips * samples_per_chip) + 0.5) * dt
    r = np.zeros_like(t)
    for k in range(n_users):
        taps = channels[k].taps
        scale = math.sqrt(params.bit_energy[k] / nf)
        for j in range(total_frames):
            amp = scale * pol[k, j] * bits[k, j // nf]
            base = (j * nc + th[k, j] + chip_offsets[k]) * tc + jitters[k]
            for l in range(n_taps):
                if taps[l] == 0.0:
                    continue
                center = base + l * tc
                i0 = max(0, int((center - tc - t0) / dt) - 1)
                i1 = min(t.size, int((center + tc - t0) / dt) + 2)
                r[i0:i1] += amp * taps[l] * pulse.waveform(t[i0:i1] - center)
    return t, r, dt


def waveform_decision_statistic(params, pulse, beta, th0, pol0, symbol, t, r, dt):
    """Correlate the rendered waveform against one symbol's Rake template."""
    nc = params.n_chips_per_frame
    nf = params.n_frames
    tc = CHIP_TIME
    template = np.zeros_like(r)
    for m in range(symbol * nf, (symbol + 1) * nf):
        base = (m * nc + th0[m]) * tc
        for l in range(beta.size):
            if beta[l] == 0.0:
                continue
            center = base + l * tc
            i0 = max(0, int((center - tc - t[0]) / dt) - 1)
            i1 = min(t.size, int((center + tc - t[0]) / dt) + 2)
            template[i0:i1] += pol0[m] * beta[l] * pulse.waveform(t[i0:i1] - center)
    return float(np.sum(r * template) * dt)


def brute_force_decision_statistic(params, pulse, channels, beta, chip_offsets, jitters,
                                   th, pol, bits, symbol):
    """Direct frame-pair sum over every user and frame of the stream."""
    nc = params.n_chips_per_frame
    nf = params.n_frames
    total_frames = th.shape[1]
    y = 0.0
    for m in range(symbol * nf, (symbol + 1) * nf):
        for k in range(params.n_users):
            for j in range(total_frames):
                cd = (j - m) * nc + th[k, j] + chip_offsets[k] - th[0, m]
                phi = cross_correlation(channels[k].taps, beta, cd, float(jitters[k]), pulse)
                if phi != 0.0:
                    amp = math.sqrt(params.bit_energy[k] / nf) * pol[k, j] * bits[k, j // nf]
                    y += pol[0, m] * amp * phi
    return y


def enumerate_ifi_variance(taps, weights, n_chips, pulse):
    """IFI variance (per unit bit energy) by exhaustive hop-code enumeration.

    Averages the squared frame-pair contribution over all hop-code pairs, and
    the same-lag product pairs that survive the polarity averaging, exactly
    as the limiting per-symbol variance of the frame sum requires.
    """
    n = len(taps)
    reach = (n - 1 + n_chips - 1) // n_chips + 1
    second_moment = 0.0
    for delta in range(-reach, reach + 1):
        if delta == 0:
            continue
        for a in range(n_chips):
            for b in range(n_chips):
                second_moment += cross_correlation(taps, weights, delta * n_chips + a - b, 0.0, pulse) ** 2
    second_moment /= n_chips**2
    cross = 0.0
    for step in range(1, reach + 1):
        for a in range(n_chips):
            for b in range(n_chips):
                q = step * n_chips + a - b
                cross += (
                    cross_correlation(taps, weights, q, 0.0, pulse)
                    * cross_correlation(taps, weights, -q, 0.0, pulse)
                )
    cross /= n_chips**2
    return second_moment + 2.0 * cross


def enumerate_mai_variance(taps, weights, n_chips, pulse, chip_offset=0, jitter=0.0):
    """Per-frame MAI variance (times n_chips) by exhaustive hop enumeration.

    Enumerates both users' hop codes and every interferer frame within reach
    for an arbitrary whole-chip delay; the result must not depend on it.
    """
    n = len(taps)
    reach = (n + abs(chip_offset) + 2 * n_chips) // n_chips + 1
    total = 0.0
    for delta in range(-reach, reach + 1):
        for a in range(n_chips):
            for b in range(n_chips):
                total += cross_correlation(
                    taps, weights, delta * n_chips + a - b + chip_offset, jitter, pulse
                ) ** 2
    return total / n_chips
