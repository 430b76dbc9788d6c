"""Exact Monte Carlo simulation against the Gaussian-approximation forms.

The simulator renders nothing: because the pulse is one chip long, every
correlator output is an exact sum of cross-correlation table lookups over
colliding frame pairs. Here the ten-user multipath scenario (all users
sharing the built-in 10-tap profile) is simulated for the three Rake
structures and compared with the matching closed forms. A few hundred
thousand symbols put the estimates within a few percent of the theory.
"""

import numpy as np

from thuwb import (
    FIXED_CHANNEL_TAPS,
    BepMode,
    BepQuery,
    ChannelSource,
    PulseShape,
    SyncMode,
    SystemParams,
    TrialConfig,
    bep,
    estimate_bep,
    select_weights,
)

SINR_DB = 3.0
E1 = 0.5
noise = E1 * 10 ** (-SINR_DB / 10) - 9 / 75
params = SystemParams(
    n_users=10, n_frames=15, n_chips_per_frame=5,
    bit_energy=(E1,) + (1.0,) * 9, noise_psd=noise,
)
pulse = PulseShape.gaussian_doublet()
taps = np.tile(FIXED_CHANNEL_TAPS, (10, 1))

print(f"SINR {SINR_DB} dB, noise density {noise:.4f}, 2e5 symbols per point\n")
print("scheme     mode           theory      simulated   ci95")
for scheme, fingers in (("arake", None), ("srake", 3), ("prake", 3)):
    beta = select_weights(taps[0], scheme, fingers)
    for label, mode, sync in (
        ("chip-sync", BepMode.SYNC, SyncMode.CHIP_SYNC),
        ("async", BepMode.ASYNC_SGA, SyncMode.ASYNC),
    ):
        theory = bep(BepQuery(params=params, mode=mode, taps=taps, beta=beta, pulse=pulse))
        config = TrialConfig(
            params=params,
            pulse=pulse,
            sync_mode=sync,
            scheme=scheme,
            fingers=fingers,
            polarity_enabled=True,
            channel_source=ChannelSource("fixed"),
            n_drops=100,
            symbols_per_drop=2000,
            master_seed=1234,
        )
        estimate = estimate_bep(config)
        lo, hi = estimate.ci95
        print(
            f"{scheme:>6}{fingers or '':<2}   {label:<12}  {theory:.4e}  {estimate.bep:.4e}"
            f"  [{lo:.4e}, {hi:.4e}]"
        )
