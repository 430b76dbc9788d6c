"""How many Rake fingers are enough on a fading channel?

Twenty-tap channels with lognormal magnitudes and an exponentially decaying
energy profile, averaged over an ensemble of realizations. Selective
combining (the strongest M taps) closes in on full combining within about
ten fingers; leading-finger combining (the first M taps) needs noticeably
more because strong taps routinely appear beyond the front of the profile.
"""

import numpy as np

from thuwb import (
    BepMode,
    BepQuery,
    FadingModel,
    PulseShape,
    SystemParams,
    average_bep,
    gen_lognormal_channel,
    select_weights,
    substream,
)

REALIZATIONS = 500
fading = FadingModel(n_taps=20, decay=0.25, log_variance=1.0)
noise = 1.0 * 10 ** (-1.6) / 2.0  # Eb/N0 = 16 dB
params = SystemParams(
    n_users=10, n_frames=15, n_chips_per_frame=5,
    bit_energy=(1.0,) + (2.0,) * 9, noise_psd=noise,
)
pulse = PulseShape.gaussian_doublet()

ensembles = []
for r in range(REALIZATIONS):
    rng = substream(606, r)
    ensembles.append(np.stack([gen_lognormal_channel(fading, rng) for _ in range(10)]))


def ensemble_bep(scheme, fingers):
    queries = [
        BepQuery(
            params=params,
            mode=BepMode.ASYNC_SGA,
            taps=taps,
            beta=select_weights(taps[0], scheme, fingers),
            pulse=pulse,
        )
        for taps in ensembles
    ]
    return average_bep(queries)


full, _ = ensemble_bep("arake", None)
print(f"full combining (all 20 taps): {full:.4e}\n")
print("fingers   selective     leading")
for fingers in (2, 4, 6, 8, 10, 14, 18):
    selective, _ = ensemble_bep("srake", fingers)
    leading, _ = ensemble_bep("prake", fingers)
    print(f"{fingers:7d}   {selective:.4e}   {leading:.4e}")
