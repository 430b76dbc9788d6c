"""Bit-error-rate analysis and exact simulation of BPSK time-hopping
impulse-radio UWB links with pulse-based polarity randomization.

The package pairs closed-form Gaussian-approximation error probabilities
(inter-frame and multiple-access interference variances, synchronous and
asynchronous users, Rake combining) with an exact chip-grid Monte Carlo
simulator, so every formula can be checked against measurement.
"""

__version__ = "0.1.0"

from .analytic import (
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
from .channel import (
    FIXED_CHANNEL_TAPS,
    FadingModel,
    SyncMode,
    decompose_delay,
    gen_lognormal_channel,
)
from .model import (
    PulseShape,
    SystemParams,
    gamma_factor,
    gen_bits,
    gen_polarity_codes,
    gen_th_codes,
    substream,
)
from .rake import (
    cross_correlation_table,
    select_weights,
)
from .simulator import (
    BepEstimate,
    ChannelSource,
    TrialConfig,
    estimate_bep,
    run_drop,
    wilson_interval,
)

__all__ = [
    "__version__",
    "FIXED_CHANNEL_TAPS",
    "BepEstimate",
    "BepMode",
    "BepQuery",
    "ChannelSource",
    "FadingModel",
    "PulseShape",
    "SyncMode",
    "SystemParams",
    "TrialConfig",
    "VarianceBreakdown",
    "average_bep",
    "bep",
    "bep_async_exact",
    "cross_correlation_table",
    "decompose_delay",
    "estimate_bep",
    "gamma_factor",
    "gen_bits",
    "gen_lognormal_channel",
    "gen_polarity_codes",
    "gen_th_codes",
    "ifi_variance_components",
    "mai_variance_async",
    "mai_variance_jitter",
    "mai_variance_sync",
    "q_function",
    "run_drop",
    "select_weights",
    "substream",
    "variance_breakdown",
    "wilson_interval",
]
