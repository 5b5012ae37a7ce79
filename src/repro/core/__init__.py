"""Cuttlefish core: stable-rank estimation, automatic (E, K, R) selection and
factorized low-rank training."""

from repro.core.stable_rank import (
    accumulative_rank,
    full_rank_of,
    initial_scale_factor,
    module_rank_estimate,
    module_stable_rank,
    scaled_stable_rank,
    singular_value_cdf,
    singular_values,
    stable_rank,
    weight_to_matrix,
)
from repro.core.low_rank_layers import (
    LowRankConv2d,
    LowRankLinear,
    is_low_rank,
    merge_factorized,
)
from repro.core.factorize import (
    factorize_conv2d,
    factorize_linear,
    factorize_model,
    factorize_module,
    hybrid_parameter_count,
    installed_rank,
    materialize_low_rank,
    reconstruction_error,
    svd_factorize,
    would_reduce_parameters,
)
from repro.core.rank_tracker import LayerRankHistory, RankTracker
from repro.core.frobenius_decay import FrobeniusDecay, frobenius_penalty
from repro.core.profiler import ProfilingResult, StackProfile, profile_layer_stacks
from repro.core.cuttlefish import (
    CuttlefishCallback,
    CuttlefishConfig,
    CuttlefishManager,
    CuttlefishMethod,
    CuttlefishReport,
    train_cuttlefish,
)

__all__ = [
    "accumulative_rank",
    "full_rank_of",
    "initial_scale_factor",
    "module_rank_estimate",
    "module_stable_rank",
    "scaled_stable_rank",
    "singular_value_cdf",
    "singular_values",
    "stable_rank",
    "weight_to_matrix",
    "LowRankConv2d",
    "LowRankLinear",
    "is_low_rank",
    "merge_factorized",
    "materialize_low_rank",
    "factorize_conv2d",
    "factorize_linear",
    "factorize_model",
    "factorize_module",
    "hybrid_parameter_count",
    "installed_rank",
    "reconstruction_error",
    "svd_factorize",
    "would_reduce_parameters",
    "LayerRankHistory",
    "RankTracker",
    "FrobeniusDecay",
    "frobenius_penalty",
    "ProfilingResult",
    "StackProfile",
    "profile_layer_stacks",
    "CuttlefishCallback",
    "CuttlefishConfig",
    "CuttlefishManager",
    "CuttlefishMethod",
    "CuttlefishReport",
    "train_cuttlefish",
]
