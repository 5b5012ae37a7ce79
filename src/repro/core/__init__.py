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
from repro import _lazy_exports

# ``stable_rank``, ``low_rank_layers`` and ``factorize`` load eagerly: serving
# needs all three, and the function ``stable_rank`` must win over the
# submodule of the same name, which an import would bind here.  The rest —
# rank tracking, Frobenius decay, Algorithm 2 and the Cuttlefish trainer —
# loads on first access (DESIGN.md §2).
__getattr__, __dir__, _lazy_names = _lazy_exports(__name__, {
    "rank_tracker": ["LayerRankHistory", "RankTracker"],
    "frobenius_decay": ["FrobeniusDecay", "frobenius_penalty"],
    "profiler": ["ProfilingResult", "StackProfile", "profile_layer_stacks"],
    "cuttlefish": ["CuttlefishCallback", "CuttlefishConfig", "CuttlefishManager",
                   "CuttlefishMethod", "CuttlefishReport", "train_cuttlefish"],
})

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
] + _lazy_names
