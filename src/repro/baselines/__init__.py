"""Baseline methods the paper compares Cuttlefish against.

Each module defines a thin :class:`~repro.train.methods.Method` adapter next
to its algorithm code and registers it with the unified method registry
(``repro.train.methods``) when imported.  The registry imports a baseline's
module the first time that method is built (DESIGN.md §3), and this
package's public names load on first access (§2), so naming one baseline
imports no other.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "pufferfish": ["PufferfishCallback", "PufferfishConfig", "PufferfishMethod",
                   "PufferfishReport", "train_pufferfish"],
    "si_fd": ["SIFDConfig", "SIFDMethod", "SIFDReport", "build_si_fd_model", "train_si_fd"],
    "lc_compression": ["LCCallback", "LCConfig", "LCMethod", "LCReport", "optimal_rank",
                       "train_lc_compression"],
    "imp": ["IMPConfig", "IMPMethod", "IMPReport", "MaskManager", "prunable_parameters",
            "train_imp"],
    "xnor": ["BinarizationAccountingCallback", "BinarizedConv2d", "BinarizedLinear",
             "XNORMethod", "binarize_activations", "binarize_with_ste", "convert_to_xnor",
             "effective_parameter_fraction"],
    "grasp": ["GraSPConfig", "GraSPMethod", "GraSPReport", "apply_masks",
              "compute_grasp_masks", "make_mask_grad_hook", "train_grasp"],
    "early_bird": ["EarlyBirdCallback", "EarlyBirdConfig", "EarlyBirdMethod",
                   "EarlyBirdReport", "train_early_bird"],
    "distillation": ["DistillationConfig", "build_student", "make_distillation_loss",
                     "soft_cross_entropy", "train_distilled_student"],
})
