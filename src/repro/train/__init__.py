"""Training loops, metrics and experiment utilities.

Public names load on first access (DESIGN.md §2).  Besides keeping a server
free of the trainer, this keeps the imports acyclic:
``repro.train.experiments`` depends on :mod:`repro.core`, whose Cuttlefish
trainer, like every baseline, imports the trainer and the method registry
from this package.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "methods": ["ExperimentContext", "Method", "MethodResult", "available_methods",
                "build_method", "low_rank_ratios", "method_descriptions", "register_method"],
    "metrics": ["AverageMeter", "accuracy", "classification_metric", "f1_score",
                "matthews_corrcoef", "mlm_loss", "spearman_correlation", "top_k_accuracy"],
    "trainer": ["Callback", "EpochRecord", "Trainer", "default_forward_fn", "default_loss_fn"],
    "experiments": ["ExperimentRow", "ExperimentSpec", "VisionExperimentConfig", "format_rows",
                    "run_experiment", "run_vision_method", "reference_profiling",
                    "projected_training_hours"],
})
