"""Data-parallel training with deterministic gradient all-reduce.

The scale-out counterpart of the streaming data pipeline: ``ShardedSampler``
shards feed N forked replica workers that exchange gradients through shared
memory; the gradients meet in a fixed-order bucketed reduction tree
(bit-stable regardless of worker arrival order) before a single optimizer
step on the master model.  See DESIGN.md §11.  Public names load on first
access (§2).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "engine": ["DataParallelTrainer"],
    "process": ["ProcessReplicaGroup", "ReplicaError"],
    "reduce": ["DEFAULT_BUCKET_ELEMS", "allreduce_gradients", "broadcast_arrays",
               "mean_reduce_buffers", "plan_buckets", "tree_reduce"],
})
