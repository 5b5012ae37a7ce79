"""Data-parallel training with deterministic gradient all-reduce.

The scale-out counterpart of the streaming data pipeline: ``ShardedSampler``
shards feed N forked replica workers that exchange gradients through shared
memory; the gradients meet in a fixed-order bucketed reduction tree
(bit-stable regardless of worker arrival order) before a single optimizer
step on the master model.  See DESIGN.md §11.
"""

from repro.distributed.engine import DataParallelTrainer
from repro.distributed.process import (
    ProcessReplicaGroup,
    ReplicaError,
    fork_available,
)
from repro.distributed.reduce import (
    DEFAULT_BUCKET_ELEMS,
    allreduce_gradients,
    broadcast_arrays,
    mean_reduce_buffers,
    plan_buckets,
    tree_reduce,
)

__all__ = [
    "DEFAULT_BUCKET_ELEMS",
    "DataParallelTrainer",
    "ProcessReplicaGroup",
    "ReplicaError",
    "allreduce_gradients",
    "broadcast_arrays",
    "fork_available",
    "mean_reduce_buffers",
    "plan_buckets",
    "tree_reduce",
]
