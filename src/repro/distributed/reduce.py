"""Deterministic bucketed all-reduce primitives for data-parallel training.

Floating-point addition is not associative, so a gradient all-reduce that sums
"whichever replica finished first" produces run-to-run bit differences even
with perfectly deterministic per-replica math.  The reduction here removes the
scheduler from the numerics entirely:

* replicas are combined in a **fixed pairwise reduction tree** over rank order
  (``(0+1) + (2+3) …``), so the float-op sequence is a pure function of
  ``world_size`` — never of worker arrival order;
* parameters are packed into contiguous flat **buckets** in model parameter
  order before reduction (one tree per bucket instead of one per tensor),
  which keeps the reduce loop in long vectorised adds;
* the mean is taken by a single post-sum division by ``world_size``, matching
  the "average of per-replica mean losses == mean over the union batch"
  identity that :class:`~repro.data.sampler.ShardedSampler`'s equal-length
  padded shards guarantee.

Everything in this module operates on plain numpy arrays so it can be tested
without models and reused for buffer (BatchNorm statistics) synchronisation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

#: Default bucket capacity in *elements* (not bytes): 2^18 float32s = 1 MiB.
DEFAULT_BUCKET_ELEMS = 1 << 18


def tree_reduce(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Sum ``arrays`` with a fixed pairwise reduction tree over index order.

    The combination order depends only on ``len(arrays)``: neighbours are
    added pairwise, then pair-sums pairwise, and so on — the same tree a
    recursive-halving all-reduce walks.  A single input is returned as-is
    (callers that mutate the result must copy first in that case).
    """
    if not arrays:
        raise ValueError("tree_reduce needs at least one array")
    level: List[np.ndarray] = list(arrays)
    while len(level) > 1:
        paired: List[np.ndarray] = []
        for i in range(0, len(level) - 1, 2):
            paired.append(level[i] + level[i + 1])
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def plan_buckets(sizes: Sequence[int], bucket_elems: int = DEFAULT_BUCKET_ELEMS) -> List[List[int]]:
    """Partition tensor indices (in order) into contiguous buckets.

    Greedy in parameter order: a bucket closes once it holds ``bucket_elems``
    elements.  A single tensor larger than the cap gets a bucket of its own —
    tensors are never split, so pack/unpack stay simple views.
    """
    if bucket_elems < 1:
        raise ValueError(f"bucket_elems must be >= 1, got {bucket_elems}")
    buckets: List[List[int]] = []
    current: List[int] = []
    filled = 0
    for index, size in enumerate(sizes):
        if current and filled + int(size) > bucket_elems:
            buckets.append(current)
            current, filled = [], 0
        current.append(index)
        filled += int(size)
    if current:
        buckets.append(current)
    return buckets


def _pack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Flatten ``arrays`` into one contiguous 1-D buffer (C order)."""
    if len(arrays) == 1:
        return np.ascontiguousarray(arrays[0]).ravel()
    return np.concatenate([np.ascontiguousarray(a).ravel() for a in arrays])


def allreduce_gradients(
    replica_grads: Sequence[Sequence[Optional[np.ndarray]]],
    out_grads: Sequence[Optional[np.ndarray]],
    bucket_elems: int = DEFAULT_BUCKET_ELEMS,
) -> int:
    """Mean-reduce per-replica gradients into ``out_grads``, deterministically.

    ``replica_grads[r][i]`` is replica ``r``'s gradient for parameter ``i``
    (replica 0 may alias ``out_grads`` — the master's accumulators).  Every
    replica must agree on which parameters have gradients; a parameter whose
    gradient is ``None`` everywhere is skipped (the optimizer skips it too),
    while a rank-dependent ``None`` means the replicas ran different graphs
    and raises ``RuntimeError`` rather than silently dropping a contribution.

    Returns the number of parameters reduced.
    """
    world_size = len(replica_grads)
    if world_size < 1:
        raise ValueError("allreduce_gradients needs at least one replica")
    out_grads = list(out_grads)
    n = len(out_grads)
    for rank, grads in enumerate(replica_grads):
        if len(grads) != n:
            raise ValueError(
                f"replica {rank} tracks {len(grads)} gradients, expected {n} "
                "(model structure diverged across replicas)")
    present = [replica_grads[0][i] is not None for i in range(n)]
    for rank in range(1, world_size):
        for i in range(n):
            if (replica_grads[rank][i] is not None) != present[i]:
                raise RuntimeError(
                    f"gradient presence mismatch for parameter {i}: rank 0 "
                    f"{'has' if present[i] else 'lacks'} a gradient but rank "
                    f"{rank} does not agree — replicas ran different graphs")
    active = [i for i in range(n) if present[i]]
    if not active:
        return 0
    if world_size == 1:
        return len(active)  # grads already live in the master accumulators

    for bucket in plan_buckets([replica_grads[0][i].size for i in active], bucket_elems):
        indices = [active[b] for b in bucket]
        flats = [_pack([replica_grads[rank][i] for i in indices])
                 for rank in range(world_size)]
        total = tree_reduce(flats)
        total /= np.asarray(world_size, dtype=total.dtype)
        offset = 0
        for i in indices:
            out = out_grads[i]
            span = total[offset:offset + out.size]
            np.copyto(out, span.reshape(out.shape))
            offset += out.size
    return len(active)


def broadcast_arrays(sources: Sequence[np.ndarray],
                     destinations: Sequence[Sequence[np.ndarray]]) -> None:
    """Copy each source array into the matching slot of every destination set."""
    for dest_set in destinations:
        if len(dest_set) != len(sources):
            raise ValueError(
                f"broadcast destination tracks {len(dest_set)} arrays, "
                f"expected {len(sources)}")
        for src, dst in zip(sources, dest_set):
            np.copyto(dst, src)


def mean_reduce_buffers(buffer_sets: Sequence[Sequence[np.ndarray]]) -> List[np.ndarray]:
    """Deterministically average aligned buffer sets (BatchNorm statistics).

    Float buffers are tree-summed over rank order and divided by the replica
    count; non-float buffers (counters, masks) take rank 0's value — there is
    no meaningful mean for them.  Returns fresh arrays (inputs untouched).
    """
    world_size = len(buffer_sets)
    if world_size < 1:
        raise ValueError("mean_reduce_buffers needs at least one replica")
    n = len(buffer_sets[0])
    for rank, buffers in enumerate(buffer_sets):
        if len(buffers) != n:
            raise ValueError(f"replica {rank} has {len(buffers)} buffers, expected {n}")
    reduced: List[np.ndarray] = []
    for i in range(n):
        arrays = [buffer_sets[rank][i] for rank in range(world_size)]
        if not np.issubdtype(arrays[0].dtype, np.floating):
            reduced.append(arrays[0].copy())
            continue
        total = tree_reduce(arrays)
        if total is arrays[0]:
            total = total.copy()
        total /= np.asarray(world_size, dtype=total.dtype)
        reduced.append(total)
    return reduced


__all__ = [
    "DEFAULT_BUCKET_ELEMS",
    "allreduce_gradients",
    "broadcast_arrays",
    "mean_reduce_buffers",
    "plan_buckets",
    "tree_reduce",
]
