"""Streaming batch pipeline: the synchronous vectorized loader.

The legacy :class:`~repro.data.dataset.DataLoader` materialises batches with a
Python loop — ``__getitem__`` per sample, per-sample transforms, list-based
collate — which leaves the training step idle while the interpreter shuffles
single images around.  This module replaces that with a *streaming* pipeline:

* :class:`BatchStream` — the protocol every consumer (``Trainer``,
  ``evaluate``, ``run_experiment``, the benchmarks) codes against: a
  length-aware iterable of tuples of stacked arrays with an epoch knob.
* :class:`PipelineLoader` — a synchronous vectorized loader.  For
  ``ArrayDataset`` (and ``Subset`` views over one) it gathers whole batches
  by fancy indexing and applies *batch-level* transforms driven by
  counter-based per-sample RNG (``repro.utils.seed``), so augmentation bits
  depend only on ``(root_seed, epoch, sample_id)`` — never on batch size or
  iteration order.

Sharding for data-parallel training comes from
:class:`~repro.data.sampler.ShardedSampler` plugged into ``PipelineLoader``
(:func:`shard_loader`).  A loader batch of the ResNet cell costs well under
1% of a training step, so batches are built on the training thread; DESIGN
§10.4 has the measurements.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.data.augment import supports_batch
from repro.data.dataset import ArrayDataset, Dataset, Subset, _default_collate
from repro.data.sampler import Sampler, SequentialSampler, ShardedSampler, ShuffledSampler
from repro.telemetry import tracing as _tracing

Batch = Tuple[np.ndarray, ...]


class BatchStream:
    """Protocol for batch producers the training stack consumes.

    * ``len(stream)`` — number of batches per epoch;
    * ``iter(stream)`` — yields tuples of stacked numpy arrays;
    * ``set_epoch(epoch)`` — selects the epoch (shuffling order and
      augmentation bits are keyed on it); streams without per-epoch state
      inherit the no-op.

    The legacy ``DataLoader`` satisfies this protocol too, so every consumer
    works with either implementation.
    """

    def set_epoch(self, epoch: int) -> None:
        pass

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Batch]:
        raise NotImplementedError


def _resolve_array_base(dataset: Dataset):
    """Unwrap nested ``Subset`` views down to an ``ArrayDataset``.

    Returns ``(base, base_indices)`` where ``base_indices`` maps loader-level
    indices to *base* sample ids (``None`` for the identity), or
    ``(None, None)`` when the chain does not bottom out in an ArrayDataset —
    the loader then falls back to per-sample ``__getitem__``.

    The base ids matter: augmentation streams are keyed on them, so a sample
    keeps its per-epoch bits whether it is reached directly, through a
    train/val split or through a rank shard.
    """
    indices: Optional[np.ndarray] = None
    while isinstance(dataset, Subset):
        level = np.asarray(dataset.indices, dtype=np.int64)
        level = np.where(level < 0, level + len(dataset.dataset), level)
        indices = level if indices is None else level[indices]
        dataset = dataset.dataset
    if isinstance(dataset, ArrayDataset):
        return dataset, indices
    return None, None


class PipelineLoader(BatchStream):
    """Synchronous vectorized loader with counter-based augmentation RNG.

    Batches are addressable: ``load_batch(b)`` materialises epoch batch ``b``
    from scratch, which is what makes mid-epoch resume, the data-parallel
    parent's rank-0 reload and bit-parity testing possible.  Shuffling is
    epoch-keyed (same epoch ⇒ same order) through a
    :class:`~repro.data.sampler.Sampler`; pass a ``ShardedSampler`` for
    data-parallel shards.

    For datasets that are not ``ArrayDataset`` views the loader degrades to
    the legacy per-sample path (still streaming, but transforms keep their
    sequential RNG semantics and no vectorization applies).
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        shuffle: bool = False,
        drop_last: bool = False,
        sampler: Optional[Sampler] = None,
        seed_offset: int = 7,
        collate_fn: Optional[Callable] = None,
    ):
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.drop_last = drop_last
        self.collate_fn = collate_fn or _default_collate
        if sampler is None:
            n = len(dataset)
            sampler = ShuffledSampler(n, seed_offset=seed_offset) if shuffle \
                else SequentialSampler(n)
        self.sampler = sampler
        self.epoch = 0
        self._base, self._base_indices = _resolve_array_base(dataset)
        self._order_cache: Tuple[int, Optional[np.ndarray]] = (-1, None)

    # ------------------------------------------------------------------ #
    @property
    def vectorized(self) -> bool:
        """True when the fast fancy-index + batch-transform path is active."""
        return self._base is not None

    def set_epoch(self, epoch: int) -> None:
        self.epoch = int(epoch)

    def __len__(self) -> int:
        n = len(self.sampler)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def _order_for(self, epoch: int) -> np.ndarray:
        cached_epoch, cached = self._order_cache
        if cached_epoch != epoch:
            cached = np.asarray(self.sampler.indices(epoch))
            self._order_cache = (epoch, cached)
        return cached

    def load_batch(self, batch_index: int, epoch: Optional[int] = None) -> Batch:
        """Materialise batch ``batch_index`` of ``epoch`` (default: current)."""
        epoch = self.epoch if epoch is None else int(epoch)
        if not 0 <= batch_index < len(self):
            raise IndexError(f"batch index {batch_index} out of range for {len(self)} batches")
        traced = _tracing.enabled()
        if traced:
            load_start = time.perf_counter()
        order = self._order_for(epoch)
        start = batch_index * self.batch_size
        idx = order[start:start + self.batch_size]
        if self._base is not None:
            batch = self._load_vectorized(idx, epoch)
        else:
            samples = [self.dataset[int(i)] for i in idx]
            batch = self.collate_fn(samples)
        if traced:
            _tracing.record_span("load_batch", load_start, time.perf_counter(),
                                 cat="data", batch=batch_index)
        return batch

    def _load_vectorized(self, idx: np.ndarray, epoch: int) -> Batch:
        base = self._base
        ids = idx if self._base_indices is None else self._base_indices[idx]
        fields = [array[ids] for array in base.arrays]
        transform = base.transform
        if transform is not None:
            if supports_batch(transform):
                fields[0] = transform.apply_batch(fields[0], ids, epoch)
            else:
                fields[0] = np.stack([transform(x) for x in fields[0]])
        target_transform = getattr(base, "target_transform", None)
        if target_transform is not None and len(fields) > 1:
            if supports_batch(target_transform):
                fields[-1] = target_transform.apply_batch(fields[-1], ids, epoch)
            else:
                fields[-1] = np.stack([target_transform(y) for y in fields[-1]])
        return tuple(fields)

    def __iter__(self) -> Iterator[Batch]:
        for batch_index in range(len(self)):
            yield self.load_batch(batch_index)


def shard_loader(loader: BatchStream, rank: int, world_size: int) -> BatchStream:
    """Derive rank ``rank``'s shard view of a pipeline loader.

    Returns a new :class:`PipelineLoader` over the same dataset, batch size
    and RNG keys whose sampler is the :class:`~repro.data.sampler.ShardedSampler`
    slice for ``(rank, world_size)`` — every rank sees ``1/world_size`` of the
    same epoch-keyed global permutation, padded to equal length.
    """
    if not isinstance(loader, PipelineLoader):
        raise TypeError(
            f"shard_loader needs a PipelineLoader, got {type(loader).__name__} "
            f"— data-parallel training requires the streaming pipeline")
    sampler = loader.sampler
    shuffle = isinstance(sampler, ShuffledSampler) or bool(getattr(sampler, "shuffle", False))
    seed_offset = getattr(sampler, "seed_offset", 7)
    sharded = ShardedSampler(len(loader.dataset), rank=rank, world_size=world_size,
                             shuffle=shuffle, seed_offset=seed_offset)
    return PipelineLoader(
        loader.dataset, loader.batch_size,
        drop_last=loader.drop_last,
        sampler=sharded,
        collate_fn=loader.collate_fn,
    )


def build_loaders(
    train_dataset: Dataset,
    val_dataset: Optional[Dataset],
    batch_size: int,
    seed_offset: int = 7,
):
    """Wire up the standard (train, val) pipeline pair.

    The train loader shuffles; the validation loader is sequential
    (evaluation transforms carry no randomness, and keeping it simple makes
    eval order stable).
    """
    train_loader = PipelineLoader(train_dataset, batch_size, shuffle=True,
                                  seed_offset=seed_offset)
    val_loader = None
    if val_dataset is not None:
        val_loader = PipelineLoader(val_dataset, batch_size, shuffle=False)
    return train_loader, val_loader


__all__ = [
    "Batch",
    "BatchStream",
    "PipelineLoader",
    "build_loaders",
    "shard_loader",
]
