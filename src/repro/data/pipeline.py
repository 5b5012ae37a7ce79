"""Streaming batch pipeline: vectorized loading, prefetching, reusable arenas.

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
  depend only on ``(root_seed, epoch, sample_id)`` — never on batch size,
  iteration order, prefetch depth or worker count.
* :class:`PrefetchingLoader` — wraps any ``BatchStream`` with bounded-queue
  producer threads (the shared :mod:`repro.utils.concurrency` primitives)
  so batch (i+1..i+depth) materialises while the model computes step i.
  Producer exceptions surface loudly on the consumer thread; early exits
  shut producers down deterministically.  Because batch content is a pure
  function of ``(epoch, batch_index)``, prefetched output is bit-identical
  to the synchronous loader at every depth and worker count.
* :class:`CollateArena` — a small ring of reusable collate buffers.  On the
  ``numpy-fast`` backend the ring draws its buffers from the backend's
  pooled allocator, so the input pipeline and the autograd engine share one
  buffer economy.

Sharding for data-parallel training comes from
:class:`~repro.data.sampler.ShardedSampler` plugged into ``PipelineLoader``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.augment import supports_batch
from repro.data.dataset import ArrayDataset, Dataset, Subset, _default_collate
from repro.data.sampler import Sampler, SequentialSampler, ShardedSampler, ShuffledSampler
from repro.telemetry import tracing as _tracing
from repro.utils import CLOSED, BackgroundProducer, ClosableQueue, ProducerFailure

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


class CollateArena:
    """Ring of reusable batch buffers, shared with the backend allocator.

    ``take(shape, dtype)`` hands out buffers round-robin from a per-shape
    ring of ``slots`` entries, so a buffer is only reused after ``slots - 1``
    other batches of the same shape were handed out.  Consumers that retain
    a batch longer than that (``slots`` defaults to prefetch depth + 2,
    comfortably past the one-step lifetime of a training batch) must copy.
    On backends that pool buffers (``numpy-fast``) fresh ring entries come
    from the backend arena — freed gradient buffers of matching layout get a
    second life as collate buffers.
    """

    def __init__(self, slots: int = 4):
        if slots < 2:
            raise ValueError(f"CollateArena needs at least 2 slots, got {slots}")
        self.slots = slots
        self._rings: dict = {}
        self._lock = threading.Lock()

    def _allocate(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        from repro.tensor.backend import get_backend  # lazy: avoid data→tensor import cycle

        backend = get_backend()
        if getattr(backend, "pool_buffers", False):
            return backend.take(shape, dtype)
        return np.empty(shape, dtype=dtype)

    def take(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype).str)
        with self._lock:
            ring: List[np.ndarray] = self._rings.setdefault(key, [])
            if len(ring) < self.slots:
                buf = self._allocate(key[0], dtype)
            else:
                buf = ring.pop(0)
            ring.append(buf)
            return buf


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
    from scratch, which is what makes prefetch workers, mid-epoch resume and
    bit-parity testing possible.  Shuffling is epoch-keyed (same epoch ⇒
    same order) through a :class:`~repro.data.sampler.Sampler`; pass a
    ``ShardedSampler`` for data-parallel shards.

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
        reuse_buffers: bool = False,
        arena_slots: int = 4,
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
        self.arena = CollateArena(slots=arena_slots) if reuse_buffers else None
        self._base, self._base_indices = _resolve_array_base(dataset)
        self._order_cache: Tuple[int, Optional[np.ndarray]] = (-1, None)
        self._order_lock = threading.Lock()

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
        with self._order_lock:
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
            # Lands on the calling thread's lane — prefetch workers show
            # their loads overlapping the consumer's steps in the timeline.
            _tracing.record_span("load_batch", load_start, time.perf_counter(),
                                 cat="data", batch=batch_index)
        return batch

    def _gather(self, array: np.ndarray, ids: np.ndarray) -> np.ndarray:
        if self.arena is not None and array.ndim >= 1:
            buf = self.arena.take((len(ids),) + array.shape[1:], array.dtype)
            np.take(array, ids, axis=0, out=buf)
            return buf
        return array[ids]

    def _load_vectorized(self, idx: np.ndarray, epoch: int) -> Batch:
        base = self._base
        ids = idx if self._base_indices is None else self._base_indices[idx]
        fields = [self._gather(array, ids) for array in base.arrays]
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


class PrefetchingLoader(BatchStream):
    """Double-buffered background prefetch over any :class:`BatchStream`.

    ``depth`` bounds how many materialised batches may sit in flight (the
    bounded queue is the backpressure).  With ``workers > 1`` the inner
    loader must support random access (``load_batch``); batch ``b`` is
    produced by worker ``b % workers`` and the consumer round-robins the
    per-worker queues, so delivery order — and with counter-based RNG,
    content — is identical to the synchronous loader no matter how the
    workers interleave.

    Failure semantics: an exception on a producer thread is forwarded and
    re-raised on the consumer thread (with the producer traceback attached);
    abandoning the iterator mid-epoch (break, error, GC) stops and joins the
    producers deterministically.
    """

    def __init__(self, loader: BatchStream, depth: int = 2, workers: int = 1):
        if depth < 1:
            raise ValueError(f"prefetch depth must be >= 1, got {depth} "
                             f"(use the inner loader directly for synchronous loading)")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if workers > 1 and not hasattr(loader, "load_batch"):
            raise TypeError(
                f"multi-worker prefetch needs a randomly addressable loader "
                f"(load_batch); {type(loader).__name__} only supports iteration")
        self.loader = loader
        self.depth = depth
        self.workers = workers

    def set_epoch(self, epoch: int) -> None:
        set_epoch = getattr(self.loader, "set_epoch", None)
        if set_epoch is not None:
            set_epoch(epoch)

    def __len__(self) -> int:
        return len(self.loader)

    @property
    def vectorized(self) -> bool:
        return getattr(self.loader, "vectorized", False)

    def _sources(self, num_batches: int, epoch: Optional[int]):
        """One iterable factory per worker (round-robin batch assignment)."""
        if self.workers == 1:
            return [lambda: iter(self.loader)]

        def make(worker: int):
            def source():
                for batch_index in range(worker, num_batches, self.workers):
                    yield self.loader.load_batch(batch_index, epoch)
            return source

        return [make(worker) for worker in range(self.workers)]

    def __iter__(self) -> Iterator[Batch]:
        num_batches = len(self.loader)
        epoch = getattr(self.loader, "epoch", None)
        per_queue_depth = max(1, -(-self.depth // self.workers))
        stop = threading.Event()
        queues = [ClosableQueue(per_queue_depth) for _ in range(self.workers)]
        producers = [
            BackgroundProducer(source, queue, name=f"prefetch-w{worker}", stop=stop)
            for worker, (source, queue) in enumerate(zip(self._sources(num_batches, epoch), queues))
        ]
        for producer in producers:
            producer.start()
        try:
            for batch_index in range(num_batches):
                item = queues[batch_index % self.workers].get()
                if isinstance(item, ProducerFailure):
                    item.reraise()
                if item is CLOSED:
                    raise RuntimeError(
                        f"prefetch producer ended after {batch_index} of "
                        f"{num_batches} batches")
                yield item
        finally:
            for producer in producers:
                producer.stop()


def shard_loader(loader: BatchStream, rank: int, world_size: int) -> BatchStream:
    """Derive rank ``rank``'s shard view of a pipeline loader.

    Returns a new :class:`PipelineLoader` over the same dataset, batch size
    and RNG keys whose sampler is the :class:`~repro.data.sampler.ShardedSampler`
    slice for ``(rank, world_size)`` — every rank sees ``1/world_size`` of the
    same epoch-keyed global permutation, padded to equal length.  A
    :class:`PrefetchingLoader` wrapper is re-applied around the sharded inner
    loader with the same depth/worker settings.
    """
    if isinstance(loader, PrefetchingLoader):
        inner = shard_loader(loader.loader, rank, world_size)
        return PrefetchingLoader(inner, depth=loader.depth, workers=loader.workers)
    if not isinstance(loader, PipelineLoader):
        raise TypeError(
            f"shard_loader needs a PipelineLoader (or a PrefetchingLoader "
            f"around one), got {type(loader).__name__} — data-parallel "
            f"training requires the streaming pipeline")
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
        reuse_buffers=loader.arena is not None,
        arena_slots=loader.arena.slots if loader.arena is not None else 4,
    )


def build_replica_loaders(
    train_dataset: Dataset,
    batch_size: int,
    world_size: int,
    prefetch_depth: int = 0,
    workers: int = 1,
    reuse_buffers: bool = False,
    seed_offset: int = 7,
):
    """One sharded train loader per rank for data-parallel training.

    Rank ``r`` gets a :class:`PipelineLoader` over ``train_dataset`` whose
    sampler is ``ShardedSampler(n, rank=r, world_size)`` — all ranks share the
    epoch's global permutation and split it into disjoint, equal-length
    shards (padded by cyclic repetition), which is what keeps the replica
    workers in lockstep for the all-reduce.  With ``prefetch_depth > 0`` each
    rank's loader is additionally prefetched on its own producer threads.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    n = len(train_dataset)
    workers = max(1, workers)
    queued = workers * max(1, -(-prefetch_depth // workers)) if prefetch_depth > 0 else 0
    loaders = []
    for rank in range(world_size):
        sampler = ShardedSampler(n, rank=rank, world_size=world_size,
                                 shuffle=True, seed_offset=seed_offset)
        loader: BatchStream = PipelineLoader(
            train_dataset, batch_size, sampler=sampler,
            seed_offset=seed_offset, reuse_buffers=reuse_buffers,
            arena_slots=max(4, queued + workers + 2),
        )
        if prefetch_depth > 0:
            loader = PrefetchingLoader(loader, depth=prefetch_depth, workers=workers)
        loaders.append(loader)
    return loaders


def build_loaders(
    train_dataset: Dataset,
    val_dataset: Optional[Dataset],
    batch_size: int,
    prefetch_depth: int = 0,
    workers: int = 1,
    reuse_buffers: bool = False,
    rank: int = 0,
    world_size: int = 1,
    seed_offset: int = 7,
):
    """Wire up the standard (train, val) pipeline pair.

    The train loader shuffles (sharded when ``world_size > 1``) and is
    wrapped in a :class:`PrefetchingLoader` when ``prefetch_depth > 0``; the
    validation loader stays synchronous and sequential (evaluation transforms
    carry no randomness, and keeping it simple makes eval order stable).
    """
    sampler = None
    if world_size > 1:
        sampler = ShardedSampler(len(train_dataset), rank=rank, world_size=world_size,
                                 shuffle=True, seed_offset=seed_offset)
    # Ring sizing must cover every buffer that can be live at once: batches
    # queued across the per-worker queues (workers * ceil(depth/workers)),
    # one batch in each blocked producer's hands, the batch the consumer is
    # training on, plus one of slack for the autograd graph's reference.
    workers = max(1, workers)
    queued = workers * max(1, -(-prefetch_depth // workers)) if prefetch_depth > 0 else 0
    train_loader: BatchStream = PipelineLoader(
        train_dataset, batch_size, shuffle=True, sampler=sampler,
        seed_offset=seed_offset, reuse_buffers=reuse_buffers,
        arena_slots=max(4, queued + workers + 2),
    )
    if prefetch_depth > 0:
        train_loader = PrefetchingLoader(train_loader, depth=prefetch_depth, workers=workers)
    val_loader = None
    if val_dataset is not None:
        val_loader = PipelineLoader(val_dataset, batch_size, shuffle=False)
    return train_loader, val_loader


__all__ = [
    "Batch",
    "BatchStream",
    "CollateArena",
    "PipelineLoader",
    "PrefetchingLoader",
    "build_loaders",
    "build_replica_loaders",
    "shard_loader",
]
