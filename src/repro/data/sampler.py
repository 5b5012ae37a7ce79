"""Epoch-keyed index samplers for the streaming data pipeline.

A sampler maps ``epoch → index order``.  Unlike the legacy loader's stateful
generator (whose permutation depends on how many epochs were drawn before),
samplers here are pure functions of ``(root_seed, seed_offset, epoch)`` —
asking for epoch 3's order twice gives the same answer.  That replayability
is what makes mid-epoch resume and sharding deterministic.

``ShardedSampler`` is the data-parallel foothold: each rank sees a
deterministic 1/world_size slice of the same global permutation, padded so
every rank performs the same number of steps (the padding rule every
all-reduce training loop needs).
"""

from __future__ import annotations

import numpy as np

from repro.utils import get_epoch_rng


class Sampler:
    """Base: ``indices(epoch)`` returns the epoch's index order."""

    def __len__(self) -> int:
        raise NotImplementedError

    def indices(self, epoch: int) -> np.ndarray:
        raise NotImplementedError


class SequentialSampler(Sampler):
    """Indices ``0..n-1`` in order, every epoch."""

    def __init__(self, n: int):
        self.n = int(n)

    def __len__(self) -> int:
        return self.n

    def indices(self, epoch: int) -> np.ndarray:
        return np.arange(self.n)


class ShuffledSampler(Sampler):
    """A fresh permutation per epoch, keyed on ``(root_seed, seed_offset, epoch)``."""

    def __init__(self, n: int, seed_offset: int = 7):
        self.n = int(n)
        self.seed_offset = seed_offset

    def __len__(self) -> int:
        return self.n

    def indices(self, epoch: int) -> np.ndarray:
        return get_epoch_rng(self.seed_offset, epoch).permutation(self.n)


class ShardedSampler(Sampler):
    """Rank ``rank`` of ``world_size``'s slice of the epoch's global order.

    All ranks compute the same global permutation (same seed key), pad it to
    a multiple of ``world_size`` by repeating its head — deterministic, no
    rank ever starves — and take the strided slice ``order[rank::world_size]``.
    Shards are therefore disjoint over the original indices (padding aside),
    equally sized, and reproducible on every rank independently.
    """

    def __init__(self, n: int, rank: int, world_size: int,
                 shuffle: bool = True, seed_offset: int = 7):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if not 0 <= rank < world_size:
            raise ValueError(f"rank must be in [0, {world_size}), got {rank}")
        if n < 1:
            raise ValueError(f"ShardedSampler needs at least one sample, got n={n}")
        self.n = int(n)
        self.rank = rank
        self.world_size = world_size
        self.shuffle = shuffle
        self.seed_offset = seed_offset

    def __len__(self) -> int:
        return (self.n + self.world_size - 1) // self.world_size

    def indices(self, epoch: int) -> np.ndarray:
        if self.shuffle:
            order = get_epoch_rng(self.seed_offset, epoch).permutation(self.n)
        else:
            order = np.arange(self.n)
        pad = (-self.n) % self.world_size
        if pad:
            # Cyclic repetition (np.resize), not a head slice: when
            # world_size > n the pad exceeds the order itself, and a slice
            # would silently truncate — leaving some ranks with short or
            # empty shards, the lockstep violation padding exists to prevent.
            order = np.resize(order, self.n + pad)
        return order[self.rank::self.world_size]


__all__ = ["Sampler", "SequentialSampler", "ShuffledSampler", "ShardedSampler"]
