"""Deterministic seeding helpers.

Every stochastic component in the library (weight init, data synthesis,
dropout, augmentation) draws from numpy's global RNG or from an explicit
``numpy.random.Generator``.  ``seed_everything`` pins the global stream and
``get_rng`` hands out independent, reproducible generators derived from a
root seed, so experiments that run several trials can give each trial its own
stream without the streams colliding.

Two flavours of derived randomness exist:

* *sequential* generators (:func:`get_rng`, :func:`get_epoch_rng`) whose
  output depends on how many values have been drawn so far — right for
  weight init and shuffling permutations;
* *counter-based* streams (:func:`counter_uniforms` and friends) that map
  ``(key, counter, draw)`` straight to a value with no mutable state, in the
  spirit of Philox/Threefry.  The data pipeline keys augmentation on
  ``(root_seed, epoch, transform_stream, sample_id)``, which makes every
  augmentation bit a pure function of the sample's identity — independent of
  batch size, iteration order and data-parallel sharding.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

_ROOT_SEED = 0
_SEED_EPOCH = 0


def seed_everything(seed: int) -> None:
    """Seed Python's and numpy's global random number generators."""
    global _ROOT_SEED, _SEED_EPOCH
    _ROOT_SEED = int(seed)
    _SEED_EPOCH += 1
    random.seed(seed)
    np.random.seed(seed % (2**32 - 1))


def root_seed() -> int:
    """The root seed last installed by :func:`seed_everything`."""
    return _ROOT_SEED


def seed_state() -> tuple:
    """(root seed, reseed epoch) — changes on *every* ``seed_everything``.

    Lets derived-generator caches (e.g. the dropout fallback RNG) reset even
    when the same seed value is installed twice.
    """
    return (_ROOT_SEED, _SEED_EPOCH)


def get_rng(offset: int = 0) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` derived from the root seed.

    Parameters
    ----------
    offset:
        Sub-stream index.  Two calls with the same offset (and the same root
        seed) return generators producing identical streams.
    """
    return np.random.default_rng(np.random.SeedSequence([_ROOT_SEED, int(offset)]))


def get_epoch_rng(offset: int, epoch: int) -> np.random.Generator:
    """A generator keyed on ``(root_seed, offset, epoch)``.

    Unlike :func:`get_rng`, whose stream advances with every draw, asking for
    the same ``(offset, epoch)`` twice returns identical streams — this is
    what makes pipeline shuffling replayable for mid-epoch resume.
    """
    return np.random.default_rng(
        np.random.SeedSequence([_ROOT_SEED, int(offset), int(epoch)]))


# --------------------------------------------------------------------------- #
# Counter-based (Philox-style) streams
# --------------------------------------------------------------------------- #
_U64_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15          # 2^64 / phi — the Weyl increment
_MIX_A = 0xBF58476D1CE4E5B9           # splitmix64 finalizer constants
_MIX_B = 0x94D049BB133111EB


def _mix_int(x: int) -> int:
    """splitmix64 finalizer over Python ints (exact 64-bit wraparound)."""
    x &= _U64_MASK
    x = ((x ^ (x >> 30)) * _MIX_A) & _U64_MASK
    x = ((x ^ (x >> 27)) * _MIX_B) & _U64_MASK
    return (x ^ (x >> 31)) & _U64_MASK


def _mix_array(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 arithmetic wraps silently)."""
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_A)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_B)
    x ^= x >> np.uint64(31)
    return x


def _fold_key(key: Sequence[int]) -> int:
    """Absorb a tuple of integers into one well-mixed 64-bit state."""
    state = _GOLDEN
    for part in key:
        state = _mix_int(state ^ _mix_int((int(part) + 1) * _GOLDEN))
    return state


def counter_bits(key: Sequence[int], counters, draws: int = 1) -> np.ndarray:
    """Counter-based random bits: shape ``(len(counters), draws)`` uint64.

    A pure function of ``(key, counter, draw_index)`` — no state advances, so
    any subset of counters can be evaluated in any order (or in parallel) and
    produce the same bits.  The mixing is a Weyl-sequence + splitmix64
    construction, the same recipe Philox-style generators use: absorb the key,
    add a per-counter increment, finalize per draw.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    counters = np.atleast_1d(np.asarray(counters))
    if counters.ndim != 1:
        raise ValueError(f"counters must be one-dimensional, got shape {counters.shape}")
    base = np.uint64(_fold_key(key))
    state = _mix_array(base ^ (counters.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN))
    out = np.empty((len(counters), draws), dtype=np.uint64)
    for draw in range(draws):
        out[:, draw] = _mix_array(state + np.uint64((draw * _MIX_B) & _U64_MASK))
    return out


def counter_uniforms(key: Sequence[int], counters, draws: int = 1) -> np.ndarray:
    """Counter-based uniforms in ``[0, 1)``: shape ``(len(counters), draws)``.

    Uses the top 53 bits of :func:`counter_bits`, the standard
    uint64→float64 conversion.
    """
    bits = counter_bits(key, counters, draws)
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def counter_integers(key: Sequence[int], counters, high: int, draws: int = 1) -> np.ndarray:
    """Counter-based integers in ``[0, high)``: shape ``(len(counters), draws)``."""
    if high < 1:
        raise ValueError(f"high must be >= 1, got {high}")
    uniforms = counter_uniforms(key, counters, draws)
    return np.minimum((uniforms * high).astype(np.int64), high - 1)


def sample_uniforms(sample_ids, epoch: int = 0, stream: int = 0, draws: int = 1) -> np.ndarray:
    """Per-sample uniforms keyed on ``(root_seed, epoch, stream, sample_id)``.

    This is the augmentation entry point: ``stream`` separates transforms
    (each transform instance uses its ``seed_offset``), ``epoch`` refreshes
    the bits every epoch, and ``sample_ids`` index samples in the *base*
    dataset so subsets and shards agree on every sample's bits.
    """
    return counter_uniforms((_ROOT_SEED, int(epoch), int(stream)), sample_ids, draws)


def sample_integers(sample_ids, high: int, epoch: int = 0, stream: int = 0,
                    draws: int = 1) -> np.ndarray:
    """Per-sample integers in ``[0, high)`` keyed like :func:`sample_uniforms`."""
    return counter_integers((_ROOT_SEED, int(epoch), int(stream)), sample_ids, high, draws)
