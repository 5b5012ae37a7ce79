"""Weight initialisation schemes.

Includes the standard Kaiming/Xavier initialisers used by the full-rank
architectures and the *spectral initialisation* of Khodak et al. (2020) used
by the SI&FD baseline, where a factorized pair (U, Vᵀ) is initialised from the
truncated SVD of a conventionally-initialised full-rank weight.

Inside :func:`shapes_only` every random initialiser returns zeros and draws
nothing: a model built there has the right shapes and no weight values, which
is all the shape-only roofline pricing reads.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.tensor.tensor import DEFAULT_DTYPE
from repro.utils import get_rng


class _ShapesOnly(threading.local):
    """Whether the calling thread is inside :func:`shapes_only`.

    Per thread for the reason :func:`repro.tensor.use_backend` is: a model
    another thread builds at the same time keeps its real draws.
    """

    enabled: bool = False


_shapes_only = _ShapesOnly()


class _NoDraws:
    """The generator :func:`shapes_only` yields: nothing built inside the block
    draws, so any use of it is a bug and fails loudly."""

    def __getattr__(self, name: str):
        raise RuntimeError(f"a weight-free build has no random generator (asked for {name!r})")


@contextlib.contextmanager
def shapes_only() -> Iterator[_NoDraws]:
    """Build weight-free models on the calling thread for the block.

    Every random initialiser (``kaiming_*``, ``xavier_*``, ``truncated_normal``,
    ``spectral_init``) returns float32 zeros of the requested shape and leaves
    its generator untouched.  ``np.zeros`` pages that nothing writes are never
    made resident, so a paper-scale model built here costs neither the draws
    nor the memory of its weights.  Use it only for models whose weight values
    nothing reads.

    The block yields a stand-in generator that fails on any draw.  Passed as
    a builder's ``rng``, it spares the build creating a real generator, so a
    process that builds only weight-free models never imports
    ``numpy.random`` (~6 MB resident).
    """
    previous = _shapes_only.enabled
    _shapes_only.enabled = True
    try:
        yield _NoDraws()
    finally:
        _shapes_only.enabled = previous


def _fan_in_fan_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute fan-in/fan-out for linear (out, in) or conv (out, in, kh, kw) weights."""
    if len(shape) == 2:
        fan_out, fan_in = shape
    elif len(shape) == 4:
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        fan_in = fan_out = int(np.prod(shape)) // max(shape[0], 1)
    return fan_in, fan_out


def kaiming_normal(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """He-normal initialisation appropriate for ReLU networks."""
    if _shapes_only.enabled:
        return zeros(shape)
    rng = rng or get_rng()
    fan_in, _ = _fan_in_fan_out(shape)
    std = np.sqrt(2.0 / max(fan_in, 1))
    return (rng.standard_normal(shape) * std).astype(DEFAULT_DTYPE)


def kaiming_uniform(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None) -> np.ndarray:
    if _shapes_only.enabled:
        return zeros(shape)
    rng = rng or get_rng()
    fan_in, _ = _fan_in_fan_out(shape)
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(DEFAULT_DTYPE)


def xavier_normal(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None) -> np.ndarray:
    if _shapes_only.enabled:
        return zeros(shape)
    rng = rng or get_rng()
    fan_in, fan_out = _fan_in_fan_out(shape)
    std = np.sqrt(2.0 / max(fan_in + fan_out, 1))
    return (rng.standard_normal(shape) * std).astype(DEFAULT_DTYPE)


def xavier_uniform(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None) -> np.ndarray:
    if _shapes_only.enabled:
        return zeros(shape)
    rng = rng or get_rng()
    fan_in, fan_out = _fan_in_fan_out(shape)
    bound = np.sqrt(6.0 / max(fan_in + fan_out, 1))
    return rng.uniform(-bound, bound, size=shape).astype(DEFAULT_DTYPE)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=DEFAULT_DTYPE)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=DEFAULT_DTYPE)


def truncated_normal(
    shape: Tuple[int, ...], std: float = 0.02, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Normal samples clipped to ±2 std, as used for transformer embeddings."""
    if _shapes_only.enabled:
        return zeros(shape)
    rng = rng or get_rng()
    samples = rng.standard_normal(shape) * std
    return np.clip(samples, -2 * std, 2 * std).astype(DEFAULT_DTYPE)


def spectral_init(
    full_shape: Tuple[int, int],
    rank: int,
    rng: Optional[np.random.Generator] = None,
    base_init=kaiming_normal,
) -> Tuple[np.ndarray, np.ndarray]:
    """Spectral initialisation of a factorized pair (Khodak et al., 2020).

    A full-rank matrix of ``full_shape = (m, n)`` is drawn from ``base_init``,
    its rank-``rank`` truncated SVD ``W ≈ U Σ Vᵀ`` is computed and the factors
    ``U Σ^{1/2}`` (shape ``(m, rank)``) and ``Σ^{1/2} Vᵀ`` (shape ``(rank, n)``)
    are returned.  This approximates the behaviour of the base initialiser when
    the factors are multiplied back together.
    """
    m, n = full_shape
    rank = int(min(rank, m, n))
    if _shapes_only.enabled:
        return zeros((m, rank)), zeros((rank, n))
    full = base_init((m, n), rng=rng).astype(np.float64)
    u, s, vt = np.linalg.svd(full, full_matrices=False)
    root = np.sqrt(s[:rank])
    u_factor = (u[:, :rank] * root[None, :]).astype(DEFAULT_DTYPE)
    v_factor = (root[:, None] * vt[:rank, :]).astype(DEFAULT_DTYPE)
    return u_factor, v_factor
