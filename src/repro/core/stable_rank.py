"""Stable rank estimation (Section 3.3 of the paper).

The *stable rank* of a matrix with singular values σ₁ ≥ σ₂ ≥ … is

    stable_rank(Σ) = (Σᵢ σᵢ²) / σ₁²  =  ‖W‖_F² / ‖W‖₂²

It is a smooth proxy for the true rank that ignores tiny singular values and
needs no extra hyper-parameters.  The paper refines it in two ways:

* **scaled stable rank** — multiply by ξ = full_rank(W⁰) / stable_rank(Σ⁰),
  the ratio measured at initialisation, so that a freshly initialised matrix
  is treated as (approximately) full rank.  Without this correction the rank
  estimates for large tasks (ImageNet, transformers) are too aggressive
  (Tables 15/16).
* **accumulative rank** — the smallest r such that the top-r singular values
  hold a fraction ``p`` of the total singular mass; §C.2 proposes
  ``max(scaled stable rank, accumulative_rank(p=0.8))`` for transformer
  weights, which are far less redundant than CNN weights.

Convolution weights of shape (out, in, kh, kw) are unrolled to the 2-D matrix
of shape (in·kh·kw, out) the paper factorizes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn


def weight_to_matrix(module: nn.Module) -> np.ndarray:
    """Return the 2-D matrix whose rank Cuttlefish estimates for ``module``.

    * ``Linear`` → the (out, in) weight as is.
    * ``Conv2d`` → the unrolled (in·kh·kw, out) matrix, each column one
      vectorised filter (Section 2.1 of the paper).
    """
    from repro.core.low_rank_layers import LowRankConv2d, LowRankLinear  # local import: avoid cycle

    if isinstance(module, (LowRankLinear, LowRankConv2d)):
        return module.composed_weight()
    if isinstance(module, nn.Conv2d):
        out_c, in_c, kh, kw = module.weight.shape
        return module.weight.data.transpose(1, 2, 3, 0).reshape(in_c * kh * kw, out_c)
    if isinstance(module, nn.Linear):
        return module.weight.data
    raise TypeError(f"cannot extract a weight matrix from {type(module).__name__}")


def full_rank_of(module_or_matrix) -> int:
    """min(m, n) of the layer's unrolled weight matrix."""
    matrix = module_or_matrix if isinstance(module_or_matrix, np.ndarray) else weight_to_matrix(module_or_matrix)
    return int(min(matrix.shape))


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values in descending order (no singular vectors — cheap).

    A NaN or infinite entry raises ``ValueError`` before the SVD runs: LAPACK
    fails on NaN, and on inf returns NaN singular values that
    :func:`stable_rank` would turn into a silent rank of 0.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix contains NaN or infinite entries")
    return np.linalg.svd(matrix, compute_uv=False)


def stable_rank(sigma: np.ndarray) -> float:
    """Stable rank from a vector of singular values.

    Computed on singular values normalised by the largest one, so that
    denormal or enormous spectra do not overflow/underflow the squares.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.size == 0:
        return 0.0
    top = float(sigma.max())
    if top <= 0.0 or not np.isfinite(top):
        return 0.0
    normalised = sigma / top
    return float(np.sum(normalised ** 2))


def scaled_stable_rank(sigma: np.ndarray, xi: float, cap: Optional[int] = None) -> float:
    """Stable rank scaled by the initialisation ratio ξ, optionally capped at full rank."""
    value = xi * stable_rank(sigma)
    if cap is not None:
        value = min(value, float(cap))
    return value


def initial_scale_factor(sigma0: np.ndarray, full_rank: int) -> float:
    """ξ = full rank / stable rank at initialisation (Section 3.3)."""
    sr0 = stable_rank(sigma0)
    if sr0 <= 0:
        return 1.0
    return float(full_rank) / sr0


def accumulative_rank(sigma: np.ndarray, p: float = 0.8) -> int:
    """Smallest r such that the top-r singular values hold a fraction ``p`` of the mass.

    ``p`` must lie in (0, 1].  The result never exceeds ``len(sigma)``: at
    ``p = 1`` the rounded cumulative sum may end just below 1.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"accumulative_rank needs 0 < p <= 1, got p={p}")
    sigma = np.sort(np.asarray(sigma, dtype=np.float64))[::-1]
    total = sigma.sum()
    if total <= 0:
        return 0
    cumulative = np.cumsum(sigma) / total
    return int(min(np.searchsorted(cumulative, p) + 1, sigma.size))


def module_stable_rank(module: nn.Module) -> float:
    """Stable rank of a layer's unrolled weight matrix."""
    return stable_rank(singular_values(weight_to_matrix(module)))


def module_rank_estimate(
    module: nn.Module,
    xi: float = 1.0,
    mode: str = "scaled_stable",
    accumulative_p: float = 0.8,
) -> float:
    """Estimate a layer's effective rank under one of the paper's metrics.

    ``mode`` is one of:

    * ``"stable"`` — vanilla stable rank;
    * ``"scaled_stable"`` — scaled stable rank (the Cuttlefish default);
    * ``"accumulative"`` — accumulative rank at threshold ``accumulative_p``;
    * ``"scaled_stable_or_accumulative"`` — the §C.2 transformer rule,
      ``max(scaled stable rank, accumulative rank)``.
    """
    matrix = weight_to_matrix(module)
    sigma = singular_values(matrix)
    cap = full_rank_of(matrix)
    if mode == "stable":
        return min(stable_rank(sigma), float(cap))
    if mode == "scaled_stable":
        return scaled_stable_rank(sigma, xi, cap=cap)
    if mode == "accumulative":
        return float(accumulative_rank(sigma, p=accumulative_p))
    if mode == "scaled_stable_or_accumulative":
        return min(float(cap), max(scaled_stable_rank(sigma, xi, cap=cap),
                                   float(accumulative_rank(sigma, p=accumulative_p))))
    raise KeyError(f"unknown rank estimation mode {mode!r}")


def singular_value_cdf(matrix: np.ndarray) -> np.ndarray:
    """Cumulative fraction of singular mass vs dimension fraction (Figure 9)."""
    sigma = singular_values(matrix)
    total = sigma.sum()
    if total <= 0:
        return np.zeros_like(sigma)
    return np.cumsum(sigma) / total
