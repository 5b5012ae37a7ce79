"""SVD factorization of trained full-rank layers into low-rank pairs.

Implements the factorization step of Algorithm 1: at the switch epoch Ê, every
selected layer weight W is decomposed as W = Ũ Σ Ṽᵀ and replaced by the pair

    U = Ũ Σ^{1/2}[:, :r],    Vᵀ = Σ^{1/2} Ṽᵀ[:r, :]

(with the necessary reshaping for convolutions), so that U Vᵀ is the best
rank-r approximation of W and the product approximately preserves the layer's
function at the moment of the switch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import nn
from repro.core.low_rank_layers import LowRankConv2d, LowRankLinear, is_low_rank
from repro.core.stable_rank import full_rank_of, weight_to_matrix
from repro.utils import get_logger

logger = get_logger("core.factorize")


def svd_factorize(matrix: np.ndarray, rank: int) -> Tuple[np.ndarray, np.ndarray]:
    """Best rank-``r`` factorization of ``matrix`` (m, n) into U (m, r) and Vᵀ (r, n)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rank = int(max(1, min(rank, min(matrix.shape))))
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    root = np.sqrt(s[:rank])
    u_factor = (u[:, :rank] * root[None, :]).astype(np.float32)
    v_factor = (root[:, None] * vt[:rank, :]).astype(np.float32)
    return u_factor, v_factor


def reconstruction_error(matrix: np.ndarray, u: np.ndarray, vt: np.ndarray) -> float:
    """Relative Frobenius error ‖W − U Vᵀ‖_F / ‖W‖_F."""
    matrix = np.asarray(matrix, dtype=np.float64)
    approx = u.astype(np.float64) @ vt.astype(np.float64)
    denom = np.linalg.norm(matrix)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(matrix - approx) / denom)


def factorize_linear(module: nn.Linear, rank: int, extra_bn: bool = False) -> LowRankLinear:
    """Replace a trained Linear layer by its rank-``r`` factorization."""
    weight_matrix = module.weight.data.T          # (in, out)
    u, vt = svd_factorize(weight_matrix, rank)
    bias = module.bias.data if module.bias is not None else None
    return LowRankLinear.from_factors(u, vt, bias=bias, extra_bn=extra_bn)


def factorize_conv2d(module: nn.Conv2d, rank: int, extra_bn: bool = False) -> LowRankConv2d:
    """Replace a trained Conv2d layer by its rank-``r`` factorization."""
    unrolled = weight_to_matrix(module)           # (in·kh·kw, out)
    u, vt = svd_factorize(unrolled, rank)
    return LowRankConv2d.from_factors(module, u, vt, extra_bn=extra_bn)


def factorize_module(module: nn.Module, rank: int, extra_bn: bool = False) -> nn.Module:
    """Factorize a single Linear or Conv2d module (dispatch on type)."""
    if isinstance(module, nn.Conv2d):
        return factorize_conv2d(module, rank, extra_bn=extra_bn)
    if isinstance(module, nn.Linear):
        return factorize_linear(module, rank, extra_bn=extra_bn)
    raise TypeError(f"cannot factorize module of type {type(module).__name__}")


def would_reduce_parameters(module: nn.Module, rank: int) -> bool:
    """True if factorizing ``module`` at ``rank`` has fewer parameters than the original.

    The paper skips factorizations that do not shrink the layer (e.g. a square
    (d, d) projection at ρ = 1/2, see §C.2).
    """
    if isinstance(module, nn.Conv2d):
        out_c, in_c, kh, kw = module.weight.shape
        full = out_c * in_c * kh * kw
        factored = rank * in_c * kh * kw + rank * out_c
        return factored < full
    if isinstance(module, nn.Linear):
        out_f, in_f = module.weight.shape
        return rank * (in_f + out_f) < in_f * out_f
    return False


def installed_rank(module: nn.Module, rank: float, skip_non_reducing: bool = True) -> Optional[int]:
    """The rank :func:`factorize_model` installs for ``module`` when asked for ``rank``.

    ``rank`` may be fractional — a rank ratio times :func:`full_rank_of` — and
    is rounded, raised to at least 1 and clamped to the layer's full rank.
    ``None`` means the layer is skipped: with ``skip_non_reducing`` set, the
    rank would not shrink it (paper §C.2).
    """
    rank = min(int(max(1, round(rank))), full_rank_of(module))
    if skip_non_reducing and not would_reduce_parameters(module, rank):
        return None
    return rank


def factorize_model(
    model: nn.Module,
    ranks: Dict[str, int],
    extra_bn: bool = False,
    skip_non_reducing: bool = True,
) -> List[str]:
    """Factorize every layer listed in ``ranks`` (module path → rank), in place.

    Returns the list of module paths actually factorized.  Layers whose rank
    would not reduce the parameter count are skipped when
    ``skip_non_reducing`` is set (paper §C.2 behaviour).
    """
    factorized: List[str] = []
    for path, requested in ranks.items():
        module = model.get_submodule(path)
        if is_low_rank(module):
            continue
        rank = installed_rank(module, requested, skip_non_reducing)
        if rank is None:
            logger.debug("skipping %s: rank %s does not reduce parameters", path, requested)
            continue
        replacement = factorize_module(module, rank, extra_bn=extra_bn)
        model.set_submodule(path, replacement)
        factorized.append(path)
    return factorized


def materialize_low_rank(
    model: nn.Module,
    ranks: Dict[str, int],
    extra_bn: bool = False,
) -> List[str]:
    """Install low-rank layers structurally, *without* SVD-ing current weights.

    Swaps each listed Linear/Conv2d for a factorized layer of the requested
    rank whose factors are zeros: no initialiser runs, so no SVD either.
    This is the cheap path used when the factor weights are about to be
    overwritten anyway — e.g. when a serving artifact rebuilds the factorized
    architecture before loading the stored U/Vᵀ factors.  Contrast
    :func:`factorize_model`, which preserves the layer's current function via
    a truncated SVD.
    """
    installed: List[str] = []
    for path, rank in ranks.items():
        module = model.get_submodule(path)
        if is_low_rank(module):
            if int(module.rank) != int(rank):
                raise ValueError(
                    f"layer {path!r} is already factorized at rank {module.rank}, "
                    f"cannot re-materialize at rank {rank}"
                )
            continue
        if not isinstance(module, (nn.Conv2d, nn.Linear)):
            raise TypeError(f"cannot materialize low-rank layer at {path!r}: "
                            f"unsupported module type {type(module).__name__}")
        rank = installed_rank(module, rank, skip_non_reducing=False)
        if isinstance(module, nn.Conv2d):
            out_c, in_c, kh, kw = module.weight.shape
            replacement: nn.Module = LowRankConv2d.from_factors(
                module, np.zeros((in_c * kh * kw, rank), dtype=np.float32),
                np.zeros((rank, out_c), dtype=np.float32), extra_bn=extra_bn)
        else:
            bias = None if module.bias is None else np.zeros(module.out_features, dtype=np.float32)
            replacement = LowRankLinear.from_factors(
                np.zeros((module.in_features, rank), dtype=np.float32),
                np.zeros((rank, module.out_features), dtype=np.float32),
                bias=bias, extra_bn=extra_bn)
        model.set_submodule(path, replacement)
        installed.append(path)
    return installed


def hybrid_parameter_count(model: nn.Module) -> Dict[str, int]:
    """Parameter counts split into full-rank vs factorized layers (hybrid accounting)."""
    full_rank_params = 0
    low_rank_params = 0
    for module in model.modules():
        if is_low_rank(module):
            low_rank_params += sum(p.size for p in module._parameters.values() if p is not None)
    total = model.num_parameters()
    full_rank_params = total - low_rank_params
    return {"total": total, "full_rank": full_rank_params, "low_rank": low_rank_params}
