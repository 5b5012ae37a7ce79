"""FLOPs and parameter counting for full-rank and factorized layers.

The paper reports inference FLOPs (Tables 2 and 3) and argues about *training*
speedups via arithmetic intensity (Section 3.5).  This module provides exact
multiply-accumulate counts per layer from traced activation shapes, plus the
closed-form expressions for factorized layers so the benefit of a given rank
can be evaluated without building the factorized model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro import nn
from repro.profiling.tracer import ModuleTrace, trace_shapes


@dataclass
class LayerCost:
    """FLOPs (multiply-accumulates ×2) and memory traffic (bytes) for one layer.

    Parameter bytes and activation bytes are tracked separately so a cost
    measured at a small tracing batch can be re-scaled to the paper's batch
    size (activations scale with the batch, parameters do not).
    """

    flops: float
    param_bytes: float
    activation_bytes: float
    params: int
    # Effective GEMM dimensions of the layer (0 for non-GEMM layers): a
    # convolution lowered by im2col is a GEMM with M = batch·out_h·out_w,
    # N = out_channels, K = in_channels·k².  Devices use these to model how
    # well a thin layer can utilise the hardware.
    gemm_m: int = 0
    gemm_n: int = 0
    gemm_k: int = 0

    @property
    def bytes_accessed(self) -> float:
        return self.param_bytes + self.activation_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of data moved — the quantity driving GPU utilisation."""
        return self.flops / max(self.bytes_accessed, 1.0)

    def scale_batch(self, factor: float) -> "LayerCost":
        """Cost of the same layer at ``factor ×`` the traced batch size."""
        return LayerCost(
            flops=self.flops * factor,
            param_bytes=self.param_bytes,
            activation_bytes=self.activation_bytes * factor,
            params=self.params,
            gemm_m=int(self.gemm_m * factor),
            gemm_n=self.gemm_n,
            gemm_k=self.gemm_k,
        )

    def __add__(self, other: "LayerCost") -> "LayerCost":
        """Aggregate two costs (e.g. the U and Vᵀ halves of a factorized layer).

        The combined GEMM dimensions keep the *narrowest* N/K of the two
        pieces, which is what limits utilisation of the fused sequence.
        """
        def _combine(a: int, b: int) -> int:
            positives = [v for v in (a, b) if v > 0]
            return min(positives) if positives else 0

        return LayerCost(
            self.flops + other.flops,
            self.param_bytes + other.param_bytes,
            self.activation_bytes + other.activation_bytes,
            self.params + other.params,
            gemm_m=max(self.gemm_m, other.gemm_m),
            gemm_n=_combine(self.gemm_n, other.gemm_n),
            gemm_k=_combine(self.gemm_k, other.gemm_k),
        )


BYTES_PER_ELEMENT = 4.0  # FP32


def conv2d_cost(batch: int, in_channels: int, out_channels: int, kernel: int,
                out_h: int, out_w: int) -> LayerCost:
    """Cost of a standard convolution producing a (batch, out_c, out_h, out_w) map."""
    macs = batch * out_channels * in_channels * kernel * kernel * out_h * out_w
    params = out_channels * in_channels * kernel * kernel
    activations = batch * (in_channels + out_channels) * out_h * out_w
    return LayerCost(flops=2.0 * macs, param_bytes=params * BYTES_PER_ELEMENT,
                     activation_bytes=activations * BYTES_PER_ELEMENT, params=params,
                     gemm_m=batch * out_h * out_w, gemm_n=out_channels,
                     gemm_k=in_channels * kernel * kernel)


def factorized_conv2d_cost(batch: int, in_channels: int, out_channels: int, kernel: int,
                           rank: int, out_h: int, out_w: int) -> LayerCost:
    """Cost of the factorized pair: U (rank filters of size k×k) then 1×1 conv Vᵀ."""
    u = conv2d_cost(batch, in_channels, rank, kernel, out_h, out_w)
    v = conv2d_cost(batch, rank, out_channels, 1, out_h, out_w)
    return u + v


def linear_cost(batch_tokens: int, in_features: int, out_features: int) -> LayerCost:
    macs = batch_tokens * in_features * out_features
    params = in_features * out_features
    activations = batch_tokens * (in_features + out_features)
    return LayerCost(2.0 * macs, params * BYTES_PER_ELEMENT,
                     activations * BYTES_PER_ELEMENT, params,
                     gemm_m=batch_tokens, gemm_n=out_features, gemm_k=in_features)


def factorized_linear_cost(batch_tokens: int, in_features: int, out_features: int, rank: int) -> LayerCost:
    u = linear_cost(batch_tokens, in_features, rank)
    v = linear_cost(batch_tokens, rank, out_features)
    return u + v


def layer_cost_pieces(module: nn.Module, trace: ModuleTrace,
                      rank: Optional[int] = None) -> Optional[list]:
    """Cost of a traced module as a list of GEMM pieces (factorized layers → two).

    With ``rank``, a full-rank ``Conv2d``/``Linear`` is costed as if it were
    factorized at that rank.  A factorized layer sees the same input and
    output shapes as the layer it replaces, so its two pieces follow from the
    full-rank layer's trace and the rank alone: no factorized copy of the
    model is needed.  Factorized layers are costed the same way, at their own
    rank.

    Timing models should price each piece with its own utilisation; reporting
    code can simply sum the pieces.
    """
    from repro.core.low_rank_layers import LowRankConv2d, LowRankLinear, is_low_rank

    if rank is None and is_low_rank(module):
        rank = module.rank
    if rank is None:
        single = _cost_from_trace(module, trace)
        return None if single is None else [single]
    if isinstance(module, (nn.Conv2d, LowRankConv2d)):
        n, _, out_h, out_w = trace.output_shape
        kernel = module.kernel_size[0]
        return [
            conv2d_cost(n, module.in_channels, rank, kernel, out_h, out_w),
            conv2d_cost(n, rank, module.out_channels, 1, out_h, out_w),
        ]
    if isinstance(module, (nn.Linear, LowRankLinear)):
        tokens = int(np.prod(trace.input_shape[:-1]))
        return [
            linear_cost(tokens, module.in_features, rank),
            linear_cost(tokens, rank, module.out_features),
        ]
    raise TypeError(f"cannot cost a rank-{rank} factorization of {type(module).__name__}")


def _cost_from_trace(module: nn.Module, trace: ModuleTrace) -> Optional[LayerCost]:
    """Exact cost of a traced leaf module, or ``None`` for cost-free layers."""
    # Import here to avoid a circular import (core imports profiling).
    from repro.core.low_rank_layers import LowRankConv2d, LowRankLinear

    if isinstance(module, LowRankConv2d):
        n, _, out_h, out_w = trace.output_shape
        return factorized_conv2d_cost(n, module.in_channels, module.out_channels,
                                      module.kernel_size[0], module.rank, out_h, out_w)
    if isinstance(module, LowRankLinear):
        tokens = int(np.prod(trace.input_shape[:-1]))
        return factorized_linear_cost(tokens, module.in_features, module.out_features, module.rank)
    if isinstance(module, nn.Conv2d):
        n, _, out_h, out_w = trace.output_shape
        return conv2d_cost(n, module.in_channels, module.out_channels,
                           module.kernel_size[0], out_h, out_w)
    if isinstance(module, nn.Linear):
        tokens = int(np.prod(trace.input_shape[:-1]))
        return linear_cost(tokens, module.in_features, module.out_features)
    if isinstance(module, (nn.BatchNorm2d, nn.BatchNorm1d, nn.LayerNorm)):
        elements = float(np.prod(trace.output_shape))
        return LayerCost(4.0 * elements,
                         sum(p.size for p in module.parameters()) * BYTES_PER_ELEMENT,
                         4.0 * elements * BYTES_PER_ELEMENT,
                         sum(p.size for p in module.parameters()))
    return None


def model_layer_costs(model: nn.Module, example_input, forward_fn=None,
                      batch_scale: float = 1.0) -> Dict[str, LayerCost]:
    """Per-layer costs of every compute-bearing leaf module in ``model``.

    ``batch_scale`` rescales every cost as if the batch were ``batch_scale ×``
    the traced batch — this lets paper-scale batch sizes (e.g. 1024) be costed
    from a cheap small-batch trace.
    """
    traces = trace_shapes(model, example_input, forward_fn=forward_fn)
    costs: Dict[str, LayerCost] = {}
    for name, module in model.named_modules():
        if not name or name not in traces:
            continue
        cost = _cost_from_trace(module, traces[name])
        if cost is not None:
            costs[name] = cost.scale_batch(batch_scale) if batch_scale != 1.0 else cost
    return costs


def count_model_flops(model: nn.Module, example_input, forward_fn=None) -> float:
    """Total forward FLOPs of a model on the example input."""
    return sum(cost.flops for cost in model_layer_costs(model, example_input, forward_fn).values())


def count_parameters(model: nn.Module, trainable_only: bool = True) -> int:
    """Number of scalar parameters (mirrors the paper's "# Params (M)" columns)."""
    return model.num_parameters(trainable_only=trainable_only)
