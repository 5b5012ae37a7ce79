"""Roofline-style device cost model.

The paper's key systems argument (Section 3.5) is that factorizing a layer
only pays off when the layer's *arithmetic intensity* (FLOPs per byte) is high
enough for the GPU to be compute bound; early CNN layers are memory bound, so
halving their FLOPs barely changes their runtime.  We reproduce that argument
with a classical roofline model:

    time(layer) = max(flops / peak_flops, bytes / memory_bandwidth) + kernel_overhead

Device presets approximate the accelerators used in the paper (V100, T4,
A100) plus a generic CPU.  The model is used for two purposes:

* predicting per-stack speedups in Cuttlefish's K-profiling when
  ``profile_mode="roofline"`` (deterministic and hardware independent);
* regenerating the per-layer timing figures (Figure 4, Figure 6) at paper
  scale, where actually running the full-size networks on CPU would be
  prohibitively slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import nn
from repro.profiling.flops import LayerCost, layer_cost_pieces
from repro.profiling.tracer import ModuleTrace, trace_shapes


@dataclass(frozen=True)
class DeviceSpec:
    """Peak throughput / bandwidth / per-kernel overhead / utilisation model of a device.

    Besides the classical roofline terms, the model includes a *utilisation*
    factor for GEMM-shaped work: a layer whose GEMM N (output channels /
    features) or K (reduction length) dimension is small cannot keep the
    device's compute units busy, so it only reaches a fraction of peak.  This
    is what makes factorizing early CNN stacks unprofitable in the paper —
    the "thin" rank-r convolution has a tiny N — and it is essential for
    reproducing Figure 4's per-stack speedups.
    """

    name: str
    peak_flops: float           # FLOP/s
    memory_bandwidth: float     # bytes/s
    kernel_overhead: float      # seconds per launched kernel
    gemm_n_saturation: int = 64   # N below this under-utilises the device
    gemm_k_saturation: int = 64   # K below this under-utilises the device

    def gemm_efficiency(self, cost: LayerCost) -> float:
        """Fraction of peak compute this layer's GEMM shape can achieve."""
        if cost.gemm_n <= 0 or cost.gemm_k <= 0:
            return 1.0
        n_eff = min(1.0, cost.gemm_n / self.gemm_n_saturation)
        k_eff = min(1.0, cost.gemm_k / self.gemm_k_saturation)
        return max(n_eff * k_eff, 1e-3)

    def layer_time(self, cost: LayerCost, kernels: int = 1) -> float:
        """Roofline execution time of one layer."""
        efficiency = self.gemm_efficiency(cost)
        compute_time = cost.flops / (self.peak_flops * efficiency)
        memory_time = cost.bytes_accessed / self.memory_bandwidth
        return max(compute_time, memory_time) + kernels * self.kernel_overhead


# Published spec-sheet numbers (FP32), rounded; overheads calibrated to the
# few-microsecond kernel launch latency of CUDA.
V100 = DeviceSpec("V100", peak_flops=14e12, memory_bandwidth=900e9, kernel_overhead=5e-6)
T4 = DeviceSpec("T4", peak_flops=8.1e12, memory_bandwidth=300e9, kernel_overhead=5e-6)
A100 = DeviceSpec("A100", peak_flops=19.5e12, memory_bandwidth=1555e9, kernel_overhead=5e-6)
CPU = DeviceSpec("CPU", peak_flops=5e10, memory_bandwidth=2e10, kernel_overhead=2e-6,
                 gemm_n_saturation=8, gemm_k_saturation=8)

DEVICES: Dict[str, DeviceSpec] = {"v100": V100, "t4": T4, "a100": A100, "cpu": CPU}


def get_device(name: str) -> DeviceSpec:
    key = name.lower()
    if key not in DEVICES:
        raise KeyError(f"unknown device {name!r}; available: {sorted(DEVICES)}")
    return DEVICES[key]


def price_layer(module: nn.Module, trace: ModuleTrace, device: DeviceSpec = V100,
                batch_scale: float = 1.0, rank: Optional[int] = None) -> Optional[float]:
    """Predicted forward time (seconds) of one traced layer; ``None`` if it costs nothing.

    With ``rank``, a full-rank ``Conv2d``/``Linear`` is priced as if it were
    factorized at that rank, from its traced shapes alone (see
    :func:`~repro.profiling.flops.layer_cost_pieces`).  The roofline reads
    shapes, never weight values, so pricing a factorization needs no SVD.
    """
    pieces = layer_cost_pieces(module, trace, rank)
    if not pieces:
        return None
    total = 0.0
    for piece in pieces:
        if batch_scale != 1.0:
            piece = piece.scale_batch(batch_scale)
        # Each GEMM piece is one kernel launch.
        total += device.layer_time(piece, kernels=1)
    return total


def price_layer_times(model: nn.Module, traces: Dict[str, ModuleTrace],
                      device: DeviceSpec = V100, batch_scale: float = 1.0,
                      ranks: Optional[Dict[str, int]] = None) -> Dict[str, float]:
    """Per-layer forward times of ``model`` priced from its shape trace.

    ``traces`` comes from :func:`~repro.profiling.tracer.trace_shapes`.
    ``ranks`` (module path → rank) prices the listed layers as if factorized
    at those ranks, which gives the same times as factorizing a copy of the
    model and tracing it again.  Layers appear in ``named_modules()`` order.
    """
    ranks = ranks or {}
    times: Dict[str, float] = {}
    for name, module in model.named_modules():
        if not name or name not in traces:
            continue
        seconds = price_layer(module, traces[name], device, batch_scale, ranks.get(name))
        if seconds is not None:
            times[name] = seconds
    return times


def predict_layer_times(model: nn.Module, example_input, device: DeviceSpec = V100,
                        forward_fn=None, batch_scale: float = 1.0) -> Dict[str, float]:
    """Predicted per-layer forward time (seconds) under the roofline model.

    ``batch_scale`` rescales costs as if the batch were that many times larger
    than the traced example (used to evaluate paper-scale batch sizes from a
    cheap small-batch trace).
    """
    traces = trace_shapes(model, example_input, forward_fn=forward_fn)
    return price_layer_times(model, traces, device, batch_scale)


def predict_model_time(model: nn.Module, example_input, device: DeviceSpec = V100,
                       forward_fn=None, batch_scale: float = 1.0) -> float:
    """Predicted total forward time (seconds) of the model on ``device``."""
    return sum(predict_layer_times(model, example_input, device, forward_fn, batch_scale).values())


def predict_iteration_time(model: nn.Module, example_input, device: DeviceSpec = V100,
                           forward_fn=None, backward_multiplier: float = 2.0,
                           batch_scale: float = 1.0) -> float:
    """Predicted forward+backward time; backward ≈ 2× forward, as the paper assumes."""
    forward = predict_model_time(model, example_input, device, forward_fn, batch_scale)
    return forward * (1.0 + backward_multiplier)
