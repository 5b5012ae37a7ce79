"""Performance accounting: shape tracing, FLOPs, roofline model, wall-clock
timers, and per-op counters read from the execution backend."""

from repro.profiling.counters import (
    OpCount,
    count_ops,
    counted_flops,
    op_counters,
    reset_op_counters,
)
from repro.profiling.latency import BatchSizeHistogram, LatencyTracker
from repro.profiling.pipeline import PipelineStats, instrument
from repro.profiling.tracer import ModuleTrace, trace_shapes
from repro.profiling.flops import (
    BYTES_PER_ELEMENT,
    LayerCost,
    conv2d_cost,
    count_model_flops,
    count_parameters,
    factorized_conv2d_cost,
    factorized_linear_cost,
    linear_cost,
    model_layer_costs,
)
from repro.profiling.roofline import (
    A100,
    CPU,
    DEVICES,
    DeviceSpec,
    T4,
    V100,
    get_device,
    predict_iteration_time,
    predict_layer_times,
    predict_model_time,
    price_layer,
    price_layer_times,
)
from repro.profiling.timer import time_callable, time_forward, time_training_iteration

__all__ = [
    "OpCount",
    "count_ops",
    "counted_flops",
    "op_counters",
    "reset_op_counters",
    "BatchSizeHistogram",
    "LatencyTracker",
    "PipelineStats",
    "instrument",
    "ModuleTrace",
    "trace_shapes",
    "BYTES_PER_ELEMENT",
    "LayerCost",
    "conv2d_cost",
    "count_model_flops",
    "count_parameters",
    "factorized_conv2d_cost",
    "factorized_linear_cost",
    "linear_cost",
    "model_layer_costs",
    "A100",
    "CPU",
    "DEVICES",
    "DeviceSpec",
    "T4",
    "V100",
    "get_device",
    "predict_iteration_time",
    "predict_layer_times",
    "predict_model_time",
    "price_layer",
    "price_layer_times",
    "time_callable",
    "time_forward",
    "time_training_iteration",
]
