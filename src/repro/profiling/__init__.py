"""Performance accounting: shape tracing, FLOPs, roofline model, wall-clock
timers, and per-op counters read from the execution backend.

Public names load on first access (DESIGN.md §2): a server that needs only
:class:`PipelineStats` never imports the roofline."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "counters": ["OpCount", "count_ops", "counted_flops", "op_counters", "reset_op_counters"],
    "pipeline": ["PipelineStats", "instrument"],
    "tracer": ["ModuleTrace", "trace_shapes"],
    "flops": ["BYTES_PER_ELEMENT", "LayerCost", "conv2d_cost", "count_model_flops",
              "count_parameters", "factorized_conv2d_cost", "factorized_linear_cost",
              "linear_cost", "model_layer_costs"],
    "roofline": ["A100", "CPU", "DEVICES", "DeviceSpec", "T4", "V100", "get_device",
                 "predict_iteration_time", "predict_layer_times", "predict_model_time",
                 "price_layer", "price_layer_times"],
    "timer": ["time_callable", "time_forward", "time_training_iteration"],
})
