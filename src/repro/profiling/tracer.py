"""Shape tracer: record per-module input/output shapes from a single forward pass.

FLOPs counting and the roofline cost model both need to know each layer's
activation shapes.  Rather than re-deriving shapes analytically for every
architecture, :func:`trace_shapes` runs one forward pass with every leaf
module's ``forward`` temporarily wrapped to record the shapes it sees.

The pass runs no convolution or linear-layer GEMM.  A leaf whose type is
exactly ``nn.Conv2d`` or ``nn.Linear`` returns float32 zeros of the shape its
weight, stride and padding give, checked as its forward checks its input:
those layers are where a forward spends its arithmetic, and a trace reads
none of their values.  Every other leaf (norms, activations, pooling,
embeddings, factorized layers, and subclasses such as ``BinarizedConv2d``,
whose forward is their own) runs its forward on those zeros, so its output
shape is whatever its code makes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro import nn
from repro.tensor import Tensor, functional as F, no_grad


@dataclass
class ModuleTrace:
    """Shapes observed at one module during tracing."""

    module_type: str
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]


def _output_shape(module: nn.Module, in_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """What ``module`` (a plain ``Conv2d`` or ``Linear``) returns for input of
    ``in_shape``, raising the ``ValueError`` its forward raises on a mismatch."""
    if type(module) is nn.Conv2d:
        return F.conv2d_output_shape(in_shape, module.weight.shape,
                                     module.stride, module.padding)
    out_features, in_features = module.weight.shape
    if in_shape[-1:] != (in_features,):
        raise ValueError(f"feature mismatch: input has shape {in_shape}, "
                         f"weight expects {in_features} features")
    return in_shape[:-1] + (out_features,)


def trace_shapes(model: nn.Module, example_input, forward_fn=None) -> Dict[str, ModuleTrace]:
    """Run ``model`` once on ``example_input`` and record per-module shapes.

    A plain ``nn.Conv2d`` or ``nn.Linear`` leaf runs no GEMM: it returns
    float32 zeros shaped from its weight, stride and padding, and raises the
    ``ValueError`` its forward raises on input of the wrong channel or feature
    count.  Every other leaf runs its own forward on those zeros.  The shapes
    are those of a real forward; the values are not.

    Parameters
    ----------
    model:
        The module tree to trace.
    example_input:
        A numpy array / Tensor (or token id array for text models) accepted by
        ``model.__call__``.
    forward_fn:
        Optional ``forward_fn(model, example_input)`` for models whose call
        signature differs (e.g. BERT with attention masks).

    Returns
    -------
    dict mapping module path → :class:`ModuleTrace`.  Leaf modules (no
    children) are recorded, plus factorized low-rank layers: those may carry a
    BatchNorm child (the extra-BN variant) but are still priced as a single
    two-GEMM unit by the cost model, so they must appear in the trace.
    """
    # Late import: core imports profiling, so profiling cannot import core at
    # module level.
    from repro.core.low_rank_layers import is_low_rank

    traces: Dict[str, ModuleTrace] = {}
    originals = {}

    def _shape_of(value) -> Tuple[int, ...]:
        if isinstance(value, Tensor):
            return tuple(value.shape)
        if isinstance(value, np.ndarray):
            return tuple(value.shape)
        return ()

    for name, module in model.named_modules():
        if not name or (list(module.children()) and not is_low_rank(module)):
            continue

        def make_wrapper(mod, path, original):
            shaped = type(mod) in (nn.Conv2d, nn.Linear)

            def wrapped(*args, **kwargs):
                in_shape = _shape_of(args[0]) if args else ()
                if shaped:
                    out = Tensor(np.zeros(_output_shape(mod, in_shape), dtype=np.float32))
                else:
                    out = original(*args, **kwargs)
                traces[path] = ModuleTrace(type(mod).__name__, in_shape, _shape_of(out))
                return out
            return wrapped

        originals[name] = (module, module.forward)
        object.__setattr__(module, "forward", make_wrapper(module, name, module.forward))

    was_training = model.training
    try:
        with no_grad():
            model.eval()
            if forward_fn is not None:
                forward_fn(model, example_input)
            else:
                model(example_input)
    finally:
        model.train(was_training)
        for module, original in originals.values():
            object.__setattr__(module, "forward", original)
            # Remove the instance attribute so the class method is used again.
            if "forward" in module.__dict__:
                del module.__dict__["forward"]
    return traces
