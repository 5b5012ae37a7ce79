"""Shape tracer: record per-module input/output shapes from a single forward pass.

FLOPs counting and the roofline cost model both need to know each layer's
activation shapes.  Rather than re-deriving shapes analytically for every
architecture, :func:`trace_shapes` runs one forward pass with every leaf
module's ``forward`` temporarily wrapped to record the shapes it sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro import nn
from repro.tensor import Tensor, no_grad


@dataclass
class ModuleTrace:
    """Shapes observed at one module during tracing."""

    module_type: str
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]


def trace_shapes(model: nn.Module, example_input, forward_fn=None) -> Dict[str, ModuleTrace]:
    """Run ``model`` once on ``example_input`` and record per-module shapes.

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
            def wrapped(*args, **kwargs):
                out = original(*args, **kwargs)
                in_shape = _shape_of(args[0]) if args else ()
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
