"""Capture-and-replay compilation for the ``numpy-compiled`` backend.

One eager step is recorded per ``(model, input signature, mode, parameter
structure)`` key; every later step replays a static, Python-dispatch-free
schedule with pre-planned buffer lifetimes.  Plans are never saved: a
served artifact runs the eager no-grad forward.  See DESIGN.md §15.
"""

from repro.compile.graph import CaptureContext, CaptureError
from repro.compile.plan import CompiledPlan, build_forward_plan
from repro.compile.step import StepCompiler, StepHandle, backend_compiles

__all__ = [
    "CaptureContext",
    "CaptureError",
    "CompiledPlan",
    "StepCompiler",
    "StepHandle",
    "backend_compiles",
    "build_forward_plan",
]
