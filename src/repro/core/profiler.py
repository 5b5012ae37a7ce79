"""Layer-stack profiling — Algorithm 2 of the paper (determining K).

Factorizing the early stacks of a CNN barely reduces their per-iteration time
because those layers are memory bound (low arithmetic intensity).  Cuttlefish
therefore profiles each *layer stack* (layers sharing weight/input shapes):
it temporarily factorizes the stack at a probe rank ratio ρ̄, measures the
stack's per-iteration time, and keeps the stack full-rank unless

    time(full-rank stack) > υ · time(factorized stack)

which reproduces the per-stack speedups of Figure 4 (≈1.1× for the first
ResNet-18 stack vs ≈2.6× for the last one).

Two measurement back-ends are supported:

* ``"wallclock"`` — run τ forward+backward iterations of each layer in the
  stack on this machine, on inputs of the shapes seen by the real model
  (the paper's protocol, Section 4.3);
* ``"roofline"`` — evaluate the analytical roofline model for a chosen GPU
  spec.  This is deterministic and reproduces the paper's arithmetic-intensity
  argument even on hardware very different from the authors' testbed.  The
  roofline reads only layer shapes, so each probe factorization is priced
  from one shape trace and the probe rank: nothing is factorized.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.core.factorize import factorize_module, installed_rank
from repro.core.stable_rank import full_rank_of
from repro.profiling.roofline import DeviceSpec, V100, price_layer, price_layer_times
from repro.profiling.timer import time_callable
from repro.profiling.tracer import ModuleTrace, trace_shapes
from repro.tensor import Tensor
from repro.utils import get_logger, get_rng

logger = get_logger("core.profiler")


@dataclass
class StackProfile:
    """Timing result for one layer stack."""

    stack_name: str
    layer_paths: List[str]
    full_rank_time: float
    factorized_time: float

    @property
    def speedup(self) -> float:
        if self.factorized_time <= 0:
            return float("inf")
        return self.full_rank_time / self.factorized_time


@dataclass
class ProfilingResult:
    """Outcome of Algorithm 2: which stacks to factorize and the implied K̂."""

    stack_profiles: List[StackProfile]
    factorize_stacks: List[str]
    skip_stacks: List[str]
    skipped_layer_paths: List[str]
    k_hat: int

    def speedup_table(self) -> Dict[str, float]:
        return {p.stack_name: p.speedup for p in self.stack_profiles}


def _probe_rank(module: nn.Module, rank_ratio: float) -> Optional[int]:
    """The rank a probe factorizes ``module`` at, or ``None`` if it stays as it is."""
    if not isinstance(module, (nn.Conv2d, nn.Linear)):
        return None
    return installed_rank(module, full_rank_of(module) * rank_ratio)


@contextlib.contextmanager
def _temporarily_factorized(model: nn.Module, layer_paths: Sequence[str], rank_ratio: float):
    """Swap the listed layers for probe factorizations, restore them afterwards.

    Only wall-clock probes need this: they time the factorized layers' real
    forward and backward passes.
    """
    originals: List[Tuple[str, nn.Module]] = []
    try:
        for path in layer_paths:
            module = model.get_submodule(path)
            rank = _probe_rank(module, rank_ratio)
            if rank is None:
                continue
            originals.append((path, module))
            model.set_submodule(path, factorize_module(module, rank))
        yield
    finally:
        for path, module in reversed(originals):
            model.set_submodule(path, module)


def _wallclock_stack_time(model: nn.Module, layer_paths: Sequence[str],
                          traces: Dict[str, ModuleTrace], iterations: int) -> float:
    """Wall-clock forward+backward time of a stack's layers, each on its real input shape."""
    rng = get_rng(offset=5_150)
    times: Dict[str, float] = {}
    for path in layer_paths:
        if path not in traces:
            times[path] = 0.0
            continue
        shape = traces[path].input_shape
        module = model.get_submodule(path)
        probe = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

        def run():
            out = module(probe)
            out.sum().backward()
            probe.grad = None
            module.zero_grad()

        times[path] = time_callable(run, iterations=iterations)
    return sum(times.values())


def _roofline_stack_times(model: nn.Module, layer_paths: Sequence[str],
                          traces: Dict[str, ModuleTrace], full_times: Dict[str, float],
                          rank_ratio: float, device: DeviceSpec,
                          batch_scale: float) -> Tuple[float, float]:
    """(full-rank, factorized) per-iteration roofline time of one stack.

    Each probe factorization is priced from its layer's traced shapes and
    probe rank.  The sums run in stack-path order, so the times are
    bit-identical to factorizing the stack and tracing it again.
    """
    def probe_time(path: str) -> float:
        module = model.get_submodule(path)
        rank = _probe_rank(module, rank_ratio)
        if rank is None or path not in traces:
            return full_times.get(path, 0.0)
        return price_layer(module, traces[path], device, batch_scale, rank)

    full = sum(full_times.get(path, 0.0) for path in layer_paths)
    factorized = sum(probe_time(path) for path in layer_paths)
    # Backward ≈ 2× forward, as the paper assumes.
    return full * 3.0, factorized * 3.0


def profile_layer_stacks(
    model: nn.Module,
    stack_paths: Dict[str, List[str]],
    example_batch,
    rank_ratio: float = 0.25,
    speedup_threshold: float = 1.5,
    iterations: int = 3,
    mode: str = "roofline",
    device: DeviceSpec = V100,
    loss_fn=None,
    forward_fn=None,
    contiguous_prefix: bool = True,
    batch_scale: float = 1.0,
    *,
    traces: Optional[Dict[str, ModuleTrace]] = None,
) -> ProfilingResult:
    """Run Algorithm 2 and decide which stacks stay full-rank.

    Parameters
    ----------
    stack_paths:
        Ordered mapping stack name → module paths, from the model's
        ``layer_stack_paths()``.
    example_batch:
        ``(inputs, labels)``; the inputs are traced once for layer shapes,
        which price the roofline and shape the wall-clock probe inputs.
        Unused when ``traces`` is given.
    traces:
        A shape trace of ``model`` the caller already holds (from
        :func:`~repro.profiling.tracer.trace_shapes`), to skip tracing.
    rank_ratio:
        The probe rank ratio ρ̄ (paper uses 1/4).
    speedup_threshold:
        υ; a stack is factorized only if its full-rank time exceeds υ × its
        factorized time.
    contiguous_prefix:
        When True (CNN behaviour in the paper), only a *prefix* of stacks may
        stay full rank: once a stack passes the threshold, all deeper stacks
        are factorized as well.  When False each stack is judged independently
        (transformer behaviour).
    batch_scale:
        For ``mode="roofline"``: evaluate the cost model as if the batch were
        this many times larger than the probe batch (the paper profiles at
        batch 1024, which is too large to trace directly on CPU).
    loss_fn:
        Unused by the stack-local measurement; accepted for API symmetry with
        the trainer.
    """
    del loss_fn  # stack-local measurement does not need the training loss
    if mode not in ("roofline", "wallclock"):
        raise KeyError(f"unknown profiling mode {mode!r}")
    if traces is None:
        traces = trace_shapes(model, example_batch[0], forward_fn=forward_fn)
    if mode == "roofline":
        full_times = price_layer_times(model, traces, device, batch_scale)
    profiles: List[StackProfile] = []
    for stack_name, layer_paths in stack_paths.items():
        if mode == "roofline":
            full_time, factorized_time = _roofline_stack_times(
                model, layer_paths, traces, full_times, rank_ratio, device, batch_scale)
        else:
            full_time = _wallclock_stack_time(model, layer_paths, traces, iterations)
            with _temporarily_factorized(model, layer_paths, rank_ratio):
                factorized_time = _wallclock_stack_time(model, layer_paths, traces, iterations)
        profiles.append(StackProfile(stack_name, list(layer_paths), full_time, factorized_time))
        logger.debug("stack %s: full=%.4g factorized=%.4g speedup=%.2fx",
                     stack_name, full_time, factorized_time, profiles[-1].speedup)

    factorize_stacks: List[str] = []
    skip_stacks: List[str] = []
    passed_before = False
    for profile in profiles:
        passes = profile.speedup >= speedup_threshold
        if contiguous_prefix and passed_before:
            passes = True
        if passes:
            factorize_stacks.append(profile.stack_name)
            passed_before = True
        else:
            skip_stacks.append(profile.stack_name)

    skipped_layer_paths = [
        path for profile in profiles if profile.stack_name in skip_stacks for path in profile.layer_paths
    ]
    # K̂ counts the layers that remain full rank at the top of the network:
    # the always-unfactorized first layer plus every layer in skipped stacks.
    k_hat = 1 + len(skipped_layer_paths)
    return ProfilingResult(
        stack_profiles=profiles,
        factorize_stacks=factorize_stacks,
        skip_stacks=skip_stacks,
        skipped_layer_paths=skipped_layer_paths,
        k_hat=k_hat,
    )
