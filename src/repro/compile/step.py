"""Keyed plan cache and the compiled training-step driver.

:class:`StepCompiler` owns one plan per ``(model, input signature, mode,
parameter structure)`` key.  The first step under a key runs eagerly while
the capture hook records it (the forward through the user's thunk, the
backward through :meth:`CompiledPlan.record_backward`, which *is* that
step's backward); every later step replays the static schedule with no
Python graph construction at all.

Guards — anything that changes the arithmetic forces a recapture or a
permanent eager fallback:

* batch array shapes/dtypes and ``model.training`` / grad mode are part of
  the key;
* the parameter-structure fingerprint is the identity of every parameter's
  backing array, so Cuttlefish's mid-run rank switch (which swaps modules
  and their parameters) lands on a fresh key while in-place optimizer
  updates do not.  A capture for a model first releases that model's plans
  under any other fingerprint: they read arrays the model no longer holds,
  so no later step can match them, and they would pin those arrays, their
  take schedules and their last step's saved activations until LRU eviction;
* a capture the context cannot prove replayable (see
  :mod:`repro.compile.graph`) blacklists its key: those steps run eagerly,
  bit-identically, forever.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Optional

import numpy as np

from repro.compile.graph import CaptureContext, CaptureError
from repro.compile.plan import CompiledPlan, build_forward_plan
from repro.telemetry import tracing as _tracing
from repro.tensor import backend as _backend
from repro.tensor import tensor as _tensor_core
from repro.tensor.tensor import Tensor

# Capture mutates module-global state (the tensor capture hook, the backend
# take schedule) and replay advances backend cursors; one step runs at a
# time per process.
_COMPILE_LOCK = threading.RLock()

_MAX_BLACKLIST = 256


def backend_compiles(be=None) -> bool:
    """Whether ``be`` (default: the active backend) wants compiled plans."""
    be = be if be is not None else _backend.get_backend()
    return bool(getattr(be, "compiled_plans", False))


class StepHandle:
    """Result of :meth:`StepCompiler.forward` — a loss plus a backward."""

    __slots__ = ("loss", "aux", "was_capture", "was_replay")

    def backward(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class _EagerHandle(StepHandle):
    """Plain eager execution (fallback path)."""

    def __init__(self, loss):
        self.loss = loss
        self.aux = {}
        self.was_capture = False
        self.was_replay = False

    def backward(self) -> None:
        self.loss.backward()


class _CaptureHandle(StepHandle):
    """The capture step: eager forward already ran; backward records the plan."""

    def __init__(self, compiler: "StepCompiler", key, plan: CompiledPlan,
                 cap: CaptureContext, loss, aux: Dict[str, object], be):
        self.loss = loss
        self.aux = aux
        self.was_capture = True
        self.was_replay = False
        self._compiler = compiler
        self._key = key
        self._plan = plan
        self._cap = cap
        self._be = be

    def backward(self) -> None:
        be = self._be
        traced = _tracing.enabled()
        start = time.perf_counter() if traced else 0.0
        with _COMPILE_LOCK:
            bwd_takes: list = []
            be.begin_record(bwd_takes)
            try:
                self._plan.record_backward(self._cap, self.loss, be, bwd_takes)
            finally:
                be.end_record()
            self._compiler._install(self._key, self._plan)
        self._cap = None  # release capture-step tensors
        if traced:
            _tracing.record_span("compile_capture_backward", start,
                                 time.perf_counter(), cat="compile")


class _ReplayHandle(StepHandle):
    """A replayed step: values live in the plan's slot table."""

    __slots__ = ("_plan", "_vals", "_be")

    def __init__(self, plan: CompiledPlan, vals: list, be):
        self._plan = plan
        self._vals = vals
        self._be = be
        self.was_capture = False
        self.was_replay = True
        self.loss = Tensor(vals[plan.loss_slot])
        self.aux = {name: Tensor(vals[slot]) for name, slot in plan.aux_slots.items()}

    def backward(self) -> None:
        traced = _tracing.enabled()
        start = time.perf_counter() if traced else 0.0
        with _COMPILE_LOCK:
            self._plan.run_backward(self._be)
        # loss/aux tensors were extracted in __init__ and the backward has
        # consumed every op-saved activation, so drop the slot table now
        # rather than carrying a full activation set into the next step.
        self._vals = None
        if traced:
            _tracing.record_span("replay_backward", start,
                                 time.perf_counter(), cat="compile")


class StepCompiler:
    """Capture-once / replay-forever driver for training and inference steps."""

    def __init__(self, max_plans: int = 8):
        self.max_plans = max_plans
        self._plans: "OrderedDict[tuple, CompiledPlan]" = OrderedDict()
        self._blacklist: set = set()
        self.stats = {"captures": 0, "replays": 0, "fallbacks": 0}

    # ------------------------------------------------------------------ #
    def forward(self, model, batch, thunk: Callable[[], object],
                aux: Optional[Callable[[], Dict[str, object]]] = None) -> StepHandle:
        """Run one step's forward: replay if a plan matches, capture otherwise.

        ``batch`` is the step's input arrays (non-arrays are ignored);
        ``thunk`` builds the loss (or output) tensor eagerly and is only
        called on capture and fallback steps.  ``aux`` optionally names
        extra graph tensors whose replayed values the caller wants back
        (e.g. logits for accuracy meters).
        """
        be = _backend.get_backend()
        if not backend_compiles(be):
            return _EagerHandle(thunk())
        arrays = [a for a in batch if isinstance(a, np.ndarray)]
        key = self._key(model, arrays)
        if key in self._blacklist:
            self.stats["fallbacks"] += 1
            return _EagerHandle(thunk())
        plan = self._plans.get(key)
        if plan is not None and plan.ready:
            self._plans.move_to_end(key)
            self.stats["replays"] += 1
            traced = _tracing.enabled()
            start = time.perf_counter() if traced else 0.0
            with _COMPILE_LOCK:
                vals = plan.run_forward(arrays, be)
            if traced:
                _tracing.record_span("replay_forward", start,
                                     time.perf_counter(), cat="compile")
            return _ReplayHandle(plan, vals, be)
        return self._capture(key, arrays, model, thunk, aux, be)

    # ------------------------------------------------------------------ #
    def _capture(self, key, arrays, model, thunk, aux, be) -> StepHandle:
        traced = _tracing.enabled()
        start = time.perf_counter() if traced else 0.0
        with _COMPILE_LOCK:
            self._drop_stale(key)
            if _tensor_core._capture is not None:
                # Nested capture (a thunk that itself drives a compiler):
                # observe-only is no longer well defined — run eagerly.
                return _EagerHandle(thunk())
            cap = CaptureContext(arrays)
            fwd_takes: list = []
            _tensor_core._capture = cap
            be.begin_record(fwd_takes)
            try:
                loss = thunk()
            finally:
                _tensor_core._capture = None
                be.end_record()
            aux_tensors = aux() if aux is not None else {}
            try:
                plan = build_forward_plan(cap, loss, aux_tensors, be, fwd_takes)
            except CaptureError:
                be.disown(fwd_takes)
                self._add_blacklist(key)
                self.stats["fallbacks"] += 1
                return _EagerHandle(loss)
            self.stats["captures"] += 1
        if traced:
            _tracing.record_span("compile_capture", start,
                                 time.perf_counter(), cat="compile")
        if not (loss.requires_grad and _tensor_core.is_grad_enabled()):
            # Inference plan: forward-only, ready immediately.
            plan.ready = True
            with _COMPILE_LOCK:
                self._install(key, plan)
            handle = _EagerHandle(loss)
            handle.was_capture = True
            handle.aux = aux_tensors
            return handle
        return _CaptureHandle(self, key, plan, cap, loss, aux_tensors, be)

    # ------------------------------------------------------------------ #
    def _key(self, model, arrays) -> tuple:
        params = tuple(id(p.data) for p in model.parameters()) if model is not None else ()
        return (
            id(model),
            tuple((a.shape, a.dtype.str) for a in arrays),
            bool(getattr(model, "training", True)),
            _tensor_core.is_grad_enabled(),
            params,
        )

    def _install(self, key, plan: CompiledPlan) -> None:
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.max_plans:
            _, evicted = self._plans.popitem(last=False)
            evicted.release()

    def _drop_stale(self, key) -> None:
        """Release the plans of ``key``'s model whose parameter fingerprint
        differs from ``key``'s (a model that returns to them recaptures)."""
        model_id, params = key[0], key[-1]
        for stale in [k for k in self._plans if k[0] == model_id and k[-1] != params]:
            self._plans.pop(stale).release()

    def _add_blacklist(self, key) -> None:
        if len(self._blacklist) >= _MAX_BLACKLIST:
            self._blacklist.clear()
        self._blacklist.add(key)

    def reset(self) -> None:
        """Drop every plan (they recapture on next use)."""
        for plan in self._plans.values():
            plan.release()
        self._plans.clear()
        self._blacklist.clear()
