"""Execution backends for the autograd engine.

The engine in :mod:`repro.tensor.tensor` is *policy free*: every op computes
its forward result and its input gradients with plain numpy expressions, but
all memory-strategy decisions — where gradient buffers come from, whether
intermediate gradients are retained after backward, whether the hot-path
kernels run fused or as seed-faithful op chains — are delegated to the active
:class:`Backend`.

Backends are registered exactly like models and training methods::

    @register_backend("my-backend")
    class MyBackend(Backend):
        ...

    set_backend("my-backend")          # or use_backend("...") as a context

Two backends ship with the library:

``numpy`` (default)
    The reference execution strategy.  Every op allocates fresh buffers and
    the hot paths run as the same op chains the original engine recorded, so
    results are bit-for-bit identical to the historical implementation.

``numpy-fast``
    The same arithmetic, scheduled differently: gradient buffers are drawn
    from a shape-keyed arena and recycled as soon as the backward pass has
    consumed them, accumulation happens in place, conv and pool columns are
    gathered in the activations' channels-last layout into pooled buffers,
    and the hot-path kernels (``linear_act``, ``softmax_cross_entropy``,
    fused attention weights) run as single fused graph nodes.  Every fused
    kernel replicates the exact float-op sequence of the unfused chain, so
    losses and gradients stay bit-for-bit identical to the ``numpy`` backend;
    only allocation behaviour differs.  Because buffers are recycled,
    intermediate (non-leaf) gradients are *not* retained after ``backward``
    and a graph must not be backpropagated twice on this backend.

Both backends keep per-op counters (call counts and, for GEMM-bearing ops,
exact FLOPs) that :mod:`repro.profiling` reads instead of re-deriving costs
from traced shapes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Type, Union

import numpy as np

DEFAULT_DTYPE = np.float32

# Maximum pooled buffers per (shape, dtype) bucket; anything beyond is left
# to the garbage collector so pathological shape churn cannot hoard memory.
_ARENA_BUCKET_CAP = 16


@dataclass(frozen=True)
class OpCount:
    """Read-only snapshot of one op's execution counters."""

    calls: int
    flops: float


class Backend:
    """Execution-strategy interface the engine dispatches through.

    Subclasses toggle class-level policy flags and override the buffer
    methods; the arithmetic itself lives in the ops and is shared by all
    backends.
    """

    #: Registry name, filled in by :func:`register_backend`.
    name: str = "base"
    #: Run hot-path kernels (linear, softmax cross-entropy, attention
    #: weights) as single fused graph nodes instead of seed-style op chains.
    fuse_kernels: bool = False
    #: Draw gradient/scratch buffers from the arena and recycle them.
    pool_buffers: bool = False
    #: Gather conv/pool columns from, and scatter their gradients back into,
    #: a zero-bordered channels-last image: the activations' own layout.
    #: Bit-identical values; the reference backend keeps the seed's loop
    #: gathers over an NCHW padded copy.
    fast_gather: bool = False
    #: Keep non-leaf gradients alive after ``backward`` (the reference
    #: behaviour).  Pooling backends drop them so the buffers can be reused.
    retain_intermediate_grads: bool = True

    def __init__(self) -> None:
        self._counts: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------ #
    # Per-op counters
    # ------------------------------------------------------------------ #
    def record(self, name: str) -> None:
        """Count one execution of op ``name``."""
        entry = self._counts.get(name)
        if entry is None:
            self._counts[name] = entry = [0, 0.0]
        entry[0] += 1

    def record_bulk(self, counts: Dict[str, int]) -> None:
        """Count ``counts[name]`` executions of each op in one call.

        Used by compiled-plan replay, whose op sequence is static: one bulk
        update per replay keeps the counters identical to per-op recording
        without per-step dictionary traffic.
        """
        for name, calls in counts.items():
            entry = self._counts.get(name)
            if entry is None:
                self._counts[name] = entry = [0, 0.0]
            entry[0] += calls

    def add_flops(self, name: str, flops: float) -> None:
        """Attribute ``flops`` floating-point operations to op ``name``."""
        entry = self._counts.get(name)
        if entry is None:
            self._counts[name] = entry = [0, 0.0]
        entry[1] += flops

    def counters(self) -> Dict[str, OpCount]:
        """Snapshot of every op executed since the last reset."""
        return {name: OpCount(int(c[0]), float(c[1])) for name, c in self._counts.items()}

    def reset_counters(self) -> None:
        self._counts.clear()

    # ------------------------------------------------------------------ #
    # Buffer management
    # ------------------------------------------------------------------ #
    def take(self, shape: Tuple[int, ...], dtype=DEFAULT_DTYPE) -> np.ndarray:
        """An uninitialised buffer of the requested shape."""
        return np.empty(shape, dtype=dtype)

    def take_zeros(self, shape: Tuple[int, ...], dtype=DEFAULT_DTYPE) -> np.ndarray:
        """A zero-filled buffer of the requested shape."""
        return np.zeros(shape, dtype=dtype)

    def take_like(self, prototype: np.ndarray) -> np.ndarray:
        """An uninitialised buffer with ``prototype``'s shape *and layout*.

        float32 reduction order — hence bitwise results — depends on memory
        layout, so buffers standing in for ``zeros_like``/elementwise results
        must reproduce the prototype's (possibly permuted) strides.
        """
        return np.empty_like(prototype, dtype=DEFAULT_DTYPE)

    def give(self, array: Optional[np.ndarray]) -> None:
        """Return a buffer obtained from :meth:`take` to the allocator."""

    # ------------------------------------------------------------------ #
    # Gradient accumulation
    # ------------------------------------------------------------------ #
    def accumulate(self, tensor, grad: np.ndarray) -> None:
        """Add ``grad`` into ``tensor.grad``, allocating the buffer if needed.

        Mirrors the original ``Tensor._accumulate`` float-op sequence exactly
        (zero-init then ``+=``) so gradients are bit-identical to the seed.
        """
        if not tensor.requires_grad:
            return
        if tensor.grad is None:
            tensor.grad = np.zeros_like(tensor.data, dtype=DEFAULT_DTYPE)
        tensor.grad += grad.astype(DEFAULT_DTYPE, copy=False)

    def release_grad(self, tensor) -> None:
        """Drop ``tensor.grad``, recycling the buffer when pooling."""
        tensor.grad = None


@dataclass(frozen=True)
class _BackendInfo:
    cls: Type[Backend]
    description: str


_BACKENDS: Dict[str, _BackendInfo] = {}
_INSTANCES: Dict[str, Backend] = {}


def register_backend(name: str, description: str = ""):
    """Class decorator registering a :class:`Backend` under ``name``."""

    def decorator(cls: Type[Backend]) -> Type[Backend]:
        if not (isinstance(cls, type) and issubclass(cls, Backend)):
            raise TypeError(f"@register_backend target must subclass Backend, got {cls!r}")
        if name in _BACKENDS:
            raise ValueError(f"backend {name!r} is already registered")
        cls.name = name
        doc_lines = (cls.__doc__ or "").strip().splitlines()
        _BACKENDS[name] = _BackendInfo(cls, description or (doc_lines[0] if doc_lines else ""))
        return cls

    return decorator


def available_backends() -> List[str]:
    """Sorted names of every registered backend."""
    return sorted(_BACKENDS)


def backend_descriptions() -> Dict[str, str]:
    return {name: info.description for name, info in sorted(_BACKENDS.items())}


def _instance(name: str) -> Backend:
    if name not in _BACKENDS:
        raise KeyError(f"unknown backend {name!r}; available: {available_backends()}")
    if name not in _INSTANCES:
        _INSTANCES[name] = _BACKENDS[name].cls()
    return _INSTANCES[name]


def get_backend() -> Backend:
    """The backend every tensor op currently dispatches through."""
    return _active


def set_backend(backend: Union[str, Backend]) -> Backend:
    """Install ``backend`` (a registered name or an instance) as active."""
    global _active
    if isinstance(backend, str):
        backend = _instance(backend)
    elif not isinstance(backend, Backend):
        raise TypeError(f"set_backend expects a name or Backend instance, got {type(backend)!r}")
    _active = backend
    return backend


@contextlib.contextmanager
def use_backend(backend: Union[str, Backend]) -> Iterator[Backend]:
    """Temporarily switch the active backend (restores the previous one)."""
    previous = _active
    installed = set_backend(backend)
    try:
        yield installed
    finally:
        set_backend(previous)


# --------------------------------------------------------------------------- #
# Built-in backends
# --------------------------------------------------------------------------- #
@register_backend("numpy", "reference strategy: fresh buffers, unfused op chains")
class NumpyBackend(Backend):
    """Seed-faithful execution: fresh allocations, unfused hot paths."""


@register_backend("numpy-fast", "arena-pooled buffers, in-place accumulation, fused hot-path kernels")
class NumpyFastBackend(Backend):
    """Arena-allocated gradients, in-place accumulation and fused kernels.

    Bit-identical arithmetic to the ``numpy`` backend; only allocation and
    graph shape differ.  Intermediate gradients are recycled during
    ``backward`` and a graph must not be backpropagated twice.
    """

    fuse_kernels = True
    pool_buffers = True
    fast_gather = True
    retain_intermediate_grads = False

    def __init__(self) -> None:
        super().__init__()
        # Buckets are keyed by (shape, dtype, strides): memory *layout* is
        # part of the contract.  ``zeros_like`` in the reference accumulate
        # preserves the prototype's (possibly permuted) layout, and float32
        # reduction order — hence bitwise results — depends on that layout,
        # so recycled gradient buffers must reproduce it exactly.
        self._arena: Dict[Tuple, List[np.ndarray]] = {}

    @staticmethod
    def _c_strides(shape: Tuple[int, ...], itemsize: int) -> Tuple[int, ...]:
        strides = []
        acc = itemsize
        for dim in reversed(shape):
            strides.append(acc)
            acc *= max(dim, 1)
        return tuple(reversed(strides))

    def take(self, shape: Tuple[int, ...], dtype=DEFAULT_DTYPE) -> np.ndarray:
        shape = tuple(shape)
        dt = np.dtype(dtype)
        bucket = self._arena.get((shape, dt.str, self._c_strides(shape, dt.itemsize)))
        if bucket:
            # list.pop() is atomic, but the emptiness check above is not —
            # threads that share this arena (a prefetching loader's
            # producers, a thread-mode serving pool's workers) may race past
            # `if bucket` with one buffer left.  Losing the race means
            # allocating fresh, never sharing a buffer.
            try:
                return bucket.pop()
            except IndexError:
                pass
        return np.empty(shape, dtype=dt)

    def take_zeros(self, shape: Tuple[int, ...], dtype=DEFAULT_DTYPE) -> np.ndarray:
        buf = self.take(shape, dtype)
        buf.fill(0)
        return buf

    def take_like(self, prototype: np.ndarray) -> np.ndarray:
        """A recycled or fresh buffer with ``zeros_like(prototype)``'s layout."""
        key = (prototype.shape, np.dtype(DEFAULT_DTYPE).str, prototype.strides)
        bucket = self._arena.get(key)
        if bucket:
            try:
                return bucket.pop()  # raced empty: see take()
            except IndexError:
                pass
        return np.empty_like(prototype, dtype=DEFAULT_DTYPE)

    def give(self, array: Optional[np.ndarray]) -> None:
        # Only pool buffers that own their memory (views keep their base
        # alive and could alias live data) and whose layout is a permuted
        # compact one (what empty/empty_like produce), so a future take with
        # the same key gets exactly this layout back.
        if array is None or array.base is not None:
            return
        if not array.flags.c_contiguous:
            order = sorted(range(array.ndim), key=lambda i: array.strides[i], reverse=True)
            compact = self._c_strides(tuple(array.shape[i] for i in order), array.itemsize)
            if tuple(array.strides[i] for i in order) != compact:
                return
        key = (array.shape, array.dtype.str, array.strides)
        bucket = self._arena.setdefault(key, [])
        if len(bucket) < _ARENA_BUCKET_CAP:
            bucket.append(array)

    def accumulate(self, tensor, grad: np.ndarray) -> None:
        if not tensor.requires_grad:
            return
        grad = grad.astype(DEFAULT_DTYPE, copy=False)
        if tensor.grad is None:
            buf = self.take_like(tensor.data)
            # First touch: copy (bit-identical to zero-init + add).
            np.copyto(buf, grad)
            tensor.grad = buf
        else:
            np.add(tensor.grad, grad, out=tensor.grad)

    def release_grad(self, tensor) -> None:
        grad = tensor.grad
        tensor.grad = None
        self.give(grad)

    def clear_arena(self) -> None:
        """Drop every pooled buffer (mostly useful in tests)."""
        self._arena.clear()


@register_backend("numpy-compiled",
                  "capture-and-replay: record the op graph once, replay a "
                  "static dispatch-free schedule")
class NumpyCompiledBackend(NumpyFastBackend):
    """Graph-captured execution: numpy-fast allocation plus static replay.

    Inherits every ``numpy-fast`` policy (fused kernels, pooled buffers,
    fast gathers) and adds a *take schedule*: while :mod:`repro.compile`
    captures a step, every buffer the ops draw from the arena is logged in
    order; on replay the same buffers are served back positionally, so the
    steady-state step performs no arena-key hashing at all.  Buffers owned
    by a recorded schedule are never returned to the arena — the schedule
    itself is their pool.  Arithmetic is untouched, so results stay
    bit-identical to the ``numpy`` backend.
    """

    #: Marker the training/serving layers use to detect that capture-and-
    #: replay plans should drive the step (see ``repro.compile``).
    compiled_plans = True

    def __init__(self) -> None:
        super().__init__()
        self._sched: Optional[List[np.ndarray]] = None   # record-mode log
        self._replay: Optional[List] = None              # [buffers, cursor]
        self._owned: set = set()                         # id() of plan buffers

    # ------------------------------------------------------------------ #
    # Schedule control (driven by repro.compile)
    # ------------------------------------------------------------------ #
    def begin_record(self, log: List[np.ndarray]) -> None:
        """Log every take into ``log`` until :meth:`end_record`."""
        self._sched = log

    def end_record(self) -> None:
        self._sched = None

    def begin_replay(self, buffers: List[np.ndarray]) -> None:
        """Serve takes positionally from ``buffers`` until :meth:`end_replay`."""
        self._replay = [buffers, 0]

    def end_replay(self) -> None:
        replay, self._replay = self._replay, None
        if replay is not None and replay[1] != len(replay[0]):
            raise RuntimeError(
                f"compiled replay consumed {replay[1]} of {len(replay[0])} "
                "scheduled buffers; the plan no longer matches the op "
                "sequence (invalidate and recapture)")

    def own(self, buffers) -> None:
        """Mark plan-allocated buffers so :meth:`give` never pools them.

        A plan's static gradient buffers stay bound to live tensors across
        replays; letting the arena recycle one (``zero_grad`` →
        ``release_grad`` → ``give``) would alias plan state with unrelated
        scratch.
        """
        for buf in buffers:
            self._owned.add(id(buf))

    def disown(self, buffers) -> None:
        """Forget schedule ownership (called when a plan is evicted)."""
        for buf in buffers:
            self._owned.discard(id(buf))

    # ------------------------------------------------------------------ #
    # Buffer management: record/replay aware
    # ------------------------------------------------------------------ #
    def take(self, shape: Tuple[int, ...], dtype=DEFAULT_DTYPE) -> np.ndarray:
        replay = self._replay
        if replay is not None:
            buf = replay[0][replay[1]]
            replay[1] += 1
            return buf
        buf = super().take(shape, dtype)
        if self._sched is not None:
            self._sched.append(buf)
            self._owned.add(id(buf))
        return buf

    def take_zeros(self, shape: Tuple[int, ...], dtype=DEFAULT_DTYPE) -> np.ndarray:
        replay = self._replay
        if replay is not None:
            buf = replay[0][replay[1]]
            replay[1] += 1
            buf.fill(0)
            return buf
        return super().take_zeros(shape, dtype)  # delegates to take(): logged there

    def take_like(self, prototype: np.ndarray) -> np.ndarray:
        replay = self._replay
        if replay is not None:
            buf = replay[0][replay[1]]
            replay[1] += 1
            return buf
        buf = super().take_like(prototype)
        if self._sched is not None:
            self._sched.append(buf)
            self._owned.add(id(buf))
        return buf

    def give(self, array: Optional[np.ndarray]) -> None:
        if array is None:
            return
        if self._replay is not None or id(array) in self._owned:
            # Plan-owned buffers are replayed positionally; letting them
            # into the arena would hand live plan memory to unrelated takes.
            return
        super().give(array)


_active: Backend = _instance("numpy")

__all__ = [
    "DEFAULT_DTYPE",
    "Backend",
    "NumpyBackend",
    "NumpyCompiledBackend",
    "NumpyFastBackend",
    "OpCount",
    "available_backends",
    "backend_descriptions",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]
