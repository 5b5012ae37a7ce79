"""Core reverse-mode autograd tensor.

The :class:`Tensor` class wraps a ``numpy.ndarray`` and records enough
information to back-propagate gradients through a computation graph.  Each
operation is a first-class :class:`~repro.tensor.ops.Op` object (a
forward/backward pair) dispatched through the active execution backend
(:mod:`repro.tensor.backend`); ``Tensor.backward`` topologically sorts the
recorded graph and runs each op's backward in reverse order, letting the
backend decide where gradient buffers come from.

Under :func:`no_grad` no graph is constructed at all — ops compute their
forward arrays without saving context and the result carries neither
children nor an op, which is the fast path ``evaluate()`` and the profiler
probes run on.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor import ops as _ops
# DEFAULT_DTYPE / _unbroadcast / the backend selectors are re-exported here
# for modules that historically imported them from repro.tensor.tensor.
from repro.tensor.backend import DEFAULT_DTYPE, get_backend, set_backend, use_backend  # noqa: F401
from repro.tensor.ops import Op, _unbroadcast  # noqa: F401


class _GradMode(threading.local):
    """Whether ops record the autograd tape, per thread (enabled by default).

    Per thread because thread-mode serve workers each enter ``no_grad``
    around every forward: with one process-wide flag, interleaved exits
    would restore each other's saved value and leave the flag flipped.
    """

    enabled = True


_grad_mode = _GradMode()

# Active graph-capture context (a ``repro.compile.graph.CaptureContext``) or
# ``None``.  When set, every ``apply_op`` reports the op it just executed so
# the compile layer can record a replayable schedule.  Installed/removed only
# by ``repro.compile``; observation is pure — capture never changes what the
# eager step computes.
_capture = None


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (like ``torch.no_grad``).

    The mode is per thread: it affects only the thread that enters it.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd tape."""
    return _grad_mode.enabled


ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_SCALAR_TYPES = (int, float, np.integer, np.floating)


def _as_array(value: ArrayLike, dtype=DEFAULT_DTYPE) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


def apply_op(op: Op, *inputs: "Tensor") -> "Tensor":
    """Execute ``op`` on ``inputs`` through the active backend.

    When gradients are enabled and at least one input requires grad, the
    result records the op and its parents; otherwise a bare tensor is
    returned and the op saves no context (graph-free inference).
    """
    be = get_backend()
    if _grad_mode.enabled and any(t.requires_grad for t in inputs):
        op.needs = tuple(t.requires_grad for t in inputs)
        data = op.forward(be, *[t.data for t in inputs])
        be.record(op.name)
        out = Tensor(data, requires_grad=True, _children=inputs, _op=op.name)
        out._op_obj = op
        if _capture is not None:
            _capture.on_op(op, inputs, out)
        return out
    op.needs = None
    data = op.forward(be, *[t.data for t in inputs])
    be.record(op.name)
    out = Tensor(data)
    if _capture is not None:
        _capture.on_op(op, inputs, out)
    return out


class Tensor:
    """An n-dimensional array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  Converted to ``float32`` by default.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_op", "_op_obj")
    __array_priority__ = 200  # ensure ndarray.__mul__(Tensor) defers to us

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _children: Tuple["Tensor", ...] = (),
        _op: str = "",
    ):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.grad: Optional[np.ndarray] = None
        grad_enabled = _grad_mode.enabled
        self.requires_grad = bool(requires_grad) and grad_enabled
        self._prev: Tuple[Tensor, ...] = _children if grad_enabled else ()
        self._op = _op
        self._op_obj: Optional[Op] = None

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a tensor with exactly one element, "
                f"got shape {self.shape} ({self.data.size} elements)"
            )
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        return apply_op(_ops.CloneOp(), self)

    def zero_grad(self) -> None:
        get_backend().release_grad(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self._op!r})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # Graph utilities
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate gradients from this tensor through the graph."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        # Topological order of the graph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))

        be = get_backend()
        release = not be.retain_intermediate_grads
        pooled = be.pool_buffers
        self.grad = grad.astype(DEFAULT_DTYPE, copy=True).reshape(self.data.shape)
        for node in reversed(topo):
            op = node._op_obj
            if op is None or node.grad is None:
                continue
            if op.needs is None:
                # needs is cleared when a pooling backend recycles the op's
                # context; replaying the graph would read freed buffers.
                raise RuntimeError(
                    "this graph was already backpropagated on a buffer-pooling "
                    "backend (its op context was recycled); rebuild the graph "
                    "or use the reference 'numpy' backend for double backward"
                )
            input_grads = op.backward(be, node.grad)
            for child, g in zip(node._prev, input_grads):
                if g is not None:
                    be.accumulate(child, g)
            if release and node is not self:
                be.release_grad(node)
            if pooled:
                op.release(be)
                op.needs = None

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return apply_op(_ops.AddOp(), self, other)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return apply_op(_ops.MulOp(), self, other)

    def __neg__(self) -> "Tensor":
        return apply_op(_ops.NegOp(), self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return apply_op(_ops.DivOp(), self, other)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, _SCALAR_TYPES):
            raise TypeError(
                f"only scalar exponents are supported, got {type(exponent).__name__}"
            )
        return apply_op(_ops.PowOp(float(exponent)), self)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    # ------------------------------------------------------------------ #
    # Elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        return apply_op(_ops.ExpOp(), self)

    def log(self) -> "Tensor":
        return apply_op(_ops.LogOp(), self)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        return apply_op(_ops.TanhOp(), self)

    def sigmoid(self) -> "Tensor":
        return apply_op(_ops.SigmoidOp(), self)

    def relu(self) -> "Tensor":
        return apply_op(_ops.ReluOp(), self)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        return apply_op(_ops.GeluOp(), self)

    def abs(self) -> "Tensor":
        return apply_op(_ops.AbsOp(), self)

    def clip(self, low: float, high: float) -> "Tensor":
        return apply_op(_ops.ClipOp(low, high), self)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op(_ops.SumOp(axis, keepdims), self)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op(_ops.MaxOp(axis, keepdims), self)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply_op(_ops.ReshapeOp(shape), self)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return apply_op(_ops.TransposeOp(axes), self)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        return apply_op(_ops.GetItemOp(index), self)

    def pad(self, pad_width) -> "Tensor":
        return apply_op(_ops.PadOp(pad_width), self)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(shape)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return apply_op(_ops.MatMulOp(), self, other)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        rng = rng or np.random.default_rng()
        return Tensor(rng.standard_normal(shape).astype(DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        return apply_op(_ops.ConcatOp(axis), *tensors)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        expanded = [t.reshape(t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors]
        return Tensor.concatenate(expanded, axis=axis)
