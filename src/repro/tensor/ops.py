"""First-class autograd ops: forward/backward pairs over numpy arrays.

Each op is a tiny object with two methods: ``forward(backend, *arrays)``
computes the result and stashes whatever context backward needs;
``backward(backend, grad)`` maps the output gradient to one gradient (or
``None``, or a tuple of ordered parts: :meth:`Op.backward`) per input.  Ops
never touch :class:`~repro.tensor.tensor.Tensor` objects — the engine in
``tensor.py`` owns graph bookkeeping, and the active
:class:`~repro.tensor.backend.Backend` owns buffer policy.

Every formula here is a verbatim port of the original per-call backward
closures, so gradients are bit-for-bit identical to the seed engine.  The
one exception is GELU's forward, which cubes by multiplication
(:func:`gelu_forward`) where the seed engine called ``** 3``.  Ops
may return broadcast/transpose *views* from ``backward`` — the backend
copies during accumulation, never writes through the returned array.

``self.needs`` (set by the engine before ``forward``) holds one bool per
input; ops skip gradient work for inputs that don't require grad.  Under
``no_grad`` the engine sets ``needs`` to ``None`` and ops skip saving
context entirely — this is the graph-free inference path.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor.backend import DEFAULT_DTYPE, Backend

#: What ``Op.backward`` returns per input: a gradient, ``None`` (no gradient)
#: or a tuple of ordered gradient parts.
GradEntry = Union[None, np.ndarray, Tuple[np.ndarray, ...]]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were introduced or broadcast to reach ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Op:
    """Base class for one differentiable operation (one graph node)."""

    __slots__ = ("needs",)
    name = "op"

    def forward(self, be: Backend, *arrays: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, be: Backend, grad: np.ndarray) -> Sequence[GradEntry]:
        """One entry per input: its gradient, ``None``, or a tuple of parts.

        A tuple holds the input's gradient as ordered parts that the engine
        adds into the input's gradient one by one, in order, exactly as
        separate graph nodes would have.  An op that replaces a chain whose
        input other ops also feed returns its contributions this way: the
        input's gradient may already hold theirs, and summing the parts
        first would reorder the float adds.
        """
        raise NotImplementedError

    def release(self, be: Backend) -> None:
        """Return pooled scratch to the backend once backward has run."""


# --------------------------------------------------------------------------- #
# Elementwise arithmetic
# --------------------------------------------------------------------------- #
class AddOp(Op):
    __slots__ = ("a_shape", "b_shape")
    name = "add"

    def forward(self, be, a, b):
        if self.needs is not None:
            self.a_shape, self.b_shape = a.shape, b.shape
        return a + b

    def backward(self, be, grad):
        return (
            _unbroadcast(grad, self.a_shape) if self.needs[0] else None,
            _unbroadcast(grad, self.b_shape) if self.needs[1] else None,
        )


class MulOp(Op):
    __slots__ = ("a", "b")
    name = "mul"

    def forward(self, be, a, b):
        if self.needs is not None:
            self.a, self.b = a, b
        return a * b

    def backward(self, be, grad):
        return (
            _unbroadcast(grad * self.b, self.a.shape) if self.needs[0] else None,
            _unbroadcast(grad * self.a, self.b.shape) if self.needs[1] else None,
        )


class NegOp(Op):
    __slots__ = ()
    name = "neg"

    def forward(self, be, a):
        return -a

    def backward(self, be, grad):
        return (-grad,)


class DivOp(Op):
    __slots__ = ("a", "b")
    name = "div"

    def forward(self, be, a, b):
        if self.needs is not None:
            self.a, self.b = a, b
        return a / b

    def backward(self, be, grad):
        return (
            _unbroadcast(grad / self.b, self.a.shape) if self.needs[0] else None,
            _unbroadcast(-grad * self.a / (self.b ** 2), self.b.shape) if self.needs[1] else None,
        )


class PowOp(Op):
    __slots__ = ("a", "exponent")
    name = "pow"

    def __init__(self, exponent: float):
        self.exponent = exponent

    def forward(self, be, a):
        if self.needs is not None:
            self.a = a
        return a ** self.exponent

    def backward(self, be, grad):
        return (grad * self.exponent * self.a ** (self.exponent - 1),)


# --------------------------------------------------------------------------- #
# Elementwise functions
# --------------------------------------------------------------------------- #
class ExpOp(Op):
    __slots__ = ("out",)
    name = "exp"

    def forward(self, be, a):
        out = np.exp(a)
        if self.needs is not None:
            self.out = out
        return out

    def backward(self, be, grad):
        return (grad * self.out,)


class LogOp(Op):
    __slots__ = ("a",)
    name = "log"

    def forward(self, be, a):
        if self.needs is not None:
            self.a = a
        return np.log(a)

    def backward(self, be, grad):
        return (grad / self.a,)


class TanhOp(Op):
    __slots__ = ("out",)
    name = "tanh"

    def forward(self, be, a):
        out = np.tanh(a)
        if self.needs is not None:
            self.out = out
        return out

    def backward(self, be, grad):
        return (grad * (1.0 - self.out ** 2),)


class SigmoidOp(Op):
    __slots__ = ("out",)
    name = "sigmoid"

    def forward(self, be, a):
        out = 1.0 / (1.0 + np.exp(-a))
        if self.needs is not None:
            self.out = out
        return out

    def backward(self, be, grad):
        return (grad * self.out * (1.0 - self.out),)


class ReluOp(Op):
    __slots__ = ("mask",)
    name = "relu"

    def forward(self, be, a):
        mask = a > 0
        if self.needs is not None:
            self.mask = mask
        return a * mask

    def backward(self, be, grad):
        return (grad * self.mask,)


# sqrt(2/pi) of GELU's tanh approximation, rounded to float32 once.
_GELU_C = np.sqrt(2.0 / np.pi).astype(DEFAULT_DTYPE)


def gelu_forward(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """GELU's tanh approximation of ``x``: returns ``(out, tanh_inner)``.

    The one GELU kernel: :class:`GeluOp` and the fused ``linear_act`` both
    call it.  The cube is ``x * x * x``, not ``x ** 3``: numpy's float32
    ``power`` can take 70-100x longer on negative inputs than on positive
    ones, and its bits depend on which SIMD kernel numpy dispatches to.
    Two multiplies are cheap for either sign and give the same bytes on
    every host.
    """
    tanh_inner = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + tanh_inner), tanh_inner


def gelu_local_grad(x: np.ndarray, tanh_inner: np.ndarray) -> np.ndarray:
    """d gelu / dx at ``x``, from the ``tanh_inner`` its forward returned."""
    sech2 = 1.0 - tanh_inner ** 2
    d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
    return 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner


class GeluOp(Op):
    """GELU, tanh approximation (:func:`gelu_forward`)."""

    __slots__ = ("a", "tanh_inner")
    name = "gelu"

    def forward(self, be, a):
        out, tanh_inner = gelu_forward(a)
        if self.needs is not None:
            self.a, self.tanh_inner = a, tanh_inner
        return out

    def backward(self, be, grad):
        return (grad * gelu_local_grad(self.a, self.tanh_inner),)


class AbsOp(Op):
    __slots__ = ("sign",)
    name = "abs"

    def forward(self, be, a):
        if self.needs is not None:
            self.sign = np.sign(a)
        return np.abs(a)

    def backward(self, be, grad):
        return (grad * self.sign,)


class ClipOp(Op):
    __slots__ = ("low", "high", "mask")
    name = "clip"

    def __init__(self, low: float, high: float):
        self.low, self.high = low, high

    def forward(self, be, a):
        if self.needs is not None:
            self.mask = (a >= self.low) & (a <= self.high)
        return np.clip(a, self.low, self.high)

    def backward(self, be, grad):
        return (grad * self.mask,)


# --------------------------------------------------------------------------- #
# Reductions
# --------------------------------------------------------------------------- #
class SumOp(Op):
    __slots__ = ("axis", "keepdims", "in_shape")
    name = "sum"

    def __init__(self, axis=None, keepdims: bool = False):
        self.axis, self.keepdims = axis, keepdims

    def forward(self, be, a):
        if self.needs is not None:
            self.in_shape = a.shape
        return a.sum(axis=self.axis, keepdims=self.keepdims)

    def backward(self, be, grad):
        if self.axis is not None and not self.keepdims:
            axes = self.axis if isinstance(self.axis, tuple) else (self.axis,)
            grad = np.expand_dims(grad, axes)
        # Broadcast view — the backend copies during accumulation.
        return (np.broadcast_to(grad, self.in_shape),)


class MaxOp(Op):
    __slots__ = ("axis", "keepdims", "a", "out")
    name = "max"

    def __init__(self, axis=None, keepdims: bool = False):
        self.axis, self.keepdims = axis, keepdims

    def forward(self, be, a):
        out = a.max(axis=self.axis, keepdims=self.keepdims)
        if self.needs is not None:
            self.a, self.out = a, out
        return out

    def backward(self, be, grad):
        expanded = self.out
        if self.axis is not None and not self.keepdims:
            axes = self.axis if isinstance(self.axis, tuple) else (self.axis,)
            grad = np.expand_dims(grad, axes)
            expanded = np.expand_dims(self.out, axes)
        mask = (self.a == expanded).astype(DEFAULT_DTYPE)
        # Split gradient equally among ties to keep the op well defined.
        counts = mask.sum(axis=self.axis, keepdims=True) if self.axis is not None else mask.sum()
        return (mask * grad / counts,)


# --------------------------------------------------------------------------- #
# Shape manipulation
# --------------------------------------------------------------------------- #
class ReshapeOp(Op):
    __slots__ = ("shape", "in_shape")
    name = "reshape"

    def __init__(self, shape):
        self.shape = shape

    def forward(self, be, a):
        if self.needs is not None:
            self.in_shape = a.shape
        return a.reshape(self.shape)

    def backward(self, be, grad):
        return (grad.reshape(self.in_shape),)


class TransposeOp(Op):
    __slots__ = ("axes", "inverse")
    name = "transpose"

    def __init__(self, axes: Tuple[int, ...]):
        self.axes = axes

    def forward(self, be, a):
        if self.needs is not None:
            self.inverse = np.argsort(self.axes)
        return a.transpose(self.axes)

    def backward(self, be, grad):
        return (grad.transpose(self.inverse),)


class GetItemOp(Op):
    __slots__ = ("index", "in_shape", "_scratch")
    name = "getitem"

    def __init__(self, index):
        self.index = index
        self._scratch = None

    def forward(self, be, a):
        if self.needs is not None:
            self.in_shape = a.shape
        return a[self.index]

    def backward(self, be, grad):
        if be.pool_buffers:
            self._scratch = out = be.take_zeros(self.in_shape)
        else:
            out = np.zeros(self.in_shape, dtype=DEFAULT_DTYPE)
        np.add.at(out, self.index, grad)
        return (out,)

    def release(self, be):
        be.give(self._scratch)
        self._scratch = None


class PadOp(Op):
    __slots__ = ("pad_width", "slices")
    name = "pad"

    def __init__(self, pad_width):
        self.pad_width = pad_width

    def forward(self, be, a):
        if self.needs is not None:
            self.slices = tuple(
                slice(before, before + dim)
                for (before, _after), dim in zip(self.pad_width, a.shape)
            )
        return np.pad(a, self.pad_width)

    def backward(self, be, grad):
        return (grad[self.slices],)


class CloneOp(Op):
    __slots__ = ()
    name = "clone"

    def forward(self, be, a):
        return a.copy()

    def backward(self, be, grad):
        return (grad,)


class ConcatOp(Op):
    __slots__ = ("axis", "offsets")
    name = "concat"

    def __init__(self, axis: int):
        self.axis = axis

    def forward(self, be, *arrays):
        if self.needs is not None:
            sizes = [a.shape[self.axis] for a in arrays]
            self.offsets = np.cumsum([0] + sizes)
        return np.concatenate(arrays, axis=self.axis)

    def backward(self, be, grad):
        grads = []
        for i, (start, end) in enumerate(zip(self.offsets[:-1], self.offsets[1:])):
            if not self.needs[i]:
                grads.append(None)
                continue
            index = [slice(None)] * grad.ndim
            index[self.axis] = slice(start, end)
            grads.append(grad[tuple(index)])
        return grads


# --------------------------------------------------------------------------- #
# Linear algebra
# --------------------------------------------------------------------------- #
class MatMulOp(Op):
    __slots__ = ("a", "b")
    name = "matmul"

    def forward(self, be, a, b):
        if self.needs is not None:
            self.a, self.b = a, b
        out = a @ b
        if out.ndim >= 1 and a.ndim >= 1:
            be.add_flops(self.name, 2.0 * out.size * a.shape[-1])
        return out

    def backward(self, be, grad):
        a, b = self.a, self.b
        need_a, need_b = self.needs
        if a.ndim == 1 and b.ndim == 1:
            return (grad * b if need_a else None, grad * a if need_b else None)
        a2 = a if a.ndim > 1 else a.reshape(1, -1)
        b2 = b if b.ndim > 1 else b.reshape(-1, 1)
        g2 = grad
        if a.ndim == 1:
            g2 = np.expand_dims(grad, -2)
        if b.ndim == 1:
            g2 = np.expand_dims(g2, -1)
        grad_for_a = grad_for_b = None
        if need_a:
            grad_a = g2 @ np.swapaxes(b2, -1, -2)
            if a.ndim == 1:
                grad_a = grad_a.reshape(a.shape) if grad_a.size == a.size \
                    else _unbroadcast(grad_a, (1,) + a.shape).reshape(a.shape)
            grad_for_a = _unbroadcast(grad_a, a.shape)
        if need_b:
            grad_b = np.swapaxes(a2, -1, -2) @ g2
            if b.ndim == 1:
                grad_b = grad_b.reshape(b.shape) if grad_b.size == b.size \
                    else _unbroadcast(grad_b, b.shape + (1,)).reshape(b.shape)
            grad_for_b = _unbroadcast(grad_b, b.shape)
        return (grad_for_a, grad_for_b)


CORE_OPS = (
    AddOp, MulOp, NegOp, DivOp, PowOp,
    ExpOp, LogOp, TanhOp, SigmoidOp, ReluOp, GeluOp, AbsOp, ClipOp,
    SumOp, MaxOp,
    ReshapeOp, TransposeOp, GetItemOp, PadOp, CloneOp, ConcatOp,
    MatMulOp,
)

__all__ = ["Op", "_unbroadcast"] + [cls.__name__ for cls in CORE_OPS] + ["CORE_OPS"]
