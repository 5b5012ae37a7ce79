"""Stateless neural-network operations built on :class:`repro.tensor.Tensor`.

These are the building blocks used by :mod:`repro.nn` layers: im2col-based
2-D convolution, pooling, softmax/cross-entropy losses, dropout and a handful
of helpers.  Each operation is a first-class :class:`~repro.tensor.ops.Op`
dispatched through the active execution backend.

Hot-path fusion
---------------
These kernels exist in both an unfused (seed-faithful op chain) and a fused
(single graph node) form:

* :func:`linear` / :func:`linear_act` — matmul + bias as one node;
* :func:`softmax_cross_entropy` — the softmax → log → nll chain as one node;
* :func:`attention_weights` — ``softmax(q @ kᵀ · scale + bias)`` as one node;
* :func:`batch_norm2d_train` — training-mode batch norm as one node, and
  :func:`batch_norm2d_eval` — eval-mode batch norm as one op under ``no_grad``;
* :func:`layer_norm` — layer norm over the last axis as one node.

The fused forms replicate the exact float-op sequence of the unfused chains,
so both produce bit-identical values; which form runs is decided by the
active backend's ``fuse_kernels`` flag (the default ``numpy`` backend keeps
the historical chains, ``numpy-fast`` fuses).

Convolution and pooling lower to im2col + GEMM.  On backends with
``fast_gather`` the columns are gathered from, and gradients scattered back
into, a zero-bordered channels-last image — the layout the activations
already have — and every column, padded-image and scratch buffer comes from
the backend arena, on the training and the ``no_grad`` path alike.  Each
buffer goes back as soon as nothing reads it; ``take`` hands a buffer to one
caller only, so concurrent forwards never share memory.  The ``numpy``
backend keeps the seed's loop gathers, which the tests use as the reference.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.tensor.backend import DEFAULT_DTYPE, get_backend
from repro.tensor.ops import Op, _unbroadcast
from repro.tensor.tensor import Tensor, apply_op
from repro.tensor import tensor as _tensor_core


def _active_capture():
    """The installed ``repro.compile`` capture context, or ``None``.

    Kernels with per-batch state (cross-entropy weights, dropout masks,
    batch-norm statistics) report it here so a captured plan can refresh
    that state on every replay instead of baking the capture step's values.
    """
    return _tensor_core._capture

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


# --------------------------------------------------------------------------- #
# im2col / col2im
# --------------------------------------------------------------------------- #
def _conv_geometry(shape, kh, kw, stride, pad):
    n, c, h, w = shape
    sh, sw = stride
    ph, pw = pad
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    return n, c, h, w, out_h, out_w


def padded_image_shape(x_shape, pad) -> Tuple[int, int, int, int]:
    """Shape of the zero-bordered channels-last image the fast gathers use."""
    n, c, h, w = x_shape
    return (n, h + 2 * pad[0], w + 2 * pad[1], c)


def _channels_last_image(x: np.ndarray, pad, scratch: Optional[np.ndarray]) -> np.ndarray:
    """``x`` (NCHW-shaped, any layout) as a channels-last image with a zero border.

    Without padding this is a transposed view of ``x``, which is already
    C-contiguous for the NHWC-memory activations conv, BatchNorm and ReLU
    produce.  With padding, ``x`` is copied into the interior of ``scratch``.
    """
    xs = x.transpose(0, 2, 3, 1)
    ph, pw = pad
    if not (ph or pw):
        return xs
    n, h, w, _ = xs.shape
    img = scratch if scratch is not None else np.empty(padded_image_shape(x.shape, pad), x.dtype)
    img[:, :ph] = 0
    img[:, h + ph:] = 0
    img[:, :, :pw] = 0
    img[:, :, w + pw:] = 0
    img[:, ph:h + ph, pw:w + pw] = xs
    return img


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: Tuple[int, int],
    pad: Tuple[int, int],
    out: Optional[np.ndarray] = None,
    fast: bool = False,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unroll image patches into rows.

    ``x`` has shape ``(N, C, H, W)``; the result has shape
    ``(N * out_h * out_w, C * kh * kw)`` so a convolution becomes one matmul.
    ``out``, when given, must be a C-contiguous array of exactly that shape
    and receives the columns in place.

    ``fast`` gathers from a channels-last image: kh·kw strided slice copies
    whose inner loop runs over channels, instead of the seed's per-row loops
    over an NCHW padded copy.  ``scratch`` optionally supplies the fast
    path's zero-bordered image (shape :func:`padded_image_shape`); the
    caller may recycle it as soon as this returns.  Both paths write the
    same values into the same layout.
    """
    n, c, h, w, out_h, out_w = _conv_geometry(x.shape, kh, kw, stride, pad)
    sh, sw = stride
    ph, pw = pad
    rows, cols = n * out_h * out_w, c * kh * kw

    if fast:
        img = _channels_last_image(x, pad, scratch)
        if out is None:
            out = np.empty((rows, cols), dtype=x.dtype)
        col = out.reshape(n, out_h, out_w, c, kh, kw)
        for y in range(kh):
            for xx in range(kw):
                col[..., y, xx] = img[:, y:y + sh * out_h:sh, xx:xx + sw * out_w:sw]
        return out

    img = np.pad(x, [(0, 0), (0, 0), (ph, ph), (pw, pw)]) if (ph or pw) else x
    col = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for y in range(kh):
        y_max = y + sh * out_h
        for xx in range(kw):
            x_max = xx + sw * out_w
            col[:, :, y, xx, :, :] = img[:, :, y:y_max:sh, xx:x_max:sw]
    src = col.transpose(0, 4, 5, 1, 2, 3)
    if out is None:
        return src.reshape(rows, cols)
    np.copyto(out.reshape(n, out_h, out_w, c, kh, kw), src)
    return out


def col2im(
    col: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: Tuple[int, int],
    pad: Tuple[int, int],
    fast: bool = False,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add patch rows back into an image.

    Returns an ``x_shape`` view into a padded image.  ``fast`` scatters
    straight from ``col``'s row layout into a channels-last image (no
    transposed copy of ``col``), which ``scratch`` optionally supplies
    (shape :func:`padded_image_shape`; the result is a view of it).  Each
    pixel receives its contributions in the same (ky, kx) order starting
    from zero on both paths, so the sums are bit-identical.
    """
    n, c, h, w = x_shape
    sh, sw = stride
    ph, pw = pad
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1

    if fast:
        grad = col.reshape(n, out_h, out_w, c, kh, kw)
        img = scratch if scratch is not None else np.empty(padded_image_shape(x_shape, pad), col.dtype)
        img.fill(0)
        for y in range(kh):
            for xx in range(kw):
                img[:, y:y + sh * out_h:sh, xx:xx + sw * out_w:sw] += grad[..., y, xx]
        return img[:, ph:h + ph, pw:w + pw].transpose(0, 3, 1, 2)

    col = col.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    img = np.zeros((n, c, h + 2 * ph + sh - 1, w + 2 * pw + sw - 1), dtype=col.dtype)
    for y in range(kh):
        y_max = y + sh * out_h
        for xx in range(kw):
            x_max = xx + sw * out_w
            img[:, :, y:y_max:sh, xx:x_max:sw] += col[:, :, y, xx, :, :]
    return img[:, :, ph:h + ph, pw:w + pw]


def _gather(be, x: np.ndarray, kh: int, kw: int, stride, pad) -> np.ndarray:
    """im2col of ``x`` into a column buffer taken from ``be``.

    The fast path's padded image is taken from ``be`` too and goes back as
    soon as the columns are gathered.  The caller gives the column buffer
    back once nothing reads it.
    """
    n, c, _, _, out_h, out_w = _conv_geometry(x.shape, kh, kw, stride, pad)
    col = be.take((n * out_h * out_w, c * kh * kw), x.dtype)
    scratch = None
    if be.fast_gather and (pad[0] or pad[1]):
        scratch = be.take(padded_image_shape(x.shape, pad), x.dtype)
    im2col(x, kh, kw, stride, pad, out=col, fast=be.fast_gather, scratch=scratch)
    be.give(scratch)
    return col


def _scatter(be, grad_col: np.ndarray, x_shape, kh: int, kw: int, stride, pad):
    """col2im of ``grad_col`` with ``be``'s strategy: ``(grad_x, image)``.

    ``grad_x`` is a view into ``image``, which comes from ``be`` on the fast
    path; the op gives it back in :meth:`~repro.tensor.ops.Op.release`, once
    the engine has accumulated ``grad_x``.
    """
    scratch = None
    if be.fast_gather:
        scratch = be.take(padded_image_shape(x_shape, pad), grad_col.dtype)
    grad_x = col2im(grad_col, x_shape, kh, kw, stride, pad, fast=be.fast_gather, scratch=scratch)
    return grad_x, scratch


# --------------------------------------------------------------------------- #
# Convolution and pooling
# --------------------------------------------------------------------------- #
class Conv2dOp(Op):
    """im2col convolution over NCHW inputs as a single graph node."""

    __slots__ = ("stride", "padding", "col", "w2d", "x_shape", "w_shape",
                 "b_shape", "out_c", "image")
    name = "conv2d"

    def __init__(self, stride: Tuple[int, int], padding: Tuple[int, int]):
        self.stride = stride
        self.padding = padding
        self.col = None
        self.image = None

    def forward(self, be, x, weight, bias=None):
        out_c, in_c, kh, kw = weight.shape
        n, c, h, w, out_h, out_w = _conv_geometry(x.shape, kh, kw, self.stride, self.padding)
        col = _gather(be, x, kh, kw, self.stride, self.padding)
        w2d = weight.reshape(out_c, -1)
        out2d = col @ w2d.T
        be.add_flops(self.name, 2.0 * col.shape[0] * col.shape[1] * out_c)
        if bias is not None:
            out2d = out2d + bias.reshape(1, -1)
        out = out2d.reshape(n, out_h, out_w, out_c).transpose(0, 3, 1, 2)

        if self.needs is not None and self.needs[1]:
            self.col = col  # the weight-gradient GEMM reads it
        else:
            be.give(col)
        if self.needs is not None:
            self.w2d = w2d
            self.x_shape = x.shape
            self.w_shape = weight.shape
            self.b_shape = bias.shape if bias is not None else None
            self.out_c = out_c
        return out

    def backward(self, be, grad):
        out_c = self.out_c
        grad2d = grad.transpose(0, 2, 3, 1).reshape(-1, out_c)
        grad_b = grad_w = grad_x = None
        if self.b_shape is not None and self.needs[2]:
            grad_b = grad2d.sum(axis=0).reshape(self.b_shape)
        if self.needs[1]:
            grad_w = (grad2d.T @ self.col).reshape(self.w_shape)
        if self.needs[0]:
            _, _, kh, kw = self.w_shape
            grad_col = be.take((grad2d.shape[0], self.w2d.shape[1]), grad2d.dtype)
            np.matmul(grad2d, self.w2d, out=grad_col)
            grad_x, self.image = _scatter(be, grad_col, self.x_shape, kh, kw,
                                          self.stride, self.padding)
            be.give(grad_col)
        if self.b_shape is not None:
            return (grad_x, grad_w, grad_b)
        return (grad_x, grad_w)

    def release(self, be):
        be.give(self.col)
        be.give(self.image)
        self.col = self.image = None


def conv2d_output_shape(x_shape, weight_shape, stride: IntPair = 1,
                        padding: IntPair = 0) -> Tuple[int, int, int, int]:
    """Shape of :func:`conv2d`'s output, raising its ``ValueError`` on input
    whose channel count ``weight_shape`` does not expect."""
    out_c, in_c, kh, kw = weight_shape
    n, c, _, _, out_h, out_w = _conv_geometry(x_shape, kh, kw, _pair(stride), _pair(padding))
    if in_c != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {in_c}")
    return n, out_c, out_h, out_w


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D convolution (cross-correlation) over NCHW inputs.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)``.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    stride = _pair(stride)
    padding = _pair(padding)
    conv2d_output_shape(x.shape, weight.shape, stride, padding)
    op = Conv2dOp(stride, padding)
    if bias is not None:
        return apply_op(op, x, weight, bias)
    return apply_op(op, x, weight)


class MaxPool2dOp(Op):
    __slots__ = ("kernel", "stride", "padding", "argmax", "x_shape", "channels", "image")
    name = "max_pool2d"

    def __init__(self, kernel, stride, padding):
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.image = None

    def forward(self, be, x):
        kh, kw = self.kernel
        n, c, h, w, out_h, out_w = _conv_geometry(x.shape, kh, kw, self.stride, self.padding)
        col = _gather(be, x, kh, kw, self.stride, self.padding)
        windows = col.reshape(-1, c, kh * kw)
        argmax = windows.argmax(axis=2)
        out = np.take_along_axis(windows, argmax[..., None], axis=2)[..., 0]
        be.give(col)
        out = out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        if self.needs is not None:
            self.argmax = argmax
            self.x_shape = x.shape
            self.channels = c
        return out

    def backward(self, be, grad):
        kh, kw = self.kernel
        c = self.channels
        g = grad.transpose(0, 2, 3, 1).reshape(-1, c)
        grad_col = be.take_zeros((g.shape[0], c * kh * kw), DEFAULT_DTYPE)
        np.put_along_axis(grad_col.reshape(-1, c, kh * kw), self.argmax[..., None],
                          g[..., None], axis=2)
        grad_x, self.image = _scatter(be, grad_col, self.x_shape, kh, kw,
                                      self.stride, self.padding)
        be.give(grad_col)
        return (grad_x,)

    def release(self, be):
        be.give(self.image)
        self.image = None


def max_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0) -> Tensor:
    """Max pooling over NCHW inputs."""
    kh, kw = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else (kh, kw)
    return apply_op(MaxPool2dOp((kh, kw), stride, _pair(padding)), x)


class AvgPool2dOp(Op):
    __slots__ = ("kernel", "stride", "padding", "x_shape", "channels", "image")
    name = "avg_pool2d"

    def __init__(self, kernel, stride, padding):
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.image = None

    def forward(self, be, x):
        kh, kw = self.kernel
        n, c, h, w, out_h, out_w = _conv_geometry(x.shape, kh, kw, self.stride, self.padding)
        col = _gather(be, x, kh, kw, self.stride, self.padding)
        out = col.reshape(-1, c, kh * kw).mean(axis=2)
        be.give(col)
        out = out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        if self.needs is not None:
            self.x_shape = x.shape
            self.channels = c
        return out

    def backward(self, be, grad):
        kh, kw = self.kernel
        c = self.channels
        share = grad.transpose(0, 2, 3, 1).reshape(-1, c, 1) / (kh * kw)
        grad_col = be.take((share.shape[0], c * kh * kw), share.dtype)
        np.copyto(grad_col.reshape(-1, c, kh * kw), share)
        grad_x, self.image = _scatter(be, grad_col, self.x_shape, kh, kw,
                                      self.stride, self.padding)
        be.give(grad_col)
        return (grad_x,)

    def release(self, be):
        be.give(self.image)
        self.image = None


def avg_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0) -> Tensor:
    """Average pooling over NCHW inputs."""
    kh, kw = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else (kh, kw)
    return apply_op(AvgPool2dOp((kh, kw), stride, _pair(padding)), x)


def adaptive_avg_pool2d(x: Tensor, output_size: IntPair = 1) -> Tensor:
    """Adaptive average pooling; only integer-divisible output sizes are supported."""
    oh, ow = _pair(output_size)
    n, c, h, w = x.shape
    if h % oh or w % ow:
        raise ValueError(f"input ({h},{w}) not divisible by output size ({oh},{ow})")
    return avg_pool2d(x, kernel_size=(h // oh, w // ow))


# --------------------------------------------------------------------------- #
# Softmax family and losses
# --------------------------------------------------------------------------- #
class SoftmaxOp(Op):
    __slots__ = ("axis", "out")
    name = "softmax"

    def __init__(self, axis: int):
        self.axis = axis

    def forward(self, be, x):
        shifted = x - x.max(axis=self.axis, keepdims=True)
        exp = np.exp(shifted)
        out = exp / exp.sum(axis=self.axis, keepdims=True)
        if self.needs is not None:
            self.out = out
        return out

    def backward(self, be, grad):
        dot = (grad * self.out).sum(axis=self.axis, keepdims=True)
        return (self.out * (grad - dot),)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return apply_op(SoftmaxOp(axis), x)


class LogSoftmaxOp(Op):
    __slots__ = ("axis", "softmax")
    name = "log_softmax"

    def __init__(self, axis: int):
        self.axis = axis

    def forward(self, be, x):
        shifted = x - x.max(axis=self.axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=self.axis, keepdims=True))
        out = shifted - log_sum
        if self.needs is not None:
            self.softmax = np.exp(out)
        return out

    def backward(self, be, grad):
        return (grad - self.softmax * grad.sum(axis=self.axis, keepdims=True),)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return apply_op(LogSoftmaxOp(axis), x)


class SoftmaxCrossEntropyOp(Op):
    """Fused softmax → log → negative-log-likelihood over (N, C) logits.

    Replicates the exact float-op sequence of the unfused
    ``-(log_softmax(x) * weights).sum() * (1/count)`` chain, so losses and
    logit gradients are bit-identical to the composed form.
    """

    __slots__ = ("weights", "scale", "softmax")
    name = "softmax_cross_entropy"

    def __init__(self, weights: np.ndarray, scale: np.ndarray):
        self.weights = weights
        self.scale = scale

    def forward(self, be, logits):
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        log_probs = shifted - log_sum
        loss = (-(log_probs * self.weights).sum()) * self.scale
        if self.needs is not None:
            self.softmax = np.exp(log_probs)
        return loss

    def backward(self, be, grad):
        g = (-(grad * self.scale)) * self.weights
        return (g - self.softmax * g.sum(axis=-1, keepdims=True),)


def softmax_cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    label_smoothing: float = 0.0,
    ignore_index: Optional[int] = None,
) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,).

    Supports label smoothing (as used for the paper's ImageNet runs) and an
    ``ignore_index`` for masked-language-model style objectives.  Runs as a
    single fused node on backends with ``fuse_kernels`` and as the historical
    softmax → log → nll op chain otherwise; both produce identical values.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects logits of shape (N, C)")
    n, num_classes = logits.shape

    one_hot_w, count = _ce_weights(targets, n, num_classes, label_smoothing, ignore_index)

    if get_backend().fuse_kernels:
        scale = np.asarray(1.0 / count, dtype=DEFAULT_DTYPE)
        op = SoftmaxCrossEntropyOp(one_hot_w, scale)
        out = apply_op(op, logits)
        cap = _active_capture()
        if cap is not None:
            # The one-hot weight matrix and 1/count scale depend on the batch
            # targets; a replayed plan must recompute them from the incoming
            # labels, so register a patch keyed on the targets array.
            def _patch(op_, targets_, _n=n, _c=num_classes,
                       _ls=label_smoothing, _ii=ignore_index):
                w, cnt = _ce_weights(np.asarray(targets_), _n, _c, _ls, _ii)
                op_.weights = w
                op_.scale = np.asarray(1.0 / cnt, dtype=DEFAULT_DTYPE)
            cap.register_attr_patch(op, targets, _patch)
        return out

    log_probs = log_softmax(logits, axis=-1)
    return -(log_probs * Tensor(one_hot_w)).sum() * (1.0 / count)


def _ce_weights(targets: np.ndarray, n: int, num_classes: int,
                label_smoothing: float, ignore_index: Optional[int]):
    """Per-sample one-hot weight matrix and valid count for cross-entropy."""
    if ignore_index is not None:
        valid = targets != ignore_index
        safe_targets = np.where(valid, targets, 0)
    else:
        valid = np.ones(n, dtype=bool)
        safe_targets = targets
    count = max(int(valid.sum()), 1)

    one_hot_w = np.zeros((n, num_classes), dtype=DEFAULT_DTYPE)
    one_hot_w[np.arange(n), safe_targets] = 1.0
    if label_smoothing > 0.0:
        one_hot_w = one_hot_w * (1.0 - label_smoothing) + label_smoothing / num_classes
    one_hot_w *= valid[:, None]
    return one_hot_w, count


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    label_smoothing: float = 0.0,
    ignore_index: Optional[int] = None,
) -> Tensor:
    """Alias for :func:`softmax_cross_entropy` (the fused hot-path kernel)."""
    return softmax_cross_entropy(logits, targets, label_smoothing=label_smoothing,
                                 ignore_index=ignore_index)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log likelihood given log-probabilities."""
    targets = np.asarray(targets)
    n, num_classes = log_probs.shape
    one_hot_w = np.zeros((n, num_classes), dtype=DEFAULT_DTYPE)
    one_hot_w[np.arange(n), targets] = 1.0
    return -(log_probs * Tensor(one_hot_w)).sum() * (1.0 / n)


def mse_loss(pred: Tensor, target: Union[Tensor, np.ndarray]) -> Tensor:
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target
    return (diff * diff).mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: Union[Tensor, np.ndarray]) -> Tensor:
    """Numerically stable BCE on logits."""
    targets = targets if isinstance(targets, Tensor) else Tensor(targets)
    # log(1 + exp(-|x|)) + max(x, 0) - x*t
    x = logits
    max_part = x.relu()
    stable = (1.0 + (-x.abs()).exp()).log()
    return (max_part - x * targets + stable).mean()


# --------------------------------------------------------------------------- #
# Fused linear kernel
# --------------------------------------------------------------------------- #
class LinearActOp(Op):
    """``x @ W.T + b`` as a single graph node (``linear_act`` in op counters).

    The float-op sequence mirrors the unfused ``matmul → add`` chain exactly.
    """

    __slots__ = ("x", "w", "b_shape")
    name = "linear_act"

    def forward(self, be, x, w, b=None):
        y = x @ w.transpose()
        be.add_flops(self.name, 2.0 * y.size * x.shape[-1])
        if b is not None:
            y = y + b
        if self.needs is not None:
            self.x = x
            self.w = w
            self.b_shape = b.shape if b is not None else None
        return y

    def backward(self, be, grad):
        x, w = self.x, self.w
        grad_x = grad_w = grad_b = None
        if self.b_shape is not None and self.needs[2]:
            grad_b = _unbroadcast(grad, self.b_shape)
        if self.needs[0]:
            grad_x = _unbroadcast(grad @ w, x.shape)
        if self.needs[1]:
            x2 = x if x.ndim > 1 else x.reshape(1, -1)
            grad_wt = _unbroadcast(np.swapaxes(x2, -1, -2) @ grad, (w.shape[1], w.shape[0]))
            grad_w = grad_wt.transpose((1, 0))
        if self.b_shape is not None:
            return (grad_x, grad_w, grad_b)
        return (grad_x, grad_w)


def linear_act(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Fused affine map, always as one graph node; ``weight`` is ``(out, in)``."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    op = LinearActOp()
    if bias is not None:
        return apply_op(op, x, weight, bias)
    return apply_op(op, x, weight)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` of shape (out, in).

    Dispatches to the fused single-node kernel on fusing backends and to the
    historical matmul → add chain otherwise (identical values either way).
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if get_backend().fuse_kernels and x.ndim >= 2:
        return linear_act(x, weight, bias)
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


# --------------------------------------------------------------------------- #
# Fused batch norm (NCHW-shaped, channels-last in memory)
# --------------------------------------------------------------------------- #
def _channel_rows(a: np.ndarray) -> Optional[np.ndarray]:
    """``a`` as a (N, H·W·C) rows view if its memory is compact channels-last.

    Conv outputs are stored this way (NCHW-shaped, NHWC in memory), and so is
    every elementwise result over them.  Any other layout gives ``None``.
    """
    n, c, h, w = a.shape
    nhwc = a.transpose(0, 2, 3, 1)
    if not nhwc.flags.c_contiguous:
        return None
    return nhwc.reshape(n, h * w * c)


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=(0, 2, 3), keepdims=True)``, bit for bit.

    On compact channels-last memory with C > 1, numpy's reduce and
    ``einsum("mc->c")`` over the (N·H·W, C) rows both add the pixel rows in
    order, channel by channel, and einsum's loop costs several times less
    per row.  With C == 1 the reduced axis is contiguous: the reduce sums it
    pairwise and einsum with its own unrolled loop, so that case, like every
    other layout, keeps the reduce.
    """
    n, c, h, w = a.shape
    rows = _channel_rows(a)
    if c == 1 or rows is None:
        return a.sum(axis=(0, 2, 3), keepdims=True)
    return np.einsum("mc->c", rows.reshape(n * h * w, c)).reshape(1, c, 1, 1)


def _per_channel(ufunc, a: np.ndarray, vec: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """``ufunc(a, vec)`` for a (1, C, 1, 1) ``vec``, into ``out``.

    ``out`` defaults to a new array in ``a``'s layout.  When ``a`` and
    ``out`` are compact channels-last the broadcast runs on (N, H·W·C) rows
    against ``vec`` tiled H·W times: N inner loops of H·W·C elements instead
    of N·H·W loops of C.  Each element meets the same operands either way.
    """
    if out is None:
        out = np.empty_like(a)
    rows = _channel_rows(a)
    out_rows = rows if out is a else _channel_rows(out)
    if rows is None or out_rows is None:
        return ufunc(a, vec, out=out)
    _, c, h, w = a.shape
    ufunc(rows, vec.reshape(1, c).repeat(h * w, 0).ravel(), out=out_rows)
    return out


class BatchNorm2dOp(Op):
    """Training-mode batch normalisation over NCHW as one graph node.

    Replicates the ~18-node op chain the layer otherwise records (two mean
    passes, centering, variance, normalisation, affine) with the exact same
    float-op sequence *and* the same gradient-accumulation order into ``x``,
    so results are bit-identical to the unfused chain.  Channel sums and
    per-channel broadcasts go through :func:`_channel_sum` and
    :func:`_per_channel`; scratch comes from the backend and goes back in
    :meth:`release` (at the end of the forward on the graph-free path).
    """

    __slots__ = ("eps", "mu", "var", "cnt", "centered", "root", "veps",
                 "x_hat", "gamma_r", "w_shape", "b_shape", "_scratch")
    name = "batch_norm2d"

    def __init__(self, eps: float):
        self.eps = eps
        self._scratch = ()

    def forward(self, be, x, weight, bias):
        n, _, h, w = x.shape
        cnt = np.asarray(1.0 / (n * h * w), dtype=DEFAULT_DTYPE)
        mu = _channel_sum(x) * cnt
        centered = _per_channel(np.subtract, x, mu, out=be.take_like(x))
        sq = np.multiply(centered, centered, out=be.take_like(centered))
        var = _channel_sum(sq) * cnt
        be.give(sq)
        veps = var + np.asarray(self.eps, dtype=DEFAULT_DTYPE)
        root = veps ** 0.5
        x_hat = _per_channel(np.divide, centered, root, out=be.take_like(centered))
        gamma_r = weight.reshape(1, -1, 1, 1)
        out = _per_channel(np.multiply, x_hat, gamma_r)
        _per_channel(np.add, out, bias.reshape(1, -1, 1, 1), out=out)
        # Batch statistics are exposed for the layer's running-average update
        # even on the graph-free path.
        self.mu = mu
        self.var = var
        if self.needs is None:
            be.give(centered)
            be.give(x_hat)
            return out
        self._scratch = (centered, x_hat)
        self.cnt = cnt
        self.centered = centered
        self.root = root
        self.veps = veps
        self.x_hat = x_hat
        self.gamma_r = gamma_r
        self.w_shape = weight.shape
        self.b_shape = bias.shape
        return out

    def backward(self, be, grad):
        grad_b = grad_w = grad_x = None
        if self.needs[2]:
            grad_b = _channel_sum(grad).reshape(self.b_shape)
        g_xhat = _per_channel(np.multiply, grad, self.gamma_r, out=be.take_like(grad))
        if self.needs[1]:
            tmp = np.multiply(grad, self.x_hat, out=be.take_like(grad))
            grad_w = _channel_sum(tmp).reshape(self.w_shape)
            be.give(tmp)
        if not self.needs[0]:
            be.give(g_xhat)
            return (grad_x, grad_w, grad_b)
        centered, root, veps, cnt = self.centered, self.root, self.veps, self.cnt
        # Contributions into x in the chain's reverse-topological order:
        # normalisation numerator, its mean path, the variance centering, and
        # the variance's mean path.  In-place adds below mirror the chain's
        # sequential accumulation exactly.
        g_d = _per_channel(np.divide, g_xhat, root, out=be.take_like(g_xhat))
        t = np.multiply(np.negative(g_xhat, out=g_xhat), centered, out=g_xhat)
        g_root = _channel_sum(_per_channel(np.divide, t, root ** 2, out=t))
        g_sm = (-_channel_sum(g_d)) * cnt
        grad_x = _per_channel(np.add, g_d, g_sm, out=g_d)
        g_veps = g_root * 0.5 * veps ** (0.5 - 1)
        gc = _per_channel(np.multiply, centered, g_veps * cnt, out=be.take_like(centered))
        c_grad = np.add(gc, gc, out=gc)
        grad_x += c_grad
        g_sv = (-_channel_sum(c_grad)) * cnt
        _per_channel(np.add, grad_x, g_sv, out=grad_x)
        self._scratch = self._scratch + (g_xhat, g_d, gc)
        return (grad_x, grad_w, grad_b)

    def release(self, be):
        for buf in self._scratch:
            be.give(buf)
        self._scratch = ()


class BatchNorm2dEvalOp(Op):
    """Eval-mode batch norm over running statistics as one graph-free op.

    Runs the layer's chain ``(x − mean) / (var + eps) ** 0.5 · γ + β`` with
    the same four elementwise steps in the same order, on (N, H·W·C) rows
    into one output buffer (:func:`_per_channel`).  Inference only: it is
    dispatched under ``no_grad`` and saves no backward context.
    """

    __slots__ = ("eps",)
    name = "batch_norm2d_eval"

    def __init__(self, eps: float):
        self.eps = eps

    def forward(self, be, x, mean, var, weight, bias):
        root = (var + np.asarray(self.eps, dtype=DEFAULT_DTYPE)) ** 0.5
        out = _per_channel(np.subtract, x, mean)
        _per_channel(np.divide, out, root, out=out)
        _per_channel(np.multiply, out, weight.reshape(1, -1, 1, 1), out=out)
        return _per_channel(np.add, out, bias.reshape(1, -1, 1, 1), out=out)


def _normalize_chain(x: Tensor, mean: Tensor, var: Tensor, gamma: Tensor,
                     beta: Tensor, eps: float) -> Tensor:
    """The unfused op chain ``(x − mean) / (var + eps) ** 0.5 · γ + β``.

    ``gamma`` and ``beta`` come shaped to broadcast against ``x``.
    """
    x_hat = (x - mean) / ((var + eps) ** 0.5)
    return x_hat * gamma + beta


def batch_norm2d_train(x: Tensor, weight: Tensor, bias: Tensor, eps: float):
    """Training-mode batch norm over NCHW inputs.

    Returns ``(out, batch_mean, batch_var)`` where the statistics are numpy
    arrays of shape (1, C, 1, 1) for the caller's running-average update.
    Fused into one node on fusing backends; identical values either way.
    """
    if get_backend().fuse_kernels:
        op = BatchNorm2dOp(eps)
        out = apply_op(op, x, weight, bias)
        cap = _active_capture()
        if cap is not None:
            # The batch statistics live as op attributes (refreshed by every
            # forward), not as graph values; let the capture resolve the
            # arrays we hand back so running-average hooks can re-read them
            # on each replay.
            cap.register_attr_source(op.mu, op, "mu")
            cap.register_attr_source(op.var, op, "var")
        return out, op.mu, op.var
    axes = (0, 2, 3)
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    gamma, beta = weight.reshape((1, -1, 1, 1)), bias.reshape((1, -1, 1, 1))
    return _normalize_chain(x, mean, var, gamma, beta, eps), mean.data, var.data


def batch_norm2d_eval(x: Tensor, running_mean: np.ndarray, running_var: np.ndarray,
                      weight: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Eval-mode batch norm of NCHW ``x`` over per-channel running statistics.

    Under ``no_grad`` on fusing backends this is one graph-free
    :class:`BatchNorm2dEvalOp`; otherwise the op chain, which records a
    graph when gradients are enabled.  Identical values either way.
    """
    mean = Tensor(running_mean.reshape(1, -1, 1, 1))
    var = Tensor(running_var.reshape(1, -1, 1, 1))
    if get_backend().fuse_kernels and not _tensor_core.is_grad_enabled():
        return apply_op(BatchNorm2dEvalOp(eps), x, mean, var, weight, bias)
    gamma, beta = weight.reshape((1, -1, 1, 1)), bias.reshape((1, -1, 1, 1))
    return _normalize_chain(x, mean, var, gamma, beta, eps)


# --------------------------------------------------------------------------- #
# Fused layer norm (last axis)
# --------------------------------------------------------------------------- #
class LayerNormOp(Op):
    """Layer normalisation over the last axis as one graph node.

    Replicates the 16-node chain ``nn.LayerNorm`` otherwise records (two
    mean passes, centering, variance, normalisation, affine) with the same
    float-op sequence; the chain centres ``x`` twice with the same bits, the
    op once.  ``x`` is a transformer's residual stream: when this backward
    runs, ``x``'s gradient already holds the residual add's contribution, so
    summing the four contributions into one array would reorder the adds
    and change bits.  The input gradient is returned as the chain's ordered
    parts instead, which the engine adds one by one (:meth:`Op.backward`).
    """

    __slots__ = ("eps", "cnt", "centered", "root", "veps", "x_hat", "weight", "b_shape")
    name = "layer_norm"

    def __init__(self, eps: float):
        self.eps = eps

    def forward(self, be, x, weight, bias):
        cnt = np.asarray(1.0 / x.shape[-1], dtype=DEFAULT_DTYPE)
        mean = x.sum(axis=-1, keepdims=True) * cnt
        centered = x + (-mean)
        sq = np.multiply(centered, centered)
        var = sq.sum(axis=-1, keepdims=True) * cnt
        veps = var + np.asarray(self.eps, dtype=DEFAULT_DTYPE)
        root = veps ** 0.5
        x_hat = np.divide(centered, root, out=sq)
        out = x_hat * weight
        np.add(out, bias, out=out)
        if self.needs is not None:
            self.cnt = cnt
            self.centered = centered
            self.root = root
            self.veps = veps
            self.x_hat = x_hat
            self.weight = weight
            self.b_shape = bias.shape
        return out

    def backward(self, be, grad):
        grad_x = grad_w = grad_b = None
        if self.needs[2]:
            grad_b = _unbroadcast(grad, self.b_shape)
        scratch = None
        if self.needs[1]:
            scratch = grad * self.x_hat
            grad_w = _unbroadcast(scratch, self.weight.shape)
            if grad_w is scratch:   # 1-D input: the product is γ's gradient
                scratch = None
        if not self.needs[0]:
            return (grad_x, grad_w, grad_b)
        centered, root, cnt = self.centered, self.root, self.cnt
        g_xhat = grad * self.weight
        # The chain's contributions into x, in its accumulation order:
        # normalisation numerator, its mean path, the variance's centering
        # (t + t: both operands of centered · centered), the variance's mean
        # path.
        g_d = np.divide(g_xhat, root, out=scratch)
        t = np.multiply(np.negative(g_xhat, out=g_xhat), centered, out=g_xhat)
        g_root = _unbroadcast(np.divide(t, root ** 2, out=t), root.shape)
        g_sm = (-_unbroadcast(g_d, root.shape)) * cnt
        g_veps = g_root * 0.5 * self.veps ** (0.5 - 1)
        c_grad = np.multiply(centered, g_veps * cnt, out=t)
        np.add(c_grad, c_grad, out=c_grad)
        g_sv = (-_unbroadcast(c_grad, root.shape)) * cnt
        shape = centered.shape
        grad_x = (g_d, np.broadcast_to(g_sm, shape), c_grad, np.broadcast_to(g_sv, shape))
        return (grad_x, grad_w, grad_b)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Layer norm of ``x`` over its last axis, ``(x − μ) / (σ² + eps) ** 0.5 · γ + β``.

    One :class:`LayerNormOp` on fusing backends; otherwise the op chain.
    Identical values either way.
    """
    if get_backend().fuse_kernels:
        return apply_op(LayerNormOp(eps), x, weight, bias)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return _normalize_chain(x, mean, var, weight, bias, eps)


# --------------------------------------------------------------------------- #
# Fused attention-weight kernel
# --------------------------------------------------------------------------- #
class AttentionWeightsOp(Op):
    """``softmax(q @ kᵀ · scale + bias)`` over (N, H, L, D) heads as one node."""

    __slots__ = ("scale", "bias", "q", "k", "out")
    name = "attention_weights"

    def __init__(self, scale: float, bias: Optional[np.ndarray]):
        self.scale = np.asarray(scale, dtype=DEFAULT_DTYPE)
        self.bias = bias

    def forward(self, be, q, k):
        scores = q @ k.transpose((0, 1, 3, 2))
        be.add_flops(self.name, 2.0 * scores.size * q.shape[-1])
        scores = scores * self.scale
        if self.bias is not None:
            scores = scores + self.bias
        shifted = scores - scores.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        out = exp / exp.sum(axis=-1, keepdims=True)
        if self.needs is not None:
            self.q = q
            self.k = k
            self.out = out
        return out

    def backward(self, be, grad):
        w = self.out
        dot = (grad * w).sum(axis=-1, keepdims=True)
        ds = w * (grad - dot)
        ds = ds * self.scale
        grad_q = grad_k = None
        if self.needs[0]:
            grad_q = ds @ self.k
        if self.needs[1]:
            grad_k = (np.swapaxes(self.q, -1, -2) @ ds).transpose((0, 1, 3, 2))
        return (grad_q, grad_k)


def attention_weights(
    q: Tensor,
    k: Tensor,
    scale: float,
    bias: Optional[np.ndarray] = None,
) -> Tensor:
    """Softmax attention weights ``softmax(q @ kᵀ · scale + bias)``.

    ``q``/``k`` have shape (N, heads, L, head_dim); ``bias`` is an optional
    additive mask broadcastable to (N, heads, L, L).  Fused into one node on
    fusing backends, identical values on either path.
    """
    if get_backend().fuse_kernels:
        return apply_op(AttentionWeightsOp(scale, bias), q, k)
    scores = q.matmul(k.transpose((0, 1, 3, 2))) * scale
    if bias is not None:
        scores = scores + Tensor(bias)
    return softmax(scores, axis=-1)


# --------------------------------------------------------------------------- #
# Regularisation helpers
# --------------------------------------------------------------------------- #
# Fallback RNG for dropout call sites that do not thread an explicit
# generator: derived once per root seed so that ``utils.seed_everything``
# still pins dropout masks (a fresh ``default_rng()`` per call would not be
# reproducible).
_DROPOUT_RNG_OFFSET = 9_907
_dropout_fallback = {"seed": None, "rng": None}


def _default_dropout_rng() -> np.random.Generator:
    from repro.utils.seed import get_rng, seed_state

    state = seed_state()
    if _dropout_fallback["seed"] != state or _dropout_fallback["rng"] is None:
        _dropout_fallback["seed"] = state
        _dropout_fallback["rng"] = get_rng(offset=_DROPOUT_RNG_OFFSET)
    return _dropout_fallback["rng"]


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    rng = rng or _default_dropout_rng()
    mask = (rng.random(x.shape) >= p).astype(DEFAULT_DTYPE) / (1.0 - p)
    mask_t = Tensor(mask)
    cap = _active_capture()
    if cap is not None:
        # On replay a fresh mask must be drawn from the *same* generator so
        # the mask sequence is bit-identical to an eager run.
        def _fresh_mask(_rng=rng, _shape=x.shape, _p=p):
            return (_rng.random(_shape) >= _p).astype(DEFAULT_DTYPE) / (1.0 - _p)
        cap.register_refresh(mask_t, _fresh_mask)
    return x * mask_t


def one_hot(targets: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels → one-hot float matrix."""
    targets = np.asarray(targets)
    out = np.zeros((targets.size, num_classes), dtype=DEFAULT_DTYPE)
    out[np.arange(targets.size), targets.reshape(-1)] = 1.0
    return out.reshape(targets.shape + (num_classes,))
