"""Standard neural-network layers: Linear, Conv2d, pooling, activations, dropout.

These are the full-rank building blocks of the paper's architectures.  Their
factorized (low-rank) counterparts live in :mod:`repro.core.low_rank_layers`.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.nn import init as init_mod
from repro.nn.module import Buffer, Module, Parameter
from repro.tensor import Tensor, functional as F
from repro.utils import get_rng

IntPair = Union[int, Tuple[int, int]]


class Linear(Module):
    """Affine layer ``y = x @ W.T + b`` with ``W`` of shape ``(out, in)``.

    ``activation`` (``None``, ``"relu"`` or ``"gelu"``) folds the following
    nonlinearity into the same graph node via the fused
    :func:`repro.tensor.functional.linear_act` kernel — used by
    :func:`repro.nn.fuse_linear_activations` to collapse Linear→activation
    pairs on the hot path.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
        activation: Optional[str] = None,
    ):
        super().__init__()
        if activation not in (None, "relu", "gelu"):
            raise ValueError(f"unsupported fused activation {activation!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation
        rng = rng or get_rng()
        self.weight = Parameter(init_mod.kaiming_uniform((out_features, in_features), rng=rng))
        self.bias = Parameter(init_mod.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if self.activation is not None:
            return F.linear_act(x, self.weight, self.bias, activation=self.activation)
        return F.linear(x, self.weight, self.bias)

    def extra_repr(self) -> str:
        extra = f", activation={self.activation!r}" if self.activation else ""
        return f"in_features={self.in_features}, out_features={self.out_features}{extra}"


class Conv2d(Module):
    """2-D convolution over NCHW inputs, weight shape ``(out, in, kh, kw)``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: IntPair = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        rng = rng or get_rng()
        self.weight = Parameter(init_mod.kaiming_normal((out_channels, in_channels, kh, kw), rng=rng))
        self.bias = Parameter(init_mod.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}"
        )


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape((x.shape[0], -1))


class MaxPool2d(Module):
    def __init__(self, kernel_size: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)


class AvgPool2d(Module):
    def __init__(self, kernel_size: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride, self.padding)


class AdaptiveAvgPool2d(Module):
    def __init__(self, output_size: IntPair = 1):
        super().__init__()
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return F.adaptive_avg_pool2d(x, self.output_size)


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self._rng = rng or get_rng(offset=9_001)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)

    def extra_repr(self) -> str:
        return f"p={self.p}"


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        rng = rng or get_rng()
        self.weight = Parameter(init_mod.truncated_normal((num_embeddings, embedding_dim), rng=rng))

    def forward(self, token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids)
        return self.weight[token_ids]

    def extra_repr(self) -> str:
        return f"num_embeddings={self.num_embeddings}, embedding_dim={self.embedding_dim}"


class BatchNorm2d(Module):
    """Batch normalisation over the channel dimension of NCHW tensors."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init_mod.ones((num_features,)))
        self.bias = Parameter(init_mod.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d({self.num_features}) expects (N, {self.num_features}, H, W) "
                f"input, got shape {tuple(x.shape)}")
        if self.training:
            out, batch_mean, batch_var = F.batch_norm2d_train(x, self.weight, self.bias, self.eps)
            cap = F._active_capture()
            if cap is not None:
                cap.register_stat_hook(self._update_running_stats, batch_mean, batch_var)
            self._update_running_stats(batch_mean, batch_var)
            return out
        return F.batch_norm2d_eval(x, self.running_mean.data, self.running_var.data,
                                   self.weight, self.bias, self.eps)

    def _update_running_stats(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        momentum = self.momentum
        self.running_mean.data = (
            (1 - momentum) * self.running_mean.data + momentum * batch_mean.reshape(-1)
        )
        self.running_var.data = (
            (1 - momentum) * self.running_var.data + momentum * batch_var.reshape(-1)
        )

    def extra_repr(self) -> str:
        return f"num_features={self.num_features}"


class BatchNorm1d(Module):
    """Batch normalisation over feature dimension of (N, C) tensors."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init_mod.ones((num_features,)))
        self.bias = Parameter(init_mod.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d({self.num_features}) expects (N, {self.num_features}) "
                f"input, got shape {tuple(x.shape)}")
        if self.training:
            mean = x.mean(axis=0, keepdims=True)
            var = x.var(axis=0, keepdims=True)
            cap = F._active_capture()
            if cap is not None:
                cap.register_stat_hook(self._update_running_stats, mean.data, var.data)
            self._update_running_stats(mean.data, var.data)
        else:
            mean = Tensor(self.running_mean.data.reshape(1, -1))
            var = Tensor(self.running_var.data.reshape(1, -1))
        x_hat = (x - mean) / ((var + self.eps) ** 0.5)
        return x_hat * self.weight + self.bias

    def _update_running_stats(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        momentum = self.momentum
        self.running_mean.data = (
            (1 - momentum) * self.running_mean.data + momentum * batch_mean.reshape(-1)
        )
        self.running_var.data = (
            (1 - momentum) * self.running_var.data + momentum * batch_var.reshape(-1)
        )

    def extra_repr(self) -> str:
        return f"num_features={self.num_features}"


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(init_mod.ones((normalized_shape,)))
        self.bias = Parameter(init_mod.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 0 or x.shape[-1] != self.normalized_shape:
            raise ValueError(
                f"LayerNorm({self.normalized_shape}) expects input whose last dimension "
                f"is {self.normalized_shape}, got shape {tuple(x.shape)}")
        return F.layer_norm(x, self.weight, self.bias, self.eps)

    def extra_repr(self) -> str:
        return f"normalized_shape={self.normalized_shape}"
