"""Factorized (low-rank) replacements for Linear and Conv2d layers.

A full-rank ``Linear(in, out)`` becomes ``LowRankLinear``: two chained linear
maps of shapes (in → r) and (r → out).  A full-rank ``Conv2d`` becomes
``LowRankConv2d``: a "thin" convolution with r filters followed by a 1×1
convolution that projects back to the original output channels, matching the
construction in Section 2.1 of the paper.

Both layers optionally insert an extra BatchNorm between the two factors (the
MobileNet-inspired trick from Section 4.1, ablated in Table 5) and both expose
``composed_weight()`` so stable-rank tracking and Frobenius decay can operate
on the product U·Vᵀ.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import nn
from repro.nn.module import Parameter
from repro.tensor import Tensor, functional as F


class LowRankLinear(nn.Module):
    """Rank-``r`` factorization of a dense layer: ``y = (x U) Vᵀ + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rank: int,
        bias: bool = True,
        extra_bn: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        rank = int(max(1, min(rank, in_features, out_features)))
        u, vt = nn.init.spectral_init((in_features, out_features), rank, rng=rng)
        self._install(u, vt, np.zeros(out_features, dtype=np.float32) if bias else None, extra_bn)

    @classmethod
    def from_factors(cls, u: np.ndarray, vt: np.ndarray, bias: Optional[np.ndarray] = None,
                     extra_bn: bool = False) -> "LowRankLinear":
        """Build a factorized layer from explicit U (in, r) and Vᵀ (r, out) factors.

        The factors are copied in as given; no initialiser runs (so no SVD).
        """
        layer = cls.__new__(cls)
        layer._install(np.asarray(u, dtype=np.float32).copy(),
                       np.asarray(vt, dtype=np.float32).copy(),
                       None if bias is None else np.asarray(bias, dtype=np.float32).copy(),
                       extra_bn)
        return layer

    def _install(self, u: np.ndarray, vt: np.ndarray, bias: Optional[np.ndarray],
                 extra_bn: bool) -> None:
        nn.Module.__init__(self)
        self.in_features, self.rank = u.shape
        self.out_features = vt.shape[1]
        self.extra_bn = extra_bn
        # Stored in "math" orientation: U is (in, r), Vt is (r, out).
        self.u = Parameter(u)
        self.vt = Parameter(vt)
        self.bias = Parameter(bias) if bias is not None else None
        self.bn = nn.BatchNorm1d(self.rank) if extra_bn else None

    def forward(self, x: Tensor) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        hidden = x.matmul(self.u)
        if self.bn is not None:
            if hidden.ndim == 2:
                hidden = self.bn(hidden)
            else:
                flat = hidden.reshape((-1, self.rank))
                hidden = self.bn(flat).reshape(hidden.shape)
        out = hidden.matmul(self.vt)
        if self.bias is not None:
            out = out + self.bias
        return out

    def composed_weight(self) -> np.ndarray:
        """The effective full matrix W = U Vᵀ of shape (in, out)."""
        return self.u.data @ self.vt.data

    def factor_parameters(self) -> Tuple[Parameter, Parameter]:
        return self.u, self.vt

    def export_factors(self) -> "OrderedDict[str, np.ndarray]":
        """The factorized weights in export orientation: U (in, r), Vᵀ (r, out).

        This is the compressed representation written into serving artifacts —
        the factors stay separate so the served model keeps the reduced
        (in·r + r·out) FLOP path instead of the dense in·out one.
        """
        from collections import OrderedDict

        factors = OrderedDict(u=self.u.data.copy(), vt=self.vt.data.copy())
        if self.bias is not None:
            factors["bias"] = self.bias.data.copy()
        return factors

    def to_dense(self) -> "nn.Linear":
        """Merge the factors into an equivalent full-rank ``nn.Linear``.

        The dense layer computes x (U Vᵀ) + b in one matmul — numerically
        close to but not bit-identical with the two-matmul factorized path.
        Refuses to merge the extra-BatchNorm variant: the normalisation
        between the factors is not a linear map of the composed weight.
        """
        if self.bn is not None:
            raise ValueError("cannot merge a LowRankLinear with extra_bn=True into a dense layer")
        dense = nn.Linear(self.in_features, self.out_features, bias=self.bias is not None)
        dense.weight.data = self.composed_weight().T.astype(np.float32).copy()
        if self.bias is not None:
            dense.bias.data = self.bias.data.copy()
        return dense

    def extra_repr(self) -> str:
        return (f"in_features={self.in_features}, out_features={self.out_features}, "
                f"rank={self.rank}, extra_bn={self.extra_bn}")


class LowRankConv2d(nn.Module):
    """Rank-``r`` factorization of a convolution: thin k×k conv then 1×1 conv."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        rank: int,
        stride=1,
        padding=0,
        bias: bool = True,
        extra_bn: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        full_rank = min(in_channels * kh * kw, out_channels)
        rank = int(max(1, min(rank, full_rank)))
        u, vt = nn.init.spectral_init((in_channels * kh * kw, out_channels), rank, rng=rng)
        self._install(in_channels, out_channels, (kh, kw), stride, padding, u, vt,
                      np.zeros(out_channels, dtype=np.float32) if bias else None, extra_bn)

    @classmethod
    def from_factors(cls, reference: nn.Conv2d, u: np.ndarray, vt: np.ndarray,
                     extra_bn: bool = False) -> "LowRankConv2d":
        """Build a factorized conv from U (in·kh·kw, r), Vᵀ (r, out) and a reference layer.

        The factors are copied in as given; no initialiser runs (so no SVD).
        """
        out_c, in_c, kh, kw = reference.weight.shape
        layer = cls.__new__(cls)
        layer._install(in_c, out_c, (kh, kw), reference.stride, reference.padding,
                       np.asarray(u, dtype=np.float32), np.asarray(vt, dtype=np.float32),
                       None if reference.bias is None else reference.bias.data.copy(), extra_bn)
        return layer

    def _install(self, in_channels: int, out_channels: int, kernel_size: Tuple[int, int],
                 stride, padding, u: np.ndarray, vt: np.ndarray, bias: Optional[np.ndarray],
                 extra_bn: bool) -> None:
        nn.Module.__init__(self)
        kh, kw = kernel_size
        rank = u.shape[1]
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.rank = rank
        self.extra_bn = extra_bn
        # U (in·kh·kw, r) reshaped to a conv weight (r, in, kh, kw); Vᵀ (r, out) as 1×1 conv (out, r, 1, 1).
        self.u_weight = Parameter(u.reshape(in_channels, kh, kw, rank).transpose(3, 0, 1, 2).copy())
        self.v_weight = Parameter(vt.T.reshape(out_channels, rank, 1, 1).copy())
        self.bias = Parameter(bias) if bias is not None else None
        self.bn = nn.BatchNorm2d(rank) if extra_bn else None

    def forward(self, x: Tensor) -> Tensor:
        hidden = F.conv2d(x, self.u_weight, None, stride=self.stride, padding=self.padding)
        if self.bn is not None:
            hidden = self.bn(hidden)
        out = F.conv2d(hidden, self.v_weight, self.bias, stride=1, padding=0)
        return out

    def composed_weight(self) -> np.ndarray:
        """The effective unrolled matrix U Vᵀ of shape (in·kh·kw, out)."""
        rank = self.rank
        in_c, (kh, kw) = self.in_channels, self.kernel_size
        u = self.u_weight.data.transpose(1, 2, 3, 0).reshape(in_c * kh * kw, rank)
        vt = self.v_weight.data.reshape(self.out_channels, rank).T
        return u @ vt

    def factor_parameters(self) -> Tuple[Parameter, Parameter]:
        return self.u_weight, self.v_weight

    def export_factors(self) -> "OrderedDict[str, np.ndarray]":
        """The factorized conv weights in export form: thin k×k conv + 1×1 conv."""
        from collections import OrderedDict

        factors = OrderedDict(u_weight=self.u_weight.data.copy(),
                              v_weight=self.v_weight.data.copy())
        if self.bias is not None:
            factors["bias"] = self.bias.data.copy()
        return factors

    def to_dense(self) -> "nn.Conv2d":
        """Merge the factor pair into an equivalent full-rank ``nn.Conv2d``."""
        if self.bn is not None:
            raise ValueError("cannot merge a LowRankConv2d with extra_bn=True into a dense layer")
        kh, kw = self.kernel_size
        dense = nn.Conv2d(self.in_channels, self.out_channels, (kh, kw),
                          stride=self.stride, padding=self.padding,
                          bias=self.bias is not None)
        dense.weight.data = (
            self.composed_weight().T.reshape(self.out_channels, self.in_channels, kh, kw)
            .astype(np.float32).copy()
        )
        if self.bias is not None:
            dense.bias.data = self.bias.data.copy()
        return dense

    def extra_repr(self) -> str:
        return (f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
                f"rank={self.rank}, stride={self.stride}, extra_bn={self.extra_bn}")


def is_low_rank(module: nn.Module) -> bool:
    """True if ``module`` is one of the factorized layer types."""
    return isinstance(module, (LowRankLinear, LowRankConv2d))


def merge_factorized(model: nn.Module) -> int:
    """Replace every low-rank layer in ``model`` by its dense equivalent.

    The inverse of :func:`repro.core.factorize.factorize_model` up to float
    rounding: each U Vᵀ product is materialised as one dense weight.  Used to
    produce the dense baseline a factorized serving artifact is compared
    against.  Returns the number of layers merged; layers using the
    extra-BatchNorm variant raise (see :meth:`LowRankLinear.to_dense`).
    """
    merged = 0
    for path, module in list(model.named_modules()):
        if path and is_low_rank(module):
            model.set_submodule(path, module.to_dense())
            merged += 1
    return merged
