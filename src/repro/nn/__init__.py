"""Neural-network layers and containers (the ``torch.nn`` replacement)."""

from repro.nn.module import (
    Buffer,
    Identity,
    Module,
    ModuleList,
    Parameter,
    Sequential,
    StateDictReport,
)
from repro.nn.layers import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GELU,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.attention import MultiHeadAttention
from repro.nn import init

__all__ = [
    "Buffer",
    "Identity",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "StateDictReport",
    "AdaptiveAvgPool2d",
    "AvgPool2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "Conv2d",
    "Dropout",
    "Embedding",
    "Flatten",
    "GELU",
    "LayerNorm",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "MultiHeadAttention",
    "init",
]
