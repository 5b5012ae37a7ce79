"""Model registry: build any architecture used in the paper by name.

``build_model("resnet18", num_classes=10, width_mult=0.25)`` returns the model
plus nothing else; experiment configs (``repro.train.experiments``) choose the
width multiplier appropriate for the compute budget.  Each name maps to its
family's module, which is imported on the first build, so a server loading a
ResNet artifact never imports the transformers.
"""

from __future__ import annotations

import importlib
from typing import Dict, Tuple

#: name → (module under ``repro.models``, builder in it).
_REGISTRY: Dict[str, Tuple[str, str]] = {
    "resnet18": ("resnet", "resnet18"),
    "resnet50": ("resnet", "resnet50"),
    "wide_resnet50_2": ("resnet", "wide_resnet50_2"),
    "vgg19": ("vgg", "vgg19"),
    "deit_base": ("deit", "deit_base"),
    "deit_small": ("deit", "deit_small"),
    "deit_tiny": ("deit", "deit_tiny"),
    "deit_micro": ("deit", "deit_micro"),
    "resmlp_s36": ("resmlp", "resmlp_s36"),
    "resmlp_s24": ("resmlp", "resmlp_s24"),
    "resmlp_micro": ("resmlp", "resmlp_micro"),
    "bert_base": ("bert", "bert_base"),
    "bert_mini": ("bert", "bert_mini"),
    "bert_micro": ("bert", "bert_micro"),
    "mlp": ("mlp", "MLP"),
}


def available_models() -> list:
    """Names accepted by :func:`build_model`."""
    return sorted(_REGISTRY)


def build_model(name: str, **kwargs):
    """Instantiate a registered architecture by name."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {available_models()}")
    module, builder = _REGISTRY[name]
    return getattr(importlib.import_module(f"repro.models.{module}"), builder)(**kwargs)


__all__ = ["available_models", "build_model"]
