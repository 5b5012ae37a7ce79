"""repro — a from-scratch reproduction of Cuttlefish (MLSys 2023).

The package is organised as:

* :mod:`repro.tensor` / :mod:`repro.nn` / :mod:`repro.optim` — a numpy-based
  training substrate (autograd, layers, optimizers) replacing PyTorch.
* :mod:`repro.data` — synthetic stand-ins for CIFAR/SVHN/ImageNet/GLUE.
* :mod:`repro.models` — ResNet, VGG, DeiT, ResMLP, BERT architectures.
* :mod:`repro.core` — Cuttlefish itself: stable-rank tracking, automatic
  (E, K, R) selection, factorized layers, the Cuttlefish trainer.
* :mod:`repro.baselines` — Pufferfish, SI&FD, IMP, LC compression, XNOR-Net,
  GraSP, EB-Train and distillation baselines.
* :mod:`repro.train` — generic training loops, metrics, experiment configs.
* :mod:`repro.profiling` — FLOPs/parameter counting and a roofline cost model.

Most packages resolve their public names on first access (DESIGN.md §2), so
a process imports only the modules it uses: ``repro serve`` loads no
trainer, optimizer, data pipeline or training method.
"""

import importlib
from typing import Dict, Sequence

__version__ = "1.0.0"


def _lazy_exports(package: str, exports: Dict[str, Sequence[str]]):
    """PEP 562 hooks for a package whose public names load on first access.

    ``exports`` maps each submodule, relative to ``package``, to the public
    names it defines.  Returns ``(__getattr__, __dir__, names)``: the hook
    imports a name's submodule the first time the name is read and caches
    the value in the package, so later reads are plain lookups; ``names``
    lists every lazy name in table order, for ``__all__``.
    """
    where = {name: module for module, names in exports.items() for name in names}
    namespace = vars(importlib.import_module(package))

    def __getattr__(name):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__, list(where)


from repro.tensor import Tensor, no_grad  # noqa: E402  (the helper comes first: subpackages import it)
from repro.utils import seed_everything  # noqa: E402

__all__ = ["Tensor", "no_grad", "seed_everything", "__version__"]
