"""Unified training-method API: one lifecycle, one registry, nine methods.

Every comparison table in the paper runs N methods on the same
(task, model, budget) cell and reports (# params, accuracy, time).  The
:class:`Method` base class turns each method — Cuttlefish and all eight
baselines — into a pluggable component with a uniform lifecycle, mirroring
the ``repro.models`` registry pattern:

1. ``prepare(model, context)`` — structural transforms before training
   (XNOR layer conversion, SI&FD factorize-at-init, GraSP pruning masks);
2. ``configure(context)`` — optimizer-dependent setup once the optimizer and
   scheduler exist (Frobenius decay's weight-decay exclusions);
3. ``callbacks()`` / ``loss_hook()`` / ``grad_hook()`` — contributions to the
   :class:`~repro.train.trainer.Trainer` (epoch- and step-level events,
   extra loss terms, gradient masking);
4. ``execute(context)`` — the training loop itself; the default runs
   ``context.trainer.fit(config.epochs)`` and methods with a bespoke outer
   loop (IMP's prune-rewind rounds) override it;
5. ``finalize(context) -> MethodResult`` — what the comparison table needs:
   parameter count, accuracy, the full-rank/low-rank epoch split and the
   overhead multiplier that drive the roofline time projection.

Methods self-register with :func:`register_method`; the experiment harness
(``repro.train.experiments.run_experiment``) builds them by name through
:func:`build_method` and composes the shared projection/reporting logic once.

This module deliberately imports nothing from ``repro.core`` or
``repro.baselines`` at module level — those packages import the decorator
from here, and the built-in registrations are pulled in lazily on first
registry access.  :func:`build_method` imports them only for a name not yet
registered, so a run of ``full_rank``, or of ``cuttlefish`` once
``repro.core`` is imported (as the harness does), never imports the
baselines.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Type

from repro.train.trainer import Callback
from repro.utils import get_logger

logger = get_logger("train.methods")


# --------------------------------------------------------------------------- #
# Data carried across the lifecycle
# --------------------------------------------------------------------------- #
@dataclass
class ExperimentContext:
    """Everything a :class:`Method` may need during one experiment run.

    The harness fills the fields in lifecycle order: loaders and factories
    exist from the start, ``model`` is set after ``prepare``, ``optimizer``
    and ``scheduler`` before ``configure``, and ``trainer`` before
    ``execute``.
    """

    config: Any                                   # VisionExperimentConfig (or compatible)
    task_spec: Any = None                         # dataset spec (``num_classes``, …)
    train_loader: Any = None
    val_loader: Any = None
    model: Any = None
    optimizer: Any = None
    scheduler: Any = None
    trainer: Any = None
    full_rank_params: int = 0                     # parameter count before any transform
    optimizer_factory: Optional[Callable] = None  # optimizer_factory(model) -> Optimizer
    scheduler_factory: Optional[Callable] = None  # scheduler_factory(optimizer) -> LRScheduler
    reference_profiler: Optional[Callable] = None  # () -> Optional[ProfilingResult]

    @property
    def num_classes(self) -> int:
        return self.task_spec.num_classes


@dataclass
class MethodResult:
    """What ``finalize`` hands back to the harness for one table row.

    ``epochs_full``/``epochs_low`` and ``overhead_multiplier`` parameterise
    the paper-scale roofline projection of the "Time" column;
    ``rank_ratios`` (per-path rank / full rank of the trained model) lets the
    harness price the low-rank phase on the reference model.
    ``params_fraction`` overrides the default ``params / full_rank_params``
    for methods whose effective size is not a parameter count (XNOR's
    1-bit-out-of-32 fraction).
    """

    params: int
    accuracy: float
    wallclock_seconds: float
    epochs_full: float
    epochs_low: float = 0.0
    overhead_multiplier: float = 1.0
    rank_ratios: Optional[Dict[str, float]] = None
    params_fraction: Optional[float] = None
    extra: Dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# The Method lifecycle
# --------------------------------------------------------------------------- #
class Method:
    """Base class of every registered training method.

    Subclasses override only the lifecycle stages their algorithm needs; the
    defaults describe plain full-rank training.  Constructor keyword
    arguments are the method's public knobs — :func:`build_method` validates
    them against the signature so typos fail loudly.
    """

    #: registry name, set by :func:`register_method`.
    name: str = ""
    #: one-line summary shown by ``repro-cuttlefish list-methods``.
    description: str = ""
    #: build a per-epoch LR scheduler for this method's trainer.
    uses_scheduler: bool = True
    #: apply the experiment config's label smoothing inside the default loss.
    uses_label_smoothing: bool = False

    def prepare(self, model, context: ExperimentContext):
        """Transform ``model`` before the optimizer is built; return the model."""
        return model

    def configure(self, context: ExperimentContext) -> None:
        """Optimizer-dependent setup, run after ``context.optimizer`` exists."""

    def callbacks(self) -> List[Callback]:
        """Trainer callbacks contributed by this method."""
        return []

    def loss_hook(self) -> Optional[Callable]:
        """Optional callable adding differentiable terms to the loss."""
        return None

    def grad_hook(self) -> Optional[Callable]:
        """Optional callable run after ``backward``, before ``optimizer.step``."""
        return None

    def execute(self, context: ExperimentContext) -> None:
        """Run training.  Default: one ``Trainer.fit`` over the budget."""
        context.trainer.fit(context.config.epochs)

    def finalize(self, context: ExperimentContext) -> MethodResult:
        """Summarise the run.  Default describes plain dense training."""
        trainer = context.trainer
        return MethodResult(
            params=context.model.num_parameters(),
            accuracy=trainer.final_val_accuracy(),
            wallclock_seconds=trainer.total_train_seconds,
            epochs_full=float(context.config.epochs),
        )


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_METHOD_REGISTRY: Dict[str, Type[Method]] = {}


def register_method(name: str) -> Callable[[Type[Method]], Type[Method]]:
    """Class decorator registering a :class:`Method` subclass under ``name``."""

    def decorator(cls: Type[Method]) -> Type[Method]:
        if not (isinstance(cls, type) and issubclass(cls, Method)):
            raise TypeError(f"@register_method({name!r}) expects a Method subclass, got {cls!r}")
        if name in _METHOD_REGISTRY and _METHOD_REGISTRY[name] is not cls:
            raise ValueError(f"method name {name!r} already registered by "
                             f"{_METHOD_REGISTRY[name].__qualname__}")
        cls.name = name
        _METHOD_REGISTRY[name] = cls
        return cls

    return decorator


def _ensure_builtin_methods() -> None:
    """Import the modules whose import side effect registers the built-ins.

    Lazy so that ``repro.train`` stays importable without ``repro.core`` /
    ``repro.baselines`` (which import the decorator from this module).
    """
    import repro.baselines            # noqa: F401  (registers the 8 baselines)
    import repro.core.cuttlefish      # noqa: F401  (registers "cuttlefish")


def available_methods() -> List[str]:
    """Sorted names accepted by :func:`build_method`."""
    _ensure_builtin_methods()
    return sorted(_METHOD_REGISTRY)


def method_descriptions() -> Dict[str, str]:
    """name → one-line description for every registered method."""
    _ensure_builtin_methods()
    return {name: _METHOD_REGISTRY[name].description or
            (inspect.getdoc(_METHOD_REGISTRY[name]) or "").split("\n")[0]
            for name in sorted(_METHOD_REGISTRY)}


def build_method(name: str, **kwargs) -> Method:
    """Instantiate a registered method by name.

    Raises ``KeyError`` for an unknown name (matching the model registry) and
    ``ValueError`` naming any keyword argument the method does not accept, so
    typos like ``cuttelfish_config=`` fail loudly instead of being ignored.
    """
    if name not in _METHOD_REGISTRY:
        _ensure_builtin_methods()
    if name not in _METHOD_REGISTRY:
        raise KeyError(f"unknown method {name!r}; available: {available_methods()}")
    cls = _METHOD_REGISTRY[name]
    if cls.__init__ is object.__init__:
        # No constructor of its own: the method has no knobs at all.
        accepted, takes_var_kwargs = set(), False
    else:
        parameters = inspect.signature(cls.__init__).parameters
        takes_var_kwargs = any(p.kind is inspect.Parameter.VAR_KEYWORD
                               for p in parameters.values())
        accepted = {p for p in parameters if p != "self"}
    if not takes_var_kwargs:
        unknown = sorted(set(kwargs) - accepted)
        if unknown:
            raise ValueError(
                f"method {name!r} got unknown argument(s) {unknown}; "
                f"accepted: {sorted(accepted) or '(none)'}"
            )
    return cls(**kwargs)


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #
def low_rank_ratios(model) -> Dict[str, float]:
    """Per-path rank ratio of every factorized layer of a trained model."""
    from repro.core import is_low_rank  # lazy: repro.core imports this module

    ratios: Dict[str, float] = {}
    for name, module in model.named_modules():
        if not name or not is_low_rank(module):
            continue
        if hasattr(module, "kernel_size"):
            full = min(module.in_channels * module.kernel_size[0] * module.kernel_size[1],
                       module.out_channels)
        else:
            full = min(module.in_features, module.out_features)
        ratios[name] = module.rank / max(full, 1)
    return ratios


# --------------------------------------------------------------------------- #
# The baseline column
# --------------------------------------------------------------------------- #
@register_method("full_rank")
class FullRankMethod(Method):
    """Plain dense training — the full-rank baseline column of every table."""

    description = "conventional full-rank training (the paper's baseline column)"
    uses_label_smoothing = True


__all__ = [
    "ExperimentContext",
    "FullRankMethod",
    "Method",
    "MethodResult",
    "available_methods",
    "build_method",
    "low_rank_ratios",
    "method_descriptions",
    "register_method",
]
