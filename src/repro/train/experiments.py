"""Shared experiment harness used by the examples and the benchmark suite.

Every comparison table in the paper has the same shape: a task (dataset), an
architecture, and a set of methods (full-rank, Pufferfish, SI&FD, IMP,
XNOR-Net, LC, GraSP, EB-Train, Cuttlefish) each reported as

    (# params, validation accuracy, end-to-end time)

``run_experiment`` runs one (task, model, method) cell at the configured
compute budget and returns an :class:`ExperimentRow`.  The method is built by
name from the unified registry (``repro.train.methods``) — there is no
per-method dispatch here; each registered :class:`~repro.train.methods.Method`
contributes its transforms, callbacks and hooks through the shared lifecycle,
and the projection/reporting logic below is composed exactly once.
``run_vision_method`` is the legacy spelling, kept as a thin wrapper.

Scale split
-----------
Training runs on reduced-width models over synthetic data (that is what a CPU
budget allows), but two quantities are evaluated on a *paper-scale reference
model* — the same architecture at ``width_mult = 1.0``:

* the Algorithm-2 K decision (which stacks are worth factorizing) is taken on
  the reference model under the GPU roofline, because the answer depends on
  absolute channel counts and batch size, not on the reduced widths;
* the end-to-end "Time" column is projected by applying the *rank ratios*
  found on the reduced model to the reference model and pricing full-rank and
  factorized epochs with the roofline model at the paper's batch size.

Both substitutions are documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro import nn
from repro.core import (
    ProfilingResult,
    full_rank_of,
    installed_rank,
    profile_layer_stacks,
)
from repro.data import build_loaders, make_vision_task
from repro.models import build_model
from repro.optim import SGD, build_paper_cifar_schedule
from repro.profiling import V100, DeviceSpec, ModuleTrace, price_layer_times, trace_shapes
from repro.tensor import get_backend, use_backend
from repro.train.methods import ExperimentContext, build_method
from repro.train.trainer import Trainer
from repro.utils import get_logger, get_rng, seed_everything

logger = get_logger("train.experiments")


@dataclass
class ExperimentRow:
    """One row of a paper-style comparison table."""

    method: str
    params: int
    params_fraction: float           # relative to the full-rank model
    val_accuracy: float
    wallclock_seconds: float
    projected_gpu_hours: float       # roofline-projected end-to-end time at paper scale
    speedup_vs_full_rank: float = 1.0
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        return {
            "method": self.method,
            "params": self.params,
            "params_fraction": self.params_fraction,
            "val_accuracy": self.val_accuracy,
            "wallclock_seconds": self.wallclock_seconds,
            "projected_gpu_hours": self.projected_gpu_hours,
            "speedup_vs_full_rank": self.speedup_vs_full_rank,
            **self.extra,
        }


@dataclass
class VisionExperimentConfig:
    """Compute-budget knobs shared by every method in a comparison."""

    task: str = "cifar10_small"
    model: str = "resnet18"
    width_mult: float = 0.25
    epochs: int = 8
    batch_size: int = 64
    peak_lr: float = 0.1
    warmup_epochs: int = 2
    weight_decay: float = 1e-4
    momentum: float = 0.9
    label_smoothing: float = 0.0
    max_batches_per_epoch: Optional[int] = None
    seed: int = 0
    small_input: bool = True

    # The input pipeline is the vectorized ``PipelineLoader`` (counter-based
    # augmentation RNG); ``loader`` is not read.  It stays, accepting only
    # "pipeline", because the repository benchmark's training cells
    # (perfbench/train_cell.py) pass it.
    loader: str = "pipeline"

    # Data-parallel training (repro.distributed).  ``world_size > 1`` runs N
    # forked replica workers over ShardedSampler shards with a deterministic
    # gradient all-reduce.  ``dp_lr_scaling`` applies the Goyal
    # linear-scaling rule: peak lr × world_size, warming up from the
    # single-replica lr (the effective batch is ``world_size × batch_size``).
    # ``dp_mode`` is not read either (world_size alone picks the trainer); it
    # stays, still validated, for the same benchmark cells.
    world_size: int = 1
    dp_mode: str = "thread"
    dp_lr_scaling: bool = True

    def __post_init__(self) -> None:
        if self.loader != "pipeline":
            raise ValueError(f"loader must be 'pipeline', got {self.loader!r}")
        if self.world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {self.world_size}")
        if self.dp_mode not in ("thread", "process"):
            raise ValueError(
                f"dp_mode must be 'thread' or 'process', got {self.dp_mode!r}")

    def effective_peak_lr(self) -> float:
        """Goyal linear-scaling rule: peak lr × world_size when enabled."""
        if self.world_size > 1 and self.dp_lr_scaling:
            return self.peak_lr * self.world_size
        return self.peak_lr

    # Paper-scale reference used for the K decision and the projected-time column.
    device: DeviceSpec = V100
    paper_batch_size: int = 1024
    paper_steps_per_epoch: int = 49          # 50 000 CIFAR images / batch 1024
    reference_width_mult: float = 1.0
    reference_image_size: int = 32
    reference_batch: int = 2
    use_reference_profiling: bool = True
    profile_rank_ratio: float = 0.25         # ρ̄ used by the Algorithm-2 probe
    profile_speedup_threshold: float = 1.5   # υ


@dataclass
class ExperimentSpec:
    """One (method, budget) cell of a comparison table.

    ``method_kwargs`` are passed to the method's constructor; unknown keys
    raise ``ValueError`` (see :func:`repro.train.methods.build_method`).
    """

    method: str
    config: Optional[VisionExperimentConfig] = None
    method_kwargs: Dict[str, Any] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------------- #
def _build_task(config: VisionExperimentConfig):
    """Build (train_loader, val_loader, task_spec).

    ``train_loader`` is the global (unsharded) pipeline loader; under
    data-parallel training the trainer derives each rank's shard from it.
    """
    train_ds, val_ds, spec = make_vision_task(config.task)
    train_loader, val_loader = build_loaders(train_ds, val_ds, config.batch_size)
    return train_loader, val_loader, spec


def _build_model(config: VisionExperimentConfig, num_classes: int,
                 width_mult: Optional[float] = None) -> nn.Module:
    kwargs = dict(num_classes=num_classes,
                  width_mult=width_mult if width_mult is not None else config.width_mult,
                  rng=get_rng(offset=config.seed + 1))
    if config.model in ("resnet18", "resnet50", "wide_resnet50_2"):
        kwargs["small_input"] = config.small_input
    return build_model(config.model, **kwargs)


def _build_optimizer(model: nn.Module, config: VisionExperimentConfig) -> SGD:
    optimizer = SGD(model.parameters(), lr=config.peak_lr, momentum=config.momentum,
                    weight_decay=config.weight_decay)
    bn_params = [
        p for module in model.modules()
        if isinstance(module, (nn.BatchNorm1d, nn.BatchNorm2d, nn.LayerNorm))
        for p in module._parameters.values() if p is not None
    ]
    optimizer.exclude_from_weight_decay(bn_params)
    return optimizer


def _build_scheduler(optimizer: SGD, config: VisionExperimentConfig):
    peak_lr = config.effective_peak_lr()
    if peak_lr != config.peak_lr:
        # Goyal warmup: start from the *single-replica* lr and ramp linearly
        # to the world_size-scaled peak over the warmup epochs.
        start_lr = config.peak_lr
    else:
        start_lr = config.peak_lr / 8
    return build_paper_cifar_schedule(optimizer, config.epochs, peak_lr,
                                      start_lr=start_lr,
                                      warmup_epochs=config.warmup_epochs)


def _reference_input(config: VisionExperimentConfig) -> np.ndarray:
    rng = get_rng(offset=777)
    size = config.reference_image_size
    return rng.standard_normal((config.reference_batch, 3, size, size)).astype(np.float32)


def _reference_shape_key(config: VisionExperimentConfig, num_classes: int) -> Tuple:
    """What fixes the reference model's layer shapes.  The seed is not part of
    it: it changes only the weights, which the roofline never reads."""
    return (config.model, config.reference_width_mult, config.reference_image_size,
            config.reference_batch, num_classes, config.small_input)


# The traced reference model: one entry, so a process that prices several
# architectures in turn holds only the last module tree and trace.
_REFERENCE_TRACE: Dict[Tuple, Tuple[nn.Module, Dict[str, ModuleTrace]]] = {}


def _traced_reference(config: VisionExperimentConfig,
                      num_classes: int) -> Tuple[nn.Module, Dict[str, ModuleTrace]]:
    """The paper-scale reference model and its layer-shape trace.

    Built weight-free (every weight is zero and nothing is drawn: the roofline
    reads only shapes) and traced once per shape key, then shared by
    :func:`reference_profiling` and :func:`projected_training_hours`, which
    only read it: nothing may modify the shared model.  The trace runs on a
    fresh instance of the active backend's class: the same arithmetic, but
    the buffers a pooling backend keeps die with that instance instead of
    staying in the training arena, whose shapes never take them.
    """
    key = _reference_shape_key(config, num_classes)
    if key not in _REFERENCE_TRACE:
        with nn.init.shapes_only():
            reference = _build_model(config, num_classes, width_mult=config.reference_width_mult)
        with use_backend(type(get_backend())()):
            traces = trace_shapes(reference, _reference_input(config))
        _REFERENCE_TRACE.clear()
        _REFERENCE_TRACE[key] = (reference, traces)
    return _REFERENCE_TRACE[key]


# Memoised reference-model profiling: keyed by everything the decision depends on.
_REFERENCE_PROFILE_CACHE: Dict[Tuple, ProfilingResult] = {}


def reference_profiling(config: VisionExperimentConfig, num_classes: int) -> Optional[ProfilingResult]:
    """Run Algorithm 2 on the paper-scale reference model (roofline, paper batch)."""
    key = _reference_shape_key(config, num_classes) + (
        config.paper_batch_size, config.device.name,
        config.profile_rank_ratio, config.profile_speedup_threshold)
    if key in _REFERENCE_PROFILE_CACHE:
        return _REFERENCE_PROFILE_CACHE[key]
    reference, traces = _traced_reference(config, num_classes)
    if not hasattr(reference, "layer_stack_paths"):
        return None
    result = profile_layer_stacks(
        reference, reference.layer_stack_paths(), None,
        rank_ratio=config.profile_rank_ratio,
        speedup_threshold=config.profile_speedup_threshold,
        mode="roofline", device=config.device,
        batch_scale=config.paper_batch_size / config.reference_batch, traces=traces,
    )
    _REFERENCE_PROFILE_CACHE[key] = result
    return result


def projected_training_hours(config: VisionExperimentConfig, num_classes: int,
                             rank_ratios: Optional[Dict[str, float]],
                             epochs_full: float, epochs_low: float,
                             overhead_multiplier: float = 1.0) -> float:
    """Project end-to-end GPU hours at paper scale from the roofline model.

    The reference (full-width) model is priced for the full-rank phase, and
    priced again with its layers factorized at the supplied per-layer rank
    ratios for the low-rank phase — from the shared shape trace, without
    factorizing anything.  ``overhead_multiplier`` models methods that repeat
    training (IMP) or add per-iteration work (XNOR binarisation).
    """
    reference, traces = _traced_reference(config, num_classes)
    ranks: Dict[str, int] = {}
    for path, ratio in (rank_ratios or {}).items():
        try:
            module = reference.get_submodule(path)
        except KeyError:
            continue
        rank = installed_rank(module, full_rank_of(module) * ratio)
        if rank is not None:
            ranks[path] = rank
    batch_scale = config.paper_batch_size / config.reference_batch

    def iteration_time(layer_ranks: Dict[str, int]) -> float:
        times = price_layer_times(reference, traces, config.device, batch_scale, layer_ranks)
        # Backward ≈ 2× forward, as the paper assumes.
        return sum(times.values()) * 3.0

    full_time = iteration_time({})
    low_time = iteration_time(ranks)
    seconds = config.paper_steps_per_epoch * (epochs_full * full_time + epochs_low * low_time)
    return overhead_multiplier * seconds / 3600.0


# --------------------------------------------------------------------------- #
# The generic experiment runner
# --------------------------------------------------------------------------- #
def run_experiment(spec: ExperimentSpec, return_context: bool = False):
    """Run one registered method on one vision task; return its table row.

    The lifecycle is identical for every method (see
    :class:`repro.train.methods.Method`): build → prepare → optimizer/
    scheduler → configure → trainer → execute → finalize, after which the
    paper-scale roofline projection prices the reported time column.

    With ``return_context=True`` the return value is ``(row, context)`` —
    the context carries the trained ``context.model``, which is what the CLI
    ``train --export`` / ``--save-checkpoint`` paths hand to the serving
    exporter.
    """
    config = spec.config or VisionExperimentConfig()
    # Fail fast — before any training — on unknown names or misspelled kwargs.
    method = build_method(spec.method, **spec.method_kwargs)

    seed_everything(config.seed)
    train_loader, val_loader, task_spec = _build_task(config)
    model = _build_model(config, task_spec.num_classes)
    context = ExperimentContext(
        config=config,
        task_spec=task_spec,
        train_loader=train_loader,
        val_loader=val_loader,
        full_rank_params=model.num_parameters(),
        optimizer_factory=lambda m: _build_optimizer(m, config),
        scheduler_factory=lambda opt: _build_scheduler(opt, config),
    )
    if config.use_reference_profiling:
        context.reference_profiler = lambda: reference_profiling(config, task_spec.num_classes)

    context.model = method.prepare(model, context)
    context.optimizer = context.optimizer_factory(context.model)
    context.scheduler = context.scheduler_factory(context.optimizer) if method.uses_scheduler else None
    method.configure(context)
    trainer_kwargs = dict(
        scheduler=context.scheduler,
        callbacks=method.callbacks(),
        loss_hook=method.loss_hook(),
        grad_hook=method.grad_hook(),
        label_smoothing=config.label_smoothing if method.uses_label_smoothing else 0.0,
        max_batches_per_epoch=config.max_batches_per_epoch,
    )
    if config.world_size > 1:
        from repro.distributed import DataParallelTrainer

        context.trainer = DataParallelTrainer(
            context.model, context.optimizer, train_loader, val_loader,
            world_size=config.world_size,
            **trainer_kwargs,
        )
    else:
        context.trainer = Trainer(
            context.model, context.optimizer, train_loader, val_loader,
            **trainer_kwargs,
        )
    try:
        method.execute(context)
        result = method.finalize(context)
    finally:
        # Data-parallel trainers hold OS resources (forked workers + a
        # shared-memory segment); release them even when training fails.
        release = getattr(context.trainer, "shutdown", None)
        if release is not None:
            release()

    projected = projected_training_hours(config, task_spec.num_classes, result.rank_ratios,
                                         result.epochs_full, result.epochs_low,
                                         overhead_multiplier=result.overhead_multiplier)
    full_rank_projected = projected_training_hours(config, task_spec.num_classes, None,
                                                   float(config.epochs), 0.0)
    params_fraction = (result.params_fraction if result.params_fraction is not None
                       else result.params / max(context.full_rank_params, 1))
    row = ExperimentRow(
        method=spec.method,
        params=result.params,
        params_fraction=params_fraction,
        val_accuracy=result.accuracy,
        wallclock_seconds=result.wallclock_seconds,
        projected_gpu_hours=projected,
        speedup_vs_full_rank=full_rank_projected / max(projected, 1e-12),
        extra=result.extra,
    )
    if return_context:
        return row, context
    return row


def run_vision_method(method: str, config: Optional[VisionExperimentConfig] = None,
                      **method_kwargs) -> ExperimentRow:
    """Legacy entry point: ``run_experiment`` with positional spelling.

    ``method`` is any name in :func:`repro.train.methods.available_methods`.
    Unknown method names raise ``KeyError``; unknown ``method_kwargs`` raise
    ``ValueError`` naming the offending keys.
    """
    return run_experiment(ExperimentSpec(method=method, config=config,
                                         method_kwargs=method_kwargs))


def format_rows(rows, float_digits: int = 4) -> str:
    """Plain-text table of experiment rows (printed by the benchmark harnesses)."""
    header = ["method", "params", "params%", "val_acc", "cpu_s", "proj_gpu_h", "speedup"]
    lines = ["  ".join(f"{h:>12}" for h in header)]
    for row in rows:
        lines.append("  ".join([
            f"{row.method:>12}",
            f"{row.params:>12d}",
            f"{100 * row.params_fraction:>11.1f}%",
            f"{row.val_accuracy:>12.4f}",
            f"{row.wallclock_seconds:>12.1f}",
            f"{row.projected_gpu_hours:>12.3f}",
            f"{row.speedup_vs_full_rank:>12.2f}",
        ]))
    return "\n".join(lines)
