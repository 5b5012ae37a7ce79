"""Generic supervised training loop with an epoch-level callback hook.

The Cuttlefish algorithm (and several baselines: EB-Train, IMP, LC) is a
*training-time* transformation — it watches the model between epochs and may
replace layers, rebuild optimizer state or adjust the learning rate.  The
:class:`Trainer` therefore exposes a small callback protocol at two
granularities:

* epoch level — ``on_train_begin``, ``on_epoch_end(trainer, epoch, logs)``
  and ``on_train_end``; callbacks may mutate ``trainer.model`` and
  ``trainer.optimizer`` between epochs;
* step level — ``on_batch_begin(trainer, batch_index, batch)`` and
  ``on_batch_end(trainer, batch_index, logs)`` around every optimizer step,
  and ``on_evaluate_end(trainer, logs)`` after each validation pass, so
  per-iteration work (XNOR re-binarisation accounting, LC's penalty
  bookkeeping) lives in callbacks instead of special-cased loops.

This keeps the training loop itself free of any Cuttlefish-specific logic and
identical across the full-rank baseline and every low-rank method.

Data flows in through the :class:`~repro.data.pipeline.BatchStream` protocol
— any length-aware iterable of stacked-array batch tuples works (the legacy
``DataLoader``, the vectorized ``PipelineLoader``, a ``PrefetchingLoader``
around either).  The trainer advances the stream's epoch (``set_epoch``)
before every training epoch so epoch-keyed shuffling and counter-based
augmentation stay deterministic, and it splits wall time per epoch into
*data stall* (blocked in ``next(batch)``) versus *step compute* — the
numbers that say whether the input pipeline or the model is the bottleneck.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import nn
from repro.data.pipeline import BatchStream
from repro.optim import LRScheduler, Optimizer
from repro.profiling.pipeline import PipelineStats
from repro.telemetry import MetricsRegistry
from repro.telemetry import tracing as _tracing
from repro.tensor import Tensor, functional as F, no_grad
from repro.train.metrics import AverageMeter, top_k_accuracy
from repro.utils import get_logger

logger = get_logger("train")


class Callback:
    """Base class for epoch- and step-level training hooks."""

    def on_train_begin(self, trainer: "Trainer") -> None:
        pass

    def on_batch_begin(self, trainer: "Trainer", batch_index: int, batch) -> None:
        pass

    def on_batch_end(self, trainer: "Trainer", batch_index: int, logs: Dict[str, float]) -> None:
        pass

    def on_evaluate_end(self, trainer: "Trainer", logs: Dict[str, float]) -> None:
        pass

    def on_epoch_end(self, trainer: "Trainer", epoch: int, logs: Dict[str, float]) -> None:
        pass

    def on_train_end(self, trainer: "Trainer") -> None:
        pass


@dataclass
class EpochRecord:
    """Per-epoch training record collected into ``Trainer.history``."""

    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: Optional[float] = None
    val_accuracy: Optional[float] = None
    val_top5: Optional[float] = None
    lr: float = 0.0
    epoch_seconds: float = 0.0
    num_parameters: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


def _collect_op_counters() -> Dict[str, Dict[str, float]]:
    """Backend per-op counters as plain dicts for the metrics snapshot."""
    from repro.profiling.counters import op_counters

    return {name: {"calls": count.calls, "flops": count.flops}
            for name, count in op_counters().items()}


def default_loss_fn(model: nn.Module, batch: Sequence[np.ndarray]) -> Tensor:
    """Cross-entropy over an ``(inputs, labels)`` batch.

    Runs through the fused :func:`repro.tensor.functional.softmax_cross_entropy`
    kernel (a single graph node on fusing backends).
    """
    inputs, labels = batch[0], batch[-1]
    logits = model(inputs)
    return F.softmax_cross_entropy(logits, labels)


def default_forward_fn(model: nn.Module, batch: Sequence[np.ndarray]) -> Tensor:
    """Return logits for an ``(inputs, ..., labels)`` batch."""
    return model(batch[0])


class Trainer:
    """Mini-batch SGD training loop.

    Parameters
    ----------
    model, optimizer, train_loader, val_loader:
        The usual suspects.
    loss_fn:
        ``loss_fn(model, batch) -> Tensor`` scalar loss.  Defaults to
        cross-entropy on ``(inputs, labels)`` batches.
    forward_fn:
        ``forward_fn(model, batch) -> Tensor`` producing logits for
        evaluation.  Defaults to ``model(batch[0])``.
    scheduler:
        Optional per-epoch learning rate scheduler.
    label_smoothing:
        Applied inside the default loss function only.
    loss_hook:
        Optional callable adding extra differentiable terms to the loss
        (used by Frobenius decay).
    grad_hook:
        Optional callable invoked after ``backward`` and before
        ``optimizer.step`` (used by gradient-masking baselines).
    """

    def __init__(
        self,
        model: nn.Module,
        optimizer: Optimizer,
        train_loader: BatchStream,
        val_loader: Optional[BatchStream] = None,
        loss_fn: Optional[Callable] = None,
        forward_fn: Optional[Callable] = None,
        scheduler: Optional[LRScheduler] = None,
        callbacks: Optional[List[Callback]] = None,
        label_smoothing: float = 0.0,
        loss_hook: Optional[Callable[[nn.Module], Tensor]] = None,
        grad_hook: Optional[Callable[[nn.Module], None]] = None,
        max_batches_per_epoch: Optional[int] = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.train_loader = train_loader
        self.val_loader = val_loader
        self.scheduler = scheduler
        self.callbacks = list(callbacks or [])
        self.label_smoothing = label_smoothing
        self.loss_hook = loss_hook
        self.grad_hook = grad_hook
        self._added_grad_hooks: List[Callable] = []
        self.max_batches_per_epoch = max_batches_per_epoch
        self.history: List[EpochRecord] = []
        self.total_train_seconds = 0.0
        # Epoch counter fed to the stream's ``set_epoch`` — monotonic across
        # repeated ``fit`` calls so multi-phase methods (IMP rewinds,
        # Cuttlefish's two phases) never replay an epoch's augmentation bits.
        self.epochs_completed = 0
        # Data-stall vs step-compute accounting (see repro.profiling.pipeline):
        # cumulative across the trainer's life plus the most recent epoch.
        self.pipeline_stats = PipelineStats()
        self.last_epoch_pipeline_stats: Optional[PipelineStats] = None
        # Unified metrics: lifetime step/sample counters (updated once per
        # epoch — zero per-step cost) plus the pipeline split and the
        # backend's per-op counters as collectors.
        self.metrics = MetricsRegistry("train")
        self.metrics.register_collector("pipeline", self.pipeline_stats.as_dict)
        self.metrics.register_collector("op_counters", _collect_op_counters)
        # Logits of the most recent training batch, recorded by the default
        # loss path so train_epoch can report a real running accuracy.
        self._last_train_logits: Optional[Tensor] = None
        # Lazily created when the active backend asks for compiled plans
        # (``numpy-compiled``); holds one replayable plan per step signature.
        self._compiler = None

        if loss_fn is None:
            def loss_fn(model, batch):
                logits = model(batch[0])
                self._last_train_logits = logits
                return F.softmax_cross_entropy(logits, batch[-1],
                                               label_smoothing=self.label_smoothing)
        self.loss_fn = loss_fn
        self.forward_fn = forward_fn or default_forward_fn

    # ------------------------------------------------------------------ #
    # Single epoch
    # ------------------------------------------------------------------ #
    def _loss_with_hook(self, batch) -> Tensor:
        loss = self.loss_fn(self.model, batch)
        if self.loss_hook is not None:
            extra = self.loss_hook(self.model)
            if extra is not None:
                loss = loss + extra
        return loss

    def _step_compiler(self):
        """The step compiler, when the active backend wants compiled plans."""
        from repro.tensor.backend import get_backend

        if not getattr(get_backend(), "compiled_plans", False):
            return None
        if self._compiler is None:
            from repro.compile import StepCompiler

            self._compiler = StepCompiler()
        return self._compiler

    def train_epoch(self) -> Dict[str, float]:
        self.model.train()
        epoch = self.epochs_completed
        set_epoch = getattr(self.train_loader, "set_epoch", None)
        if set_epoch is not None:
            set_epoch(epoch)
        stats = PipelineStats()
        loss_meter, acc_meter = AverageMeter(), AverageMeter()
        compiler = self._step_compiler()
        iterator = iter(self.train_loader)
        batch_index = 0
        try:
            while True:
                requested = time.perf_counter()
                try:
                    batch = next(iterator)
                except StopIteration:
                    break
                # The cap check sits *after* the fetch on purpose: the old
                # enumerate loop materialised batch ``max`` before breaking,
                # and the legacy loader's per-sample transforms draw from a
                # stateful stream — skipping that fetch would shift every
                # later epoch's augmentation bits away from the seed capture.
                if self.max_batches_per_epoch is not None and batch_index >= self.max_batches_per_epoch:
                    break
                delivered = time.perf_counter()
                stats.observe_stall(delivered - requested)
                # One branch per step when tracing is off; when on, the phase
                # boundaries reuse the perf_counter stamps the loop already
                # takes plus three extra clock reads — no context managers in
                # the hot path.
                traced = _tracing.enabled()
                for callback in self.callbacks:
                    callback.on_batch_begin(self, batch_index, batch)
                self._last_train_logits = None
                if compiler is not None:
                    handle = compiler.forward(
                        self.model, batch,
                        lambda: self._loss_with_hook(batch),
                        aux=lambda: {"logits": self._last_train_logits})
                    loss = handle.loss
                    if handle.was_replay:
                        self._last_train_logits = handle.aux.get("logits")
                else:
                    handle = None
                    loss = self._loss_with_hook(batch)
                if traced:
                    forward_end = time.perf_counter()
                self.optimizer.zero_grad()
                if handle is not None:
                    handle.backward()
                else:
                    loss.backward()
                if self.grad_hook is not None:
                    self.grad_hook(self.model)
                if traced:
                    backward_end = time.perf_counter()
                self.optimizer.step()
                if traced:
                    optimizer_end = time.perf_counter()
                batch_size = len(batch[-1])
                loss_meter.update(loss.item(), batch_size)
                batch_accuracy = self._batch_accuracy(batch)
                if batch_accuracy is not None:
                    acc_meter.update(batch_accuracy, batch_size)
                batch_logs = {"loss": loss.item()}
                if batch_accuracy is not None:
                    batch_logs["accuracy"] = batch_accuracy
                for callback in self.callbacks:
                    callback.on_batch_end(self, batch_index, batch_logs)
                compute_end = time.perf_counter()
                stats.observe_compute(compute_end - delivered, batch_size)
                if traced:
                    self._record_step_spans(batch_index, requested, delivered,
                                            forward_end, backward_end,
                                            optimizer_end, compute_end)
                batch_index += 1
        finally:
            # A prefetching stream keeps producer threads behind its
            # iterator; closing the generator (early break, error) shuts
            # them down deterministically instead of leaking them.
            close = getattr(iterator, "close", None)
            if close is not None:
                close()
        self._last_train_logits = None
        self.epochs_completed += 1
        self.last_epoch_pipeline_stats = stats
        self.pipeline_stats.merge(stats)
        self.metrics.counter("steps_total").inc(batch_index)
        self.metrics.counter("samples_total").inc(stats.samples)
        return {
            "loss": loss_meter.average,
            "accuracy": acc_meter.average,
            "data_stall_seconds": stats.stall_seconds,
            "data_compute_seconds": stats.compute_seconds,
            "samples_per_sec": stats.samples_per_sec,
        }

    @staticmethod
    def _record_step_spans(batch_index: int, requested: float, delivered: float,
                           forward_end: float, backward_end: float,
                           optimizer_end: float, compute_end: float) -> None:
        """Emit one ``step`` span and its phase children from loop timestamps.

        ``forward`` covers the loss forward pass plus any loss hook;
        ``backward`` covers zero_grad, backprop and the grad hook;
        ``accounting`` is the meters/callbacks tail — recorded explicitly so
        the children account for the step end to end.
        """
        _tracing.record_span("step", requested, compute_end, cat="train",
                             batch=batch_index)
        _tracing.record_span("data_wait", requested, delivered, cat="train",
                             parent="step")
        _tracing.record_span("forward", delivered, forward_end, cat="train",
                             parent="step")
        _tracing.record_span("backward", forward_end, backward_end, cat="train",
                             parent="step")
        _tracing.record_span("optimizer", backward_end, optimizer_end,
                             cat="train", parent="step")
        _tracing.record_span("accounting", optimizer_end, compute_end,
                             cat="train", parent="step")

    def _batch_accuracy(self, batch) -> Optional[float]:
        """Running top-1 accuracy from the training logits, when they apply.

        Only the default loss path records logits, and only plain
        ``(N, C)`` classification batches are scored — custom losses (MLM,
        distillation) and non-integer targets report no train accuracy.
        """
        logits = self._last_train_logits
        if logits is None or logits.data.ndim != 2:
            return None
        labels = np.asarray(batch[-1])
        if labels.ndim != 1 or len(labels) != len(logits.data) \
                or not np.issubdtype(labels.dtype, np.integer):
            return None
        return top_k_accuracy(logits.data, labels, k=1)

    @no_grad()
    def evaluate(self, loader: Optional[BatchStream] = None) -> Dict[str, float]:
        # Under no_grad the engine builds no graph nodes at all (and conv
        # layers give their column buffers back to the arena after each
        # GEMM), so evaluation is a pure-forward fast path.
        loader = loader or self.val_loader
        if loader is None:
            return {}
        self.model.eval()
        loss_meter = AverageMeter()
        all_logits, all_labels = [], []
        with _tracing.span("eval", cat="train"):
            for batch in loader:
                logits = self.forward_fn(self.model, batch)
                labels = batch[-1]
                loss = F.softmax_cross_entropy(logits, labels)
                loss_meter.update(loss.item(), len(labels))
                all_logits.append(logits.data)
                all_labels.append(labels)
        logits = np.concatenate(all_logits)
        labels = np.concatenate(all_labels)
        top5_k = min(5, logits.shape[1])
        return {
            "loss": loss_meter.average,
            "accuracy": top_k_accuracy(logits, labels, k=1),
            "top5": top_k_accuracy(logits, labels, k=top5_k),
        }

    # ------------------------------------------------------------------ #
    # Full run
    # ------------------------------------------------------------------ #
    def fit(self, epochs: int, evaluate_every: int = 1, verbose: bool = False) -> List[EpochRecord]:
        for callback in self.callbacks:
            callback.on_train_begin(self)
        for epoch in range(epochs):
            start = time.perf_counter()
            with _tracing.span("train_epoch", cat="train", epoch=epoch):
                train_stats = self.train_epoch()
            elapsed = time.perf_counter() - start
            self.total_train_seconds += elapsed

            val_stats: Dict[str, float] = {}
            if self.val_loader is not None and (epoch + 1) % evaluate_every == 0:
                val_stats = self.evaluate()
                for callback in self.callbacks:
                    callback.on_evaluate_end(self, val_stats)

            record = EpochRecord(
                epoch=epoch,
                train_loss=train_stats["loss"],
                train_accuracy=train_stats["accuracy"],
                val_loss=val_stats.get("loss"),
                val_accuracy=val_stats.get("accuracy"),
                val_top5=val_stats.get("top5"),
                lr=self.optimizer.lr,
                epoch_seconds=elapsed,
                num_parameters=self.model.num_parameters(),
                extra={
                    "data_stall_seconds": train_stats.get("data_stall_seconds", 0.0),
                    "data_compute_seconds": train_stats.get("data_compute_seconds", 0.0),
                    "samples_per_sec": train_stats.get("samples_per_sec", 0.0),
                },
            )
            self.history.append(record)
            if verbose:
                logger.info(
                    "epoch %d loss=%.4f val_acc=%s lr=%.4g params=%d "
                    "stall=%.3fs compute=%.3fs (%.1f samples/s)",
                    epoch, record.train_loss,
                    f"{record.val_accuracy:.4f}" if record.val_accuracy is not None else "n/a",
                    record.lr, record.num_parameters,
                    record.extra["data_stall_seconds"],
                    record.extra["data_compute_seconds"],
                    record.extra["samples_per_sec"],
                )

            logs = {"train_loss": record.train_loss, **{f"val_{k}": v for k, v in val_stats.items()}}
            for callback in self.callbacks:
                callback.on_epoch_end(self, epoch, logs)
            if self.scheduler is not None:
                self.scheduler.step()
        for callback in self.callbacks:
            callback.on_train_end(self)
        return self.history

    # ------------------------------------------------------------------ #
    # Utilities
    # ------------------------------------------------------------------ #
    def best_val_accuracy(self) -> float:
        accs = [r.val_accuracy for r in self.history if r.val_accuracy is not None]
        return max(accs) if accs else float("nan")

    def final_val_accuracy(self) -> float:
        accs = [r.val_accuracy for r in self.history if r.val_accuracy is not None]
        return accs[-1] if accs else float("nan")

    def add_grad_hook(self, hook: Callable[[nn.Module], None]) -> None:
        """Compose ``hook`` after any grad hook already installed.

        Callbacks that install gradient hooks at runtime (LC's L-step pull,
        EB-Train's mask enforcement, Cuttlefish's Frobenius decay) must not
        clobber a hook the method contributed through the lifecycle.
        Adding the same hook twice is a no-op, so callbacks firing again on a
        resumed ``fit`` don't stack duplicate copies.
        """
        if hook in self._added_grad_hooks:
            return
        self._added_grad_hooks.append(hook)
        existing = self.grad_hook
        if existing is None:
            self.grad_hook = hook
            return

        def chained(model: nn.Module) -> None:
            existing(model)
            hook(model)

        self.grad_hook = chained

    def rebuild_optimizer_params(self) -> None:
        """Point the optimizer at the model's *current* parameters.

        Called after a structural change (factorization, pruning reset) so
        that stale parameters are dropped and new ones are tracked.
        """
        self.optimizer.set_parameters(self.model.parameters())
