"""One repetition of a training workload, in a process of its own.

``run.py`` starts this script once per repetition, passing the
``time.perf_counter()`` stamp it took just before the start, so set-up time
runs from process start (CLOCK_MONOTONIC is shared by every process).  The
last line of standard output is one JSON record of what the run measured
and what it produced; ``run.py`` checks and aggregates the records.

Usage::

    python3 perfbench/train_cell.py --workload train-resnet --seed 0 \
        --spawned <perf_counter> [--trace] [--export DIR]
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import CuttlefishConfig, train_cuttlefish
from repro.data import DataLoader, make_vision_task
from repro.distributed import DataParallelTrainer
from repro.models import deit_micro
from repro.optim import SGD, Adam, AdamW
from repro.telemetry import tracing
from repro.tensor import set_backend
from repro.train import Trainer
from repro.train import trainer as trainer_module
from repro.train.experiments import ExperimentSpec, VisionExperimentConfig, run_experiment
from repro.utils import get_rng, seed_everything
from stats import median, tail

#: Epochs per Cuttlefish run.  The method's default switch bound is
#: ``max(epochs // 2, 2)`` full-rank epochs.
RESNET_EPOCHS = 6
DEIT_EPOCHS = 6

#: The ``repro train`` defaults for the ResNet-18 x0.125 cell.
RESNET_CELL = dict(task="cifar10_small", model="resnet18", width_mult=0.125,
                   epochs=RESNET_EPOCHS, batch_size=32, peak_lr=0.3,
                   weight_decay=5e-3, loader="pipeline")

WORKLOADS = ("train-resnet", "train-deit", "train-dp")


class PhaseClock:
    """Epoch, step, evaluation-batch and ``fit`` boundaries, taken by
    wrapping the trainers, the optimizers (one optimizer step ends each
    training step, in the single-process trainer and in the data-parallel
    parent alike) and the trainers' default evaluation forward."""

    def __init__(self):
        self.epochs: List[Tuple[float, float, int]] = []   # (start, end, samples)
        self.step_ends: List[float] = []
        self.eval_batches: List[float] = []                 # seconds
        self.fit_end: Optional[float] = None
        self._in_step = False

    def install(self) -> None:
        clock = self

        def wrap_epoch(fn):
            @functools.wraps(fn)
            def train_epoch(trainer):
                start = time.perf_counter()
                logs = fn(trainer)
                clock.epochs.append((start, time.perf_counter(),
                                     trainer.last_epoch_pipeline_stats.samples))
                return logs
            return train_epoch

        def wrap_step(fn):
            @functools.wraps(fn)
            def step(optimizer):
                if clock._in_step:          # Adam.step -> AdamW.step
                    return fn(optimizer)
                clock._in_step = True
                try:
                    return fn(optimizer)
                finally:
                    clock._in_step = False
                    clock.step_ends.append(time.perf_counter())
            return step

        def wrap_fit(fn):
            @functools.wraps(fn)
            def fit(trainer, *args, **kwargs):
                try:
                    return fn(trainer, *args, **kwargs)
                finally:
                    clock.fit_end = time.perf_counter()
            return fit

        def wrap_forward(fn):
            @functools.wraps(fn)
            def forward(model, batch):
                start = time.perf_counter()
                logits = fn(model, batch)
                clock.eval_batches.append(time.perf_counter() - start)
                return logits
            return forward

        trainer_module.default_forward_fn = wrap_forward(trainer_module.default_forward_fn)
        for cls in (Trainer, DataParallelTrainer):
            cls.train_epoch = wrap_epoch(vars(cls)["train_epoch"])
        for cls in (SGD, AdamW, Adam):
            cls.step = wrap_step(vars(cls)["step"])
        Trainer.fit = wrap_fit(Trainer.fit)

    def steps(self, epochs: List[Tuple[float, float, int]]) -> List[Tuple[float, float]]:
        """``(seconds, samples)`` of every step of ``epochs``: the time from
        the previous step's end (or the epoch's start) to this step's end."""
        out = []
        for start, end, samples in epochs:
            ends = [t for t in self.step_ends if start < t <= end]
            previous = start
            for t in ends:
                out.append((t - previous, samples / len(ends)))
                previous = t
        return out


def phase_rate(epochs: List[Tuple[float, float, int]]) -> float:
    """Samples per second over a phase's epochs."""
    seconds = sum(end - start for start, end, _ in epochs)
    return sum(samples for _, _, samples in epochs) / seconds if seconds > 0 else 0.0


# --------------------------------------------------------------------------- #
# The workloads
# --------------------------------------------------------------------------- #
def run_resnet(seed: int, world_size: int = 1, dp_mode: str = "thread") -> Dict:
    """The ``repro train --method cuttlefish`` path on the ResNet cell."""
    set_backend("numpy-fast")
    config = VisionExperimentConfig(**RESNET_CELL, seed=seed,
                                    world_size=world_size, dp_mode=dp_mode)
    row, context = run_experiment(ExperimentSpec(method="cuttlefish", config=config),
                                  return_context=True)
    return {
        "val_accuracy": row.val_accuracy,
        "compression_ratio": row.extra["compression"],
        "switch_epoch": int(row.extra["switch_epoch"]),
        "k_hat": int(row.extra["k_hat"]),
        "losses": [record.train_loss for record in context.trainer.history],
        "model": context.model,
        "image_size": context.task_spec.image_size,
        "num_classes": context.task_spec.num_classes,
        # CuttlefishMethod's default switch bounds.
        "epochs_planned": RESNET_EPOCHS,
        "switch_bounds": (2, max(RESNET_EPOCHS // 2, 2)),
    }


def run_deit(seed: int) -> Dict:
    """The Table 3 transformer recipe (AdamW, rho = 1/2, no profiling)."""
    set_backend("numpy-compiled")
    seed_everything(seed)
    train_ds, val_ds, spec = make_vision_task("imagenet_small")
    train_loader = DataLoader(train_ds, batch_size=32, shuffle=True)
    val_loader = DataLoader(val_ds, batch_size=128)
    model = deit_micro(image_size=spec.image_size, num_classes=spec.num_classes,
                       depth=4, embed_dim=64, num_heads=4)
    config = CuttlefishConfig(min_full_rank_epochs=2, max_full_rank_epochs=DEIT_EPOCHS // 2,
                              profile_mode="none", rank_ratio_override=0.5,
                              lr_decay_on_switch=1.0)
    trainer, manager = train_cuttlefish(
        model, AdamW(model.parameters(), lr=1e-3, weight_decay=0.05),
        train_loader, val_loader, epochs=DEIT_EPOCHS, config=config)
    report = manager.report
    return {
        "val_accuracy": trainer.final_val_accuracy(),
        "compression_ratio": report.compression_ratio,
        "switch_epoch": int(report.switch_epoch or -1),
        "k_hat": int(report.k_hat or -1),
        "losses": [record.train_loss for record in trainer.history],
        "model": model,
        "epochs_planned": DEIT_EPOCHS,
        "switch_bounds": (config.min_full_rank_epochs, config.max_full_rank_epochs),
    }


def run_workload(name: str, seed: int) -> Dict:
    if name == "train-resnet":
        return run_resnet(seed)
    if name == "train-dp":
        return run_resnet(seed, world_size=2, dp_mode="process")
    if name == "train-deit":
        return run_deit(seed)
    raise ValueError(f"unknown training workload {name!r}; choose from {WORKLOADS}")


def export(directory: str, result: Dict) -> None:
    """Write the trained model as two serving artifacts: ``low_rank.npz``
    (factorized, as Cuttlefish left it) and ``full_rank.npz`` (its factors
    merged back into dense layers, the baseline it is compared with)."""
    from repro.core import merge_factorized
    from repro.serve import export_artifact

    shape = (3, result["image_size"], result["image_size"])
    example = get_rng(offset=99).standard_normal((32,) + shape).astype(np.float32)
    spec = {"name": "resnet18",
            "kwargs": {"num_classes": result["num_classes"],
                       "width_mult": RESNET_CELL["width_mult"], "small_input": True}}
    model = result["model"]
    for variant in ("low_rank", "full_rank"):
        if variant == "full_rank":
            merge_factorized(model)
        export_artifact(os.path.join(directory, f"{variant}.npz"), model,
                        model_spec=spec, input_shape=shape, example_batch=example,
                        metadata={"method": "cuttlefish", "variant": variant})


# --------------------------------------------------------------------------- #
def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, spawned: float, traced: bool,
            export_path: Optional[str] = None) -> Dict:
    clock = PhaseClock()
    clock.install()
    instrumentation = None
    imported = time.perf_counter()
    if traced:
        from layers import Instrumentation

        instrumentation = Instrumentation().install()
        tracing.enable("perfbench")
    try:
        result = run_workload(name, seed)
        end = time.perf_counter()
    finally:
        session = tracing.disable() if traced else None

    switch = result["switch_epoch"]
    epochs = clock.epochs
    full, low = epochs[:max(switch, 0)], epochs[max(switch, 0):]
    step_ms = [1e3 * seconds for seconds, _ in clock.steps(epochs)]
    eval_ms = [1e3 * seconds for seconds in clock.eval_batches]
    record = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "metrics": {
            "setup_s": epochs[0][0] - spawned,
            "wall_s": end - spawned,
            "full_rank_samples_per_s": phase_rate(full),
            "low_rank_samples_per_s": phase_rate(low),
            "peak_rss_mb": _peak_rss_mb(),
        },
        "latency_ms": {"light": (median(eval_ms),) + tail(eval_ms),
                       "heavy": (median(step_ms),) + tail(step_ms)},
        "outputs": {
            "val_accuracy": result["val_accuracy"],
            "compression_ratio": result["compression_ratio"],
            "switch_epoch": switch,
            "k_hat": result["k_hat"],
            "losses_finite": all(math.isfinite(loss) for loss in result["losses"]),
            "epochs": len(epochs),
            "epochs_planned": result["epochs_planned"],
            "min_switch": result["switch_bounds"][0],
            "max_switch": result["switch_bounds"][1],
            "steps": len(step_ms),
        },
    }
    if session is not None:
        from layers import busy_by_phase, layer_metrics, uncovered_share

        phases = {
            "setup": (spawned, epochs[0][0]),
            "full_rank": (epochs[0][0], low[0][0] if low else clock.fit_end),
            "low_rank": (low[0][0] if low else clock.fit_end, clock.fit_end),
            "post": (clock.fit_end, end),
        }
        session.record("process.start", "perfbench", int(spawned * 1e9),
                       int((imported - spawned) * 1e9), 0, None, None)
        events = session.event_dicts()
        busy = busy_by_phase(events, phases, session.started_ns)
        layer_spans = {event["name"] for event in events} - STRUCTURAL_SPANS
        metrics = layer_metrics(events, instrumentation)
        metrics["process.start.s"] = imported - spawned
        for phase, window in phases.items():
            metrics[f"coverage.{phase}.uncovered"] = uncovered_share(
                events, window, session.started_ns, layer_spans)
        record["layers"] = metrics
        record["busy"] = {phase: {span: seconds for span, seconds in spans.items()
                                  if span in layer_spans}
                          for phase, spans in busy.items()}
        record["phase_s"] = {phase: hi - lo for phase, (lo, hi) in phases.items()}
    if export_path:
        export(export_path, result)
    return record


#: Spans the trainers record around whole steps and epochs; they hold the
#: layer spans, so they are left out when asking what the layers cover.
STRUCTURAL_SPANS = {"step", "forward", "backward", "optimizer", "accounting",
                    "train_epoch", "eval", "replica.op_counters"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.perf_counter() of the parent just before the start")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--export", default=None, metavar="DIR",
                        help="write low_rank.npz and full_rank.npz serving artifacts here")
    args = parser.parse_args(argv)
    record = measure(args.workload, args.seed, args.spawned, args.trace, args.export)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
