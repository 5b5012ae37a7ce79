"""Per-layer timers for the traced benchmark run, installed from outside.

Nothing under ``src/`` changes.  :class:`Instrumentation` wraps public
functions and methods of ``repro`` with timers that record spans into the
program's own trace session (:mod:`repro.telemetry.tracing`).  Spans that
forked data-parallel replicas record travel back to the parent over the
existing per-rank telemetry pipe, so one session ends up holding every
process's work.  :func:`layer_metrics` then folds the session's spans —
the wrappers' spans plus the spans the program already records under
``--trace`` — into the per-layer metrics named in ``BENCHMARK.json``.

Primitive ops inside ``nn.LayerNorm`` and ``nn.MultiHeadAttention`` have
no op class of their own.  They are tagged by identity when a tagged
module creates them, so compiled-plan replays (which call ``Op.forward``
and ``Op.backward`` directly, with no module on the stack) are still
charged to the right layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

CAT = "perfbench"

#: Spans summed into each per-layer time: the wrappers' own spans (dotted
#: names) and spans the program records itself under ``--trace``.
METRIC_SPANS = {
    "tensor.backward.s": ("tensor.backward",),
    "data.wait.s": ("data_wait",),
    "data.load_batch.s": ("load_batch",),
    "optim.step.s": ("optim.step",),
    "core.profile.s": ("core.profile",),
    "core.rank_track.s": ("core.rank_track",),
    "core.factorize.s": ("core.factorize",),
    "core.svd.s": ("core.svd",),
    "train.eval.s": ("train.eval",),
    "train.project.s": ("train.project",),
    "train.switch.s": ("train.switch",),
    "compile.capture.s": ("compile_capture", "compile_capture_backward"),
    "distributed.allreduce.s": ("allreduce",),
    "distributed.sync_wait.s": ("sync_wait",),
    "distributed.broadcast.s": ("broadcast", "distributed.broadcast"),
    "distributed.fork.s": ("distributed.fork",),
}

#: Op kinds timed at ``Op.forward``/``Op.backward`` (``tensor.<kind>.s``).
OP_KINDS = ("conv2d", "batch_norm", "linear", "attention", "layer_norm")

TRAINING_METRICS = (
    [f"tensor.{kind}.s" for kind in OP_KINDS]
    + ["tensor.conv2d.calls", "tensor.gemm_flops", "tensor.op_calls_per_step"]
    + list(METRIC_SPANS)
    + ["core.svd.calls", "compile.captures", "compile.replays"]
)


class Instrumentation:
    """Timers patched onto ``repro`` for the life of one measured process."""

    def __init__(self):
        self._local = threading.local()
        # id(op) -> (op, kind) for primitive ops created inside a tagged
        # module.  The op is held so its id stays unique while tagged.
        self._op_tags: Dict[int, Tuple[object, str]] = {}
        self.op_calls = 0
        self.gemm_flops = 0.0
        self.steps = 0
        self._shipped = {"calls": 0, "flops": 0.0}

    # ------------------------------------------------------------------ #
    # Patching helpers
    # ------------------------------------------------------------------ #
    def _rebind(self, original: Callable, replacement: Callable) -> None:
        """Point every ``repro`` module-level reference at ``replacement``."""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)

    def _timer(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each outermost call records one span ``name``."""
        from repro.telemetry import tracing

        local = self._local

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            depth = getattr(local, name, 0)
            if depth:
                return fn(*args, **kwargs)
            setattr(local, name, 1)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracing.record_span(name, start, time.perf_counter(), cat=CAT)
                setattr(local, name, 0)

        return timed

    def _time_function(self, name: str, fn: Callable) -> None:
        self._rebind(fn, self._timer(name, fn))

    def _time_methods(self, name: str, classes: Iterable[type], method: str) -> None:
        for cls in classes:
            if method in vars(cls):
                setattr(cls, method, self._timer(name, vars(cls)[method]))

    # ------------------------------------------------------------------ #
    def install(self) -> "Instrumentation":
        from repro.optim import Optimizer
        from repro.telemetry import tracing

        # By module path: several packages re-export a function under its
        # module's name (``repro.core.stable_rank``).
        (compile_step, cuttlefish, factorize, profiler, rank_tracker, stable_rank,
         engine, process, reduce, init, tensor_core, experiments,
         trainer) = [importlib.import_module(f"repro.{name}") for name in (
            "compile.step", "core.cuttlefish", "core.factorize", "core.profiler",
            "core.rank_tracker", "core.stable_rank", "distributed.engine", "distributed.process", "distributed.reduce",
            "nn.init", "tensor.tensor", "train.experiments", "train.trainer")]

        self._time_function("core.svd", factorize.svd_factorize)
        self._time_function("core.svd", stable_rank.singular_values)
        self._time_function("core.svd", init.spectral_init)
        self._time_function("core.profile", profiler.profile_layer_stacks)
        self._time_function("core.factorize", factorize.factorize_model)
        self._time_function("train.project", experiments.projected_training_hours)
        self._time_function("distributed.broadcast", reduce.broadcast_arrays)
        self._time_function("distributed.broadcast", reduce.mean_reduce_buffers)
        self._time_methods("core.rank_track", [rank_tracker.RankTracker], "update")
        self._time_methods("core.rank_track", [rank_tracker.RankTracker], "select_ranks")
        self._time_methods("train.eval", [trainer.Trainer], "evaluate")
        self._time_methods("train.switch", [cuttlefish.CuttlefishCallback], "on_epoch_end")
        self._time_methods("distributed.fork", [process.ProcessReplicaGroup], "__init__")
        self._time_methods("optim.step", _subclasses(Optimizer), "step")
        self._time_methods("tensor.backward", [tensor_core.Tensor], "backward")
        self._time_methods("tensor.backward", _subclasses(compile_step.StepHandle), "backward")
        self._install_op_timers()
        self._install_epoch_counters([trainer.Trainer, engine.DataParallelTrainer])
        self._install_counter_flush(tracing.TraceSession)
        return self

    # ------------------------------------------------------------------ #
    # tensor.<kind>: op timers
    # ------------------------------------------------------------------ #
    def _install_op_timers(self) -> None:
        from repro import nn
        from repro.telemetry import tracing
        from repro.tensor.ops import Op

        F = importlib.import_module("repro.tensor.functional")
        tensor_core = importlib.import_module("repro.tensor.tensor")

        class_kinds = {F.Conv2dOp: "conv2d", F.BatchNorm2dOp: "batch_norm",
                       F.LinearActOp: "linear", F.AttentionWeightsOp: "attention"}
        op_tags = self._op_tags
        module_stack: List[str] = []

        def kind_of(op) -> Optional[str]:
            kind = class_kinds.get(type(op))
            if kind is None:
                tagged = op_tags.get(id(op))
                if tagged is not None and tagged[0] is op:
                    kind = tagged[1]
            return kind

        def op_timer(fn: Callable, phase: str) -> Callable:
            @functools.wraps(fn)
            def timed(op, *args):
                kind = kind_of(op)
                if kind is None:
                    return fn(op, *args)
                start = time.perf_counter()
                try:
                    return fn(op, *args)
                finally:
                    tracing.record_span(f"tensor.{kind}.{phase}", start,
                                        time.perf_counter(), cat=CAT)
            return timed

        for cls in _subclasses(Op):
            for phase in ("forward", "backward"):
                if phase in vars(cls):
                    setattr(cls, phase, op_timer(vars(cls)[phase], phase))

        original_apply = tensor_core.apply_op

        def apply_op(op, *inputs):
            if module_stack and type(op) not in class_kinds:
                op_tags[id(op)] = (op, module_stack[-1])
            return original_apply(op, *inputs)

        self._rebind(original_apply, apply_op)

        def module_tag(kind: str, fn: Callable) -> Callable:
            @functools.wraps(fn)
            def tagged(module, *args, **kwargs):
                module_stack.append(kind)
                try:
                    return fn(module, *args, **kwargs)
                finally:
                    module_stack.pop()
            return tagged

        setattr(nn.LayerNorm, "forward", module_tag("layer_norm", nn.LayerNorm.forward))
        setattr(nn.MultiHeadAttention, "forward",
                  module_tag("attention", nn.MultiHeadAttention.forward))

    def forget_dead_ops(self) -> None:
        """Drop tags of ops that nothing but the tag table still holds."""
        dead = [key for key, (op, _) in self._op_tags.items()
                if sys.getrefcount(op) <= 3]
        for key in dead:
            del self._op_tags[key]

    # ------------------------------------------------------------------ #
    # Epoch boundaries and op counters
    # ------------------------------------------------------------------ #
    def _install_epoch_counters(self, classes: Iterable[type]) -> None:
        """Count the op calls, FLOPs and steps of the training epochs."""
        from repro.profiling import op_counters

        shipped = self._shipped

        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def train_epoch(trainer):
                self.forget_dead_ops()
                calls, flops = _counter_totals(op_counters)
                # Replicas forked inside this epoch inherit these counts;
                # they ship only what they add (see _install_counter_flush).
                shipped["calls"], shipped["flops"] = calls, flops
                logs = fn(trainer)
                stats = trainer.last_epoch_pipeline_stats
                self.steps += stats.batches // getattr(trainer, "world_size", 1)
                after_calls, after_flops = _counter_totals(op_counters)
                self.op_calls += after_calls - calls
                self.gemm_flops += after_flops - flops
                return logs
            return train_epoch

        for cls in classes:
            setattr(cls, "train_epoch", wrap(vars(cls)["train_epoch"]))

    def _install_counter_flush(self, session_cls: type) -> None:
        """Forked replicas ship their op-counter growth with their spans."""
        from repro.profiling import op_counters
        from repro.telemetry import tracing

        original = session_cls.drain_payload
        shipped = self._shipped

        def drain_payload(session):
            calls, flops = _counter_totals(op_counters)
            now = time.perf_counter()
            tracing.record_span("replica.op_counters", now, now, cat=CAT,
                                calls=calls - shipped["calls"],
                                flops=flops - shipped["flops"])
            shipped["calls"], shipped["flops"] = calls, flops
            return original(session)

        setattr(session_cls, "drain_payload", drain_payload)


def _counter_totals(op_counters: Callable) -> Tuple[int, float]:
    counts = op_counters().values()
    return sum(c.calls for c in counts), sum(c.flops for c in counts)


def _subclasses(root: type) -> List[type]:
    found, stack = [], [root]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


# --------------------------------------------------------------------------- #
# Folding spans into metrics
# --------------------------------------------------------------------------- #
def layer_metrics(events: List[dict], instrumentation: Instrumentation) -> Dict[str, float]:
    """Per-layer metrics of one traced training run from its span events.

    ``events`` are :meth:`TraceSession.event_dicts` records.  Times are in
    seconds, summed over every process of the run.
    """
    seconds: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    replica_calls, replica_flops = 0, 0.0
    for event in events:
        name = event["name"]
        seconds[name] = seconds.get(name, 0.0) + event["dur_us"] / 1e6
        counts[name] = counts.get(name, 0) + 1
        if name == "replica.op_counters":
            replica_calls += event["args"]["calls"]
            replica_flops += event["args"]["flops"]

    metrics = {metric: sum(seconds.get(span, 0.0) for span in spans)
               for metric, spans in METRIC_SPANS.items()}
    for kind in OP_KINDS:
        metrics[f"tensor.{kind}.s"] = (seconds.get(f"tensor.{kind}.forward", 0.0)
                                       + seconds.get(f"tensor.{kind}.backward", 0.0))
    metrics["tensor.conv2d.calls"] = counts.get("tensor.conv2d.forward", 0)
    metrics["core.svd.calls"] = counts.get("core.svd", 0)
    metrics["compile.captures"] = counts.get("compile_capture", 0)
    metrics["compile.replays"] = counts.get("replay_forward", 0)
    op_calls = instrumentation.op_calls + replica_calls
    metrics["tensor.gemm_flops"] = instrumentation.gemm_flops + replica_flops
    metrics["tensor.op_calls_per_step"] = op_calls / max(instrumentation.steps, 1)
    return metrics


def busy_by_phase(events: List[dict], phases: Dict[str, Tuple[float, float]],
                  base_ns: int) -> Dict[str, Dict[str, float]]:
    """Seconds each span name was busy inside each phase window.

    ``phases`` maps a phase name to its ``(start, end)`` in
    ``time.perf_counter()`` seconds; ``base_ns`` is the session's start
    stamp, which event offsets are relative to.
    """
    out: Dict[str, Dict[str, float]] = {phase: {} for phase in phases}
    for event in events:
        if not event["dur_us"]:
            continue
        start = (base_ns / 1e9) + event["ts_us"] / 1e6
        end = start + event["dur_us"] / 1e6
        for phase, (lo, hi) in phases.items():
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                bucket = out[phase]
                bucket[event["name"]] = bucket.get(event["name"], 0.0) + overlap
    return out


def uncovered_share(events: List[dict], window: Tuple[float, float], base_ns: int,
                    names: Iterable[str]) -> float:
    """Share of ``window`` that no span in ``names`` covers, in any process
    (0 for windows under a millisecond, which no timer resolves)."""
    wanted = set(names)
    lo, hi = window
    if hi - lo < 1e-3:
        return 0.0
    intervals = []
    for event in events:
        if event["name"] not in wanted or not event["dur_us"]:
            continue
        begin = base_ns / 1e9 + event["ts_us"] / 1e6
        start, end = max(begin, lo), min(begin + event["dur_us"] / 1e6, hi)
        if end > start:
            intervals.append((start, end))
    intervals.sort()
    covered, reach = 0.0, lo
    for start, end in intervals:
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return max(0.0, 1.0 - covered / (hi - lo))
