"""Command-line interface for the Cuttlefish reproduction.

Ten subcommands cover the workflows a downstream user needs without writing
Python:

* ``train``    — train one registered method on a synthetic task and print
  its comparison-table row; optionally save a checkpoint or export a serving
  artifact of the trained model.
* ``compare``  — run several methods on the same task/budget and print the
  paper-style comparison table (Table 1 / 2 / 19 format).
* ``list-methods`` — print every method in the unified registry with its
  one-line description.
* ``profile``  — run Algorithm 2 (the K̂ decision) on a paper-scale model under
  the GPU roofline and print the per-stack speedup table (Figure 4).
* ``rank-trace`` — train briefly while recording per-layer stable ranks and
  print the trajectory table behind Figures 2/3.
* ``export``   — convert a training checkpoint of one of the four image
  models into a versioned serving artifact (low-rank factors stay
  factorized; optionally densify).
* ``serve``    — boot the micro-batching HTTP inference server on an
  exported artifact (``/predict``, ``/healthz``, ``/metrics``).
* ``bench-serve`` — closed-loop load test of an artifact: dynamic
  micro-batching vs batch-size-1 serving, JSON results.
* ``bench``    — the unified perf-regression harness (``repro.bench``):
  ``bench run`` executes a registered suite with warmup/iters/repeat knobs
  and emits the versioned results contract, ``bench compare`` renders a
  noise-aware base-vs-candidate markdown verdict table (nonzero exit on
  regression), ``bench history`` views the longitudinal JSONL store, and
  ``bench list`` enumerates registered suites.
* ``trace``    — inspect span timelines recorded as Chrome trace-event JSON
  with ``--trace PATH`` (available on ``train`` / ``compare`` / ``serve`` /
  ``bench-serve``): ``trace summary`` prints per-phase totals and step
  coverage.

``train`` and ``compare`` accept any method registered with
``repro.train.methods.register_method`` — including ones a downstream user
registers in their own code before calling :func:`main`.

Examples
--------
::

    repro-cuttlefish train --method cuttlefish --epochs 8 --export model.npz
    repro-cuttlefish compare --methods full_rank pufferfish cuttlefish --epochs 8
    repro-cuttlefish export --checkpoint ckpt.npz --model resnet18 --output model.npz
    repro-cuttlefish serve --artifact model.npz --port 8080 --max-batch-size 32
    repro-cuttlefish bench-serve --artifact model.npz --duration 5
    repro-cuttlefish profile --model resnet18 --device v100 --batch-size 1024
    repro-cuttlefish rank-trace --model vgg19 --epochs 6
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from repro import nn
from repro.core import CuttlefishConfig, RankTracker, profile_layer_stacks
from repro.data import PipelineLoader, make_vision_task
from repro.models import build_model
from repro.optim import SGD, build_paper_cifar_schedule
from repro.profiling import DEVICES, get_device
from repro.tensor import available_backends, set_backend
from repro.train.experiments import (
    ExperimentRow,
    ExperimentSpec,
    VisionExperimentConfig,
    format_rows,
    run_experiment,
)
from repro.train.methods import available_methods, method_descriptions
from repro.train.trainer import Trainer
from repro.utils import get_rng, seed_everything


def _check_backend_name(name) -> None:
    """Loud :class:`ValueError` for unknown backend names.

    Most ``--backend`` flags are argparse-validated via ``choices``; paths
    that accept a free-form override (``bench run``) route through this so a
    typo reports the registered names instead of surfacing as a bare
    ``KeyError`` from the backend registry mid-run.
    """
    if name is not None and name not in available_backends():
        raise ValueError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(available_backends())}"
        )


def _checked(convert, accept, requirement: str):
    """An argparse ``type`` that converts with ``convert`` and rejects values
    ``accept`` refuses, so a bad flag is a usage error (exit 2) naming it."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    return parse


_positive_int = _checked(int, lambda value: value > 0, "a positive integer")

#: Models ``train``, ``compare``, ``rank-trace`` and ``export`` build: the
#: harness and ``export``'s fallback spec pass ``width_mult``, which only
#: these take.
_IMAGE_MODELS = ("resnet18", "resnet50", "vgg19", "wide_resnet50_2")
#: Models ``profile`` can build and trace on one image batch.  The patch
#: models fix their token grid at construction, so they are built at
#: ``--image-size``.  ``bert_*`` (token input) and ``mlp`` (constructor
#: arguments) are not offered.
_PATCH_MODELS = ("deit_base", "deit_micro", "deit_small", "deit_tiny",
                 "resmlp_micro", "resmlp_s24", "resmlp_s36")
_PROFILE_MODELS = sorted(_PATCH_MODELS + _IMAGE_MODELS)


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cuttlefish",
        description="Cuttlefish (MLSys 2023) reproduction — automated low-rank training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--task", default="cifar10_small",
                       help="synthetic task name (see repro.data.VISION_TASKS)")
        p.add_argument("--model", default="resnet18", choices=_IMAGE_MODELS)
        p.add_argument("--epochs", type=_positive_int, default=10)
        p.add_argument("--batch-size", type=_positive_int, default=32)
        p.add_argument("--width-mult", type=float, default=0.125,
                       help="channel-width multiplier for the reduced-scale model")
        p.add_argument("--lr", type=float, default=0.3)
        p.add_argument("--weight-decay", type=float, default=5e-3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-batches", type=_positive_int, default=None,
                       help="cap the number of batches per epoch (smoke tests)")
        p.add_argument("--backend", default="numpy", choices=available_backends(),
                       help="tensor execution backend (numpy-fast pools buffers "
                            "and fuses hot-path kernels; identical results)")
        p.add_argument("--world-size", type=_positive_int, default=1, metavar="N",
                       help="data-parallel replicas: N forked workers train "
                            "on ShardedSampler shards with a deterministic "
                            "gradient all-reduce and Goyal lr scaling "
                            "(results are bit-stable across reruns)")
        p.add_argument("--no-lr-scaling", action="store_true",
                       help="disable the Goyal world_size x lr scaling rule "
                            "under --world-size > 1")
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="record a span timeline of the run as Chrome "
                            "trace-event JSON (Perfetto-loadable)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    methods = available_methods()

    train = sub.add_parser("train", help="train one method and print its result row")
    add_budget_args(train)
    train.add_argument("--method", default="cuttlefish", choices=methods)
    train.add_argument("--save-checkpoint", default=None, metavar="PATH",
                       help="write a training checkpoint of the trained model")
    train.add_argument("--export", default=None, metavar="PATH",
                       help="export the trained model as a serving artifact")

    compare = sub.add_parser("compare", help="run several methods on the same budget")
    add_budget_args(compare)
    compare.add_argument("--methods", nargs="+", default=["full_rank", "cuttlefish"],
                         choices=methods)

    list_methods = sub.add_parser("list-methods",
                                  help="list every registered training method")
    list_methods.add_argument("--json", action="store_true")

    profile = sub.add_parser("profile", help="Algorithm 2: per-stack speedup table (Figure 4)")
    profile.add_argument("--model", default="resnet18", choices=_PROFILE_MODELS)
    profile.add_argument("--num-classes", type=_positive_int, default=10)
    profile.add_argument("--device", default="v100", type=str.lower, choices=sorted(DEVICES))
    profile.add_argument("--batch-size", type=_positive_int, default=1024,
                         help="batch size at which the roofline is evaluated")
    profile.add_argument("--rank-ratio", default=0.25, help="probe rank ratio ρ̄, in (0, 1]",
                         type=_checked(float, lambda value: 0 < value <= 1, "in (0, 1]"))
    profile.add_argument("--speedup-threshold", default=1.5, help="υ, > 0",
                         type=_checked(float, lambda value: value > 0, "> 0"))
    profile.add_argument("--image-size", type=_positive_int, default=32)
    profile.add_argument("--json", action="store_true")

    export = sub.add_parser("export", help="convert a checkpoint into a serving artifact")
    export.add_argument("--checkpoint", required=True, help="checkpoint written by save_checkpoint")
    export.add_argument("--output", required=True, help="artifact destination (.npz)")
    export.add_argument("--model", default="resnet18", choices=_IMAGE_MODELS)
    export.add_argument("--num-classes", type=int, default=10)
    export.add_argument("--width-mult", type=float, default=0.125)
    export.add_argument("--input-shape", type=int, nargs="+", default=None,
                        help="per-sample input shape recorded in the manifest "
                             "(default: the shape stored in the checkpoint, else 3 32 32)")
    export.add_argument("--dense", action="store_true",
                        help="merge low-rank factors into dense layers before export "
                             "(the baseline the factorized artifact is compared against)")
    export.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser("serve", help="serve an artifact over HTTP with micro-batching")
    serve.add_argument("--artifact", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--backend", default=None, choices=available_backends(),
                       help="tensor backend for inference (default: current)")
    serve.add_argument("--max-batch-size", type=int, default=32)
    serve.add_argument("--max-wait-ms", type=float, default=2.0)
    serve.add_argument("--max-queue", type=int, default=256)
    serve.add_argument("--workers", type=int, default=1,
                       help="predictor-pool size (replicated inference workers)")
    serve.add_argument("--mode", default="thread", choices=["thread", "process"],
                       help="pool execution mode: worker threads, or forked "
                            "children over shared memory")
    serve.add_argument("--admission", default="reject",
                       choices=["reject", "priority"],
                       help="admission policy when the request queue is full")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="record request/batch/inference spans; the trace "
                            "is written when the server shuts down")

    bench_serve = sub.add_parser("bench-serve",
                                 help="closed-loop load test: micro-batching vs batch-1")
    bench_serve.add_argument("--artifact", required=True)
    bench_serve.add_argument("--duration", type=float, default=3.0, help="seconds per config")
    bench_serve.add_argument("--concurrency", type=int, default=32)
    bench_serve.add_argument("--max-batch-size", type=int, default=32)
    bench_serve.add_argument("--max-wait-ms", type=float, default=2.0)
    bench_serve.add_argument("--transports", nargs="+", default=["engine", "http"],
                             choices=["engine", "http"])
    bench_serve.add_argument("--workers", type=int, default=1,
                             help="predictor-pool size for the batched policy")
    bench_serve.add_argument("--mode", default="thread",
                             choices=["thread", "process"],
                             help="pool execution mode for the batched policy")
    bench_serve.add_argument("--backend", default=None, choices=available_backends())
    bench_serve.add_argument("--trace", default=None, metavar="PATH",
                             help="record serve-path spans across the load test")

    bench = sub.add_parser("bench",
                           help="perf-regression harness: run/compare/history/list")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run", help="run one registered suite and emit the results contract")
    bench_run.add_argument("--suite", required=True,
                           help="registered suite name (see `bench list`)")
    bench_run.add_argument("--tiny", action="store_true",
                           help="CI smoke budget per measurement")
    bench_run.add_argument("--warmup", type=int, default=1,
                           help="discarded warmup executions of the suite body")
    bench_run.add_argument("--repeat", type=int, default=3,
                           help="measured repeats feeding the median/IQR noise model")
    bench_run.add_argument("--iters", type=int, default=None,
                           help="timed inner-loop size (suite-specific; overrides "
                                "the tiny/full default)")
    bench_run.add_argument("--backend", default=None,
                           help="tensor backend override for backend-aware suites")
    bench_run.add_argument("--out", default=None, metavar="DIR",
                           help="output directory (default benchmarks/output)")
    bench_run.add_argument("--json-path", default=None,
                           help="results-contract destination "
                                "(default <out>/<suite>.bench.json)")
    bench_run.add_argument("--history-path", default=None,
                           help="longitudinal JSONL store "
                                "(default <out>/history.jsonl)")
    bench_run.add_argument("--no-history", action="store_true",
                           help="skip appending to the longitudinal store")
    bench_run.add_argument("--json", action="store_true",
                           help="print the results document to stdout instead "
                                "of the summary table")

    bench_compare = bench_sub.add_parser(
        "compare", help="noise-aware verdict table for two results documents")
    bench_compare.add_argument("base", help="baseline results JSON")
    bench_compare.add_argument("candidate", help="candidate results JSON")
    bench_compare.add_argument("--noise-threshold", type=float, default=0.1,
                               metavar="FRAC",
                               help="relative-change floor below which a delta "
                                    "is within-noise (default 0.1 = 10%%)")
    bench_compare.add_argument("--no-noise-aware", action="store_true",
                               help="ignore measured per-metric IQR; use only "
                                    "--noise-threshold")
    bench_compare.add_argument("--json", action="store_true",
                               help="emit the verdict report as JSON")

    bench_history = bench_sub.add_parser(
        "history", help="view the longitudinal benchmark store")
    bench_history.add_argument("--store", default=None,
                               help="JSONL store path (default benchmarks/output/"
                                    "history.jsonl)")
    bench_history.add_argument("--suite", default=None, help="filter by suite")
    bench_history.add_argument("--metric", default=None, help="filter by metric")
    bench_history.add_argument("--last", type=int, default=None, metavar="N",
                               help="show only the newest N matching entries")
    bench_history.add_argument("--json", action="store_true")

    bench_list = bench_sub.add_parser("list", help="list registered suites")
    bench_list.add_argument("--json", action="store_true")

    trace_cmd = sub.add_parser("trace", help="inspect recorded span timelines")
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary", help="per-phase totals, lane census, and step coverage")
    trace_summary.add_argument("path", help="trace written by --trace")
    trace_summary.add_argument("--json", action="store_true")

    trace = sub.add_parser("rank-trace", help="per-layer stable-rank trajectories (Figure 2/3)")
    trace.add_argument("--task", default="cifar10_small")
    trace.add_argument("--model", default="resnet18", choices=_IMAGE_MODELS)
    trace.add_argument("--epochs", type=_positive_int, default=6)
    trace.add_argument("--batch-size", type=_positive_int, default=32)
    trace.add_argument("--width-mult", type=float, default=0.125)
    trace.add_argument("--lr", type=float, default=0.3)
    trace.add_argument("--weight-decay", type=float, default=5e-3)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--json", action="store_true")
    return parser


def _experiment_config(args: argparse.Namespace) -> VisionExperimentConfig:
    return VisionExperimentConfig(
        task=args.task,
        model=args.model,
        width_mult=args.width_mult,
        epochs=args.epochs,
        batch_size=args.batch_size,
        peak_lr=args.lr,
        weight_decay=args.weight_decay,
        seed=args.seed,
        max_batches_per_epoch=args.max_batches,
        world_size=args.world_size,
        dp_lr_scaling=not args.no_lr_scaling,
    )


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #
def _start_trace(args: argparse.Namespace, label: str) -> bool:
    """Begin a span-recording session when the command got ``--trace PATH``."""
    if getattr(args, "trace", None):
        from repro.telemetry import tracing

        tracing.enable(label)
        return True
    return False


def _finish_trace(args: argparse.Namespace, out) -> None:
    """Stop recording and write the trace file named by ``--trace``."""
    from repro.telemetry import tracing

    session = tracing.disable()
    if session is not None:
        spans = tracing.write_trace(args.trace, session)
        out.write(f"trace: {spans} spans written to {args.trace}\n")


def _emit_rows(rows: List[ExperimentRow], as_json: bool, stream) -> None:
    if as_json:
        json.dump([row.as_dict() for row in rows], stream, indent=2, default=float)
        stream.write("\n")
    else:
        stream.write(format_rows(rows) + "\n")


def _model_spec(args: argparse.Namespace, num_classes: int) -> dict:
    """JSON-serialisable build_model spec for the trained architecture."""
    kwargs = {"num_classes": num_classes, "width_mult": args.width_mult}
    if args.model in ("resnet18", "resnet50", "wide_resnet50_2"):
        kwargs["small_input"] = True
    return {"name": args.model, "kwargs": kwargs}


def cmd_train(args: argparse.Namespace, stream=sys.stdout) -> int:
    set_backend(args.backend)
    config = _experiment_config(args)
    spec = ExperimentSpec(method=args.method, config=config)
    traced = _start_trace(args, "trainer")
    try:
        row, context = run_experiment(spec, return_context=True)
    finally:
        if traced:
            # With --json the trace line would corrupt the stdout payload.
            _finish_trace(args, sys.stderr if args.json else stream)
    _emit_rows([row], args.json, stream)
    stats = context.trainer.pipeline_stats
    # With --json the stats line would corrupt the machine-readable
    # stdout payload — send it to stderr there instead.
    out = sys.stderr if args.json else stream
    out.write(f"pipeline: {stats.describe()} (world_size={config.world_size})\n")
    wall = stats.extra.get("wall_seconds", 0.0)
    if config.world_size > 1 and wall > 0:
        # describe()'s samples/sec divides by summed per-replica worker
        # time; replicas overlap, so wall-clock throughput is the honest
        # data-parallel number.
        out.write(f"data-parallel throughput: {stats.samples / wall:.1f} "
                  f"samples/s over {wall:.3f}s wall\n")
    last = context.trainer.last_epoch_pipeline_stats
    if config.world_size > 1 and last is not None:
        per_replica = " ".join(
            f"r{rank}={last.extra.get(f'replica{rank}_stall_seconds', 0.0):.3f}s"
            f"/{last.extra.get(f'replica{rank}_compute_seconds', 0.0):.3f}s"
            for rank in range(config.world_size))
        out.write(f"replicas (stall/compute, last epoch): {per_replica}\n")
    if args.save_checkpoint:
        from repro.utils import save_checkpoint

        save_checkpoint(
            args.save_checkpoint, context.model,
            metadata={
                "method": args.method,
                "val_accuracy": row.val_accuracy,
                "model_spec": _model_spec(args, context.task_spec.num_classes),
                "input_shape": [3, context.task_spec.image_size, context.task_spec.image_size],
            })
        stream.write(f"checkpoint written to {args.save_checkpoint}\n")
    if args.export:
        from repro.serve import export_artifact

        shape = (3, context.task_spec.image_size, context.task_spec.image_size)
        example = get_rng(offset=99).standard_normal((8,) + shape).astype(np.float32)
        manifest = export_artifact(
            args.export, context.model,
            model_spec=_model_spec(args, context.task_spec.num_classes),
            input_shape=shape,
            metadata={"method": args.method, "val_accuracy": row.val_accuracy},
            example_batch=example,
        )
        stream.write(f"artifact written to {args.export} "
                     f"(batch_invariant={manifest.get('batch_invariant')})\n")
    return 0


def cmd_compare(args: argparse.Namespace, stream=sys.stdout) -> int:
    set_backend(args.backend)
    traced = _start_trace(args, "trainer")
    try:
        rows = [run_experiment(ExperimentSpec(method=method, config=_experiment_config(args)))
                for method in args.methods]
    finally:
        if traced:
            _finish_trace(args, sys.stderr if args.json else stream)
    _emit_rows(rows, args.json, stream)
    return 0


def cmd_list_methods(args: argparse.Namespace, stream=sys.stdout) -> int:
    descriptions = method_descriptions()
    if args.json:
        json.dump(descriptions, stream, indent=2)
        stream.write("\n")
        return 0
    width = max(len(name) for name in descriptions)
    for name, description in descriptions.items():
        stream.write(f"{name:<{width}}  {description}\n")
    return 0


def cmd_profile(args: argparse.Namespace, stream=sys.stdout) -> int:
    kwargs = {"num_classes": args.num_classes}
    if args.model in _PATCH_MODELS:
        kwargs["image_size"] = args.image_size
    try:
        # Weight-free: the roofline prices layer shapes and reads no weight.
        with nn.init.shapes_only():
            model = build_model(args.model, **kwargs)
    except ValueError as error:      # an image size the patch size does not divide
        stream.write(f"error: {error}\n")
        return 2
    probe = get_rng(offset=2).standard_normal((2, 3, args.image_size, args.image_size)).astype(np.float32)
    labels = np.zeros(len(probe), dtype=np.int64)
    result = profile_layer_stacks(
        model, model.layer_stack_paths(), (probe, labels),
        rank_ratio=args.rank_ratio,
        speedup_threshold=args.speedup_threshold,
        mode="roofline",
        device=get_device(args.device),
        batch_scale=args.batch_size / len(probe),
    )
    if args.json:
        payload = {
            "k_hat": result.k_hat,
            "factorize_stacks": result.factorize_stacks,
            "skip_stacks": result.skip_stacks,
            "speedups": result.speedup_table(),
        }
        json.dump(payload, stream, indent=2, default=float)
        stream.write("\n")
        return 0
    stream.write(f"{'stack':>12}  {'full-rank':>12}  {'factorized':>12}  {'speedup':>8}  decision\n")
    for stack in result.stack_profiles:
        decision = "factorize" if stack.stack_name in result.factorize_stacks else "keep full-rank"
        stream.write(f"{stack.stack_name:>12}  {1e3 * stack.full_rank_time:12.4f}  "
                     f"{1e3 * stack.factorized_time:12.4f}  {stack.speedup:8.2f}  {decision}\n")
    stream.write(f"K̂ = {result.k_hat}\n")
    return 0


def cmd_rank_trace(args: argparse.Namespace, stream=sys.stdout) -> int:
    seed_everything(args.seed)
    train_ds, _, spec = make_vision_task(args.task)
    loader = PipelineLoader(train_ds, args.batch_size, shuffle=True)
    model = build_model(args.model, num_classes=spec.num_classes,
                        width_mult=args.width_mult, rng=get_rng(offset=args.seed + 1))
    optimizer = SGD(model.parameters(), lr=args.lr, momentum=0.9, weight_decay=args.weight_decay)
    scheduler = build_paper_cifar_schedule(optimizer, args.epochs, args.lr,
                                           start_lr=args.lr / 8, warmup_epochs=2)
    tracker = RankTracker(model, model.factorization_candidates())
    trainer = Trainer(model, optimizer, loader, scheduler=scheduler)
    for _ in range(args.epochs):
        trainer.train_epoch()
        tracker.update(model)
        scheduler.step()

    table = tracker.rank_ratio_table()
    if args.json:
        json.dump(table, stream, indent=2, default=float)
        stream.write("\n")
        return 0
    epochs = range(1, tracker.epochs_recorded + 1)
    stream.write(f"{'layer':>28}  " + "  ".join(f"ep{e:>2d}" for e in epochs) + "\n")
    for path, ratios in table.items():
        stream.write(f"{path:>28}  " + "  ".join(f"{r:4.2f}" for r in ratios) + "\n")
    return 0


def cmd_export(args: argparse.Namespace, stream=sys.stdout) -> int:
    from repro.serve import export_artifact
    from repro.utils import load_checkpoint, read_checkpoint_meta

    seed_everything(args.seed)
    # Checkpoints written by `train --save-checkpoint` carry their builder
    # spec; explicit CLI flags act as a fallback for hand-rolled checkpoints.
    stored = read_checkpoint_meta(args.checkpoint).get("metadata", {})
    spec = stored.get("model_spec") or _model_spec(args, args.num_classes)
    name, kwargs = spec["name"], spec["kwargs"]
    model = build_model(name, rng=get_rng(offset=args.seed + 1), **kwargs)
    load_checkpoint(args.checkpoint, model)
    if args.dense:
        from repro.core import merge_factorized

        merged = merge_factorized(model)
        stream.write(f"merged {merged} low-rank layers into dense weights\n")
    if args.input_shape is not None:
        shape = tuple(args.input_shape)
    else:
        shape = tuple(stored.get("input_shape") or (3, 32, 32))
    example = get_rng(offset=77).standard_normal((8,) + shape).astype(np.float32)
    manifest = export_artifact(
        args.output, model,
        model_spec={"name": name, "kwargs": kwargs},
        input_shape=shape,
        metadata={"checkpoint": args.checkpoint},
        example_batch=example,
    )
    stream.write(f"artifact written to {args.output}: {manifest['num_parameters']} params, "
                 f"ranks={len(manifest['ranks'])} factorized layers, "
                 f"batch_invariant={manifest.get('batch_invariant')}\n")
    return 0


def cmd_serve(args: argparse.Namespace, stream=sys.stdout) -> int:
    from repro.serve import AdmissionPolicy, BatchingPolicy, ModelServer

    policy = BatchingPolicy(max_batch_size=args.max_batch_size,
                            max_wait_ms=args.max_wait_ms, max_queue=args.max_queue)
    traced = _start_trace(args, "server")
    server = ModelServer(args.artifact, policy=policy, host=args.host, port=args.port,
                         backend=args.backend,
                         workers=args.workers, mode=args.mode,
                         admission=AdmissionPolicy(kind=args.admission))
    stream.write(f"serving {server.model_name} on {server.url} "
                 f"(max_batch_size={args.max_batch_size}, max_wait_ms={args.max_wait_ms}, "
                 f"workers={args.workers}, mode={args.mode}, "
                 f"admission={args.admission})\n")
    stream.flush()
    try:
        server.serve_forever()
    finally:
        if traced:
            _finish_trace(args, stream)
    return 0


def cmd_bench_serve(args: argparse.Namespace, stream=sys.stdout) -> int:
    from repro.serve import bench_artifact

    traced = _start_trace(args, "bench-serve")
    try:
        results = bench_artifact(
            args.artifact,
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
            duration_s=args.duration,
            concurrency=args.concurrency,
            transports=args.transports,
            backend=args.backend,
            workers=args.workers,
            mode=args.mode,
        )
    finally:
        if traced:
            # Results are a JSON document on stdout; keep it parseable.
            _finish_trace(args, sys.stderr)
    json.dump(results, stream, indent=2, default=float)
    stream.write("\n")
    return 0


def cmd_bench(args: argparse.Namespace, stream=sys.stdout) -> int:
    import os

    from repro import bench

    if args.bench_command == "list":
        descriptions = bench.suite_descriptions()
        if args.json:
            payload = {}
            for name in descriptions:
                suite = bench.get_suite(name)
                payload[name] = {
                    "description": suite.description,
                    "metrics": [{"name": m.name, "unit": m.unit,
                                 "higher_is_better": m.higher_is_better}
                                for m in suite.metrics],
                    "default_backend": suite.default_backend,
                    "tags": list(suite.tags),
                }
            json.dump(payload, stream, indent=2)
            stream.write("\n")
            return 0
        width = max(len(name) for name in descriptions)
        for name, description in descriptions.items():
            suite = bench.get_suite(name)
            metrics = ", ".join(m.name for m in suite.metrics)
            stream.write(f"{name:<{width}}  {description}\n")
            stream.write(f"{'':<{width}}    metrics: {metrics}\n")
        return 0

    if args.bench_command == "run":
        out = args.out or os.path.join("benchmarks", "output")
        json_path = args.json_path or os.path.join(out, f"{args.suite}.bench.json")
        history_path = args.history_path or os.path.join(out, "history.jsonl")
        try:
            _check_backend_name(args.backend)
            config = bench.RunConfig(tiny=args.tiny, warmup=args.warmup,
                                     repeat=args.repeat, iters=args.iters,
                                     backend=args.backend)
        except ValueError as error:
            stream.write(f"error: {error}\n")
            return 2
        try:
            bench.get_suite(args.suite)
        except KeyError as error:
            stream.write(f"error: {error.args[0]}\n")
            return 2

        def progress(stage, index, total):
            sys.stderr.write(f"[bench] {args.suite}: {stage} {index + 1}/{total}\n")

        result = bench.run_suite(args.suite, config, progress=progress)
        bench.write_result(json_path, result)
        if args.json:
            json.dump(result, stream, indent=2, default=float)
            stream.write("\n")
        else:
            stream.write(bench.format_result_table(result) + "\n")
            stream.write(f"wrote {json_path}\n")
        if not args.no_history:
            written = bench.append_result(history_path, result)
            target = sys.stderr if args.json else stream
            target.write(f"appended {written} metrics to {history_path}\n")
        return 0

    if args.bench_command == "compare":
        try:
            base = bench.load_result(args.base)
            candidate = bench.load_result(args.candidate)
            report = bench.compare_results(
                base, candidate,
                noise_threshold=args.noise_threshold,
                noise_aware=not args.no_noise_aware)
        except (bench.ContractError, bench.CompareError, ValueError) as error:
            stream.write(f"error: {error}\n")
            return 2
        if args.json:
            json.dump(report.as_dict(), stream, indent=2, default=float)
            stream.write("\n")
        else:
            stream.write(bench.format_markdown(report) + "\n")
        return report.exit_code

    if args.bench_command == "history":
        store = args.store or os.path.join("benchmarks", "output", "history.jsonl")
        try:
            entries, skipped = bench.read_history(
                store, suite=args.suite, metric=args.metric, last=args.last)
        except ValueError as error:
            stream.write(f"error: {error}\n")
            return 2
        if args.json:
            json.dump({"entries": entries, "skipped": skipped}, stream,
                      indent=2, default=float)
            stream.write("\n")
        else:
            stream.write(bench.format_history(entries, skipped) + "\n")
        return 0

    raise AssertionError(f"unhandled bench subcommand {args.bench_command!r}")


def cmd_trace(args: argparse.Namespace, stream=sys.stdout) -> int:
    from repro.telemetry import tracing

    if args.trace_command == "summary":
        try:
            events, meta = tracing.load_trace(args.path)
        except (OSError, ValueError) as error:
            stream.write(f"error: {error}\n")
            return 2
        summary = tracing.summarize_trace(events)
        if args.json:
            json.dump({"meta": meta, "summary": summary}, stream,
                      indent=2, default=float)
            stream.write("\n")
            return 0
        stream.write(f"trace {args.path} "
                     f"(session={meta.get('session', '?')}, "
                     f"schema_version={meta.get('schema_version', '?')})\n")
        stream.write(tracing.format_summary(summary) + "\n")
        return 0

    raise AssertionError(f"unhandled trace subcommand {args.trace_command!r}")


COMMANDS = {
    "train": cmd_train,
    "compare": cmd_compare,
    "list-methods": cmd_list_methods,
    "profile": cmd_profile,
    "rank-trace": cmd_rank_trace,
    "export": cmd_export,
    "serve": cmd_serve,
    "bench-serve": cmd_bench_serve,
    "bench": cmd_bench,
    "trace": cmd_trace,
}


def main(argv: Optional[List[str]] = None, stream=sys.stdout) -> int:
    """Entry point used by the ``repro-cuttlefish`` console script and tests."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args, stream=stream)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
