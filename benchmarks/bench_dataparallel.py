"""Data-parallel training benchmark: samples/sec at world sizes 1/2/4/8.

Trains the ResNet cell (resnet18 at reduced width) over synthetic CIFAR-style
data with :class:`repro.distributed.DataParallelTrainer` (forked replica
workers with shared-memory gradient exchange) and reports epoch throughput
(samples over wall time) per world size, plus the per-replica stall/compute
split from the pipeline stats.  The measurement bodies live in
``repro.bench.workloads`` — the same code the registered
``dataparallel-proc`` suite times under ``repro bench run``.

Assertions gating the run:

* **parity** (always enforced): a ``world_size=1`` epoch sequence is
  bit-identical — losses, accuracies and every trained parameter — to the
  plain single-process pipeline-loader ``Trainer``, and ``world_size=2``
  runs are bit-stable across back-to-back executions;
* **scaling** (enforced only on hosts with >= 4 cores, full budget): world
  size 4 must clear 1.5x the world size 1 samples/sec.

Results go to ``benchmarks/output/dataparallel-proc.json`` (versioned
contract ``dataparallel-proc.bench.json``), appending to ``history.jsonl``.

Usage::

    python benchmarks/bench_dataparallel.py                    # ws 1/2/4/8
    python benchmarks/bench_dataparallel.py --world-sizes 1 4  # chosen sizes
    python benchmarks/bench_dataparallel.py --tiny             # CI smoke
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

OUTPUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output")
SCALING_TARGET = 1.5
SCALING_WORLD_SIZE = 4


def check_parity(dataset, batch_size: int, width_mult: float, epochs: int) -> dict:
    """Bit-parity asserts (see module docstring)."""
    from repro.bench.workloads import build_dp_training
    from repro.data import PipelineLoader
    from repro.models import build_model
    from repro.optim import SGD
    from repro.train.trainer import Trainer
    from repro.utils import get_rng, seed_everything

    def reference():
        seed_everything(0)
        model = build_model("resnet18", num_classes=4, width_mult=width_mult,
                            small_input=True, rng=get_rng(offset=1))
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        trainer = Trainer(model, optimizer,
                          PipelineLoader(dataset, batch_size, shuffle=True))
        losses = [trainer.train_epoch()["loss"] for _ in range(epochs)]
        return losses, [p.data.copy() for p in model.parameters()]

    def data_parallel(world_size):
        trainer = build_dp_training(dataset, batch_size, width_mult, world_size)
        try:
            losses = [trainer.train_epoch()["loss"] for _ in range(epochs)]
        finally:
            trainer.shutdown()
        return losses, [p.data.copy() for p in trainer.model.parameters()]

    def same(a, b):
        return a[0] == b[0] and all(np.array_equal(x, y)
                                    for x, y in zip(a[1], b[1]))

    return {
        "ws1_bit_identical_to_trainer": bool(same(reference(), data_parallel(1))),
        "ws2_bit_stable_across_reruns": bool(same(data_parallel(2), data_parallel(2))),
    }


def main(argv=None) -> int:
    from repro.bench import add_standard_flags, emit_script_result, get_suite
    from repro.bench.workloads import build_dp_dataset, dataparallel_throughput

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_standard_flags(parser, "dataparallel-proc", output_dir=OUTPUT_DIR)
    parser.add_argument("--samples", type=int, default=None,
                        help="dataset size (default 1024, tiny 128)")
    parser.add_argument("--epochs", type=int, default=None,
                        help="measured epochs per world size (default 2, tiny 1)")
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--width-mult", type=float, default=0.25)
    parser.add_argument("--image-size", type=int, default=None,
                        help="input resolution (default 16, tiny 8)")
    parser.add_argument("--world-sizes", type=int, nargs="+", default=None,
                        help="world sizes to measure (default 1 2 4 8, tiny 1 2)")
    args = parser.parse_args(argv)

    n = args.samples or (128 if args.tiny else 1024)
    epochs = args.epochs or (1 if args.tiny else 2)
    image_size = args.image_size or (8 if args.tiny else 16)
    width_mult = 0.125 if args.tiny else args.width_mult
    world_sizes = args.world_sizes or ([1, 2] if args.tiny else [1, 2, 4, 8])
    cores = os.cpu_count() or 1

    dataset = build_dp_dataset(n, image_size)
    results = {"samples": n, "batch_size": args.batch_size, "epochs": epochs,
               "image_size": image_size, "width_mult": width_mult,
               "cpu_count": cores}

    print(f"{'world_size':>10} | {'samples/s':>10} | {'wall':>8} | per-replica compute")
    rows = {}
    for world_size in world_sizes:
        row = dataparallel_throughput(dataset, batch_size=args.batch_size,
                                      width_mult=width_mult,
                                      world_size=world_size, epochs=epochs)
        rows[str(world_size)] = row
        compute = " ".join(f"{s:.2f}s" for s in row["replica_compute_seconds"])
        print(f"{world_size:>10} | {row['samples_per_sec']:>8.0f}/s "
              f"| {row['wall_seconds']:>7.2f}s | {compute}")
    base = rows.get("1", {}).get("samples_per_sec", 0.0)
    scaling = {ws: row["samples_per_sec"] / base if base > 0 else 0.0
               for ws, row in rows.items()}
    for ws, ratio in scaling.items():
        print(f"scaling ws={ws}: {ratio:.2f}x")
    results["world_sizes"] = rows
    results["scaling_vs_ws1"] = scaling

    results["parity"] = check_parity(dataset, args.batch_size, width_mult,
                                     max(epochs, 2))
    print(f"parity: {results['parity']}")

    # Enforcement needs real cores and the full budget (tiny runs one batch
    # per replica — all fork/lockstep overhead, no amortisation).
    ratio = scaling.get(str(SCALING_WORLD_SIZE))
    results["meets_scaling_target"] = bool(ratio is not None and ratio >= SCALING_TARGET)
    results["scaling_target_enforced"] = bool(
        ratio is not None and cores >= SCALING_WORLD_SIZE and not args.tiny)
    print(f"meets >={SCALING_TARGET}x at ws={SCALING_WORLD_SIZE}: "
          f"{results['meets_scaling_target']} "
          f"(enforced={results['scaling_target_enforced']}, cores={cores})")

    ws1 = rows.get("1", {}).get("samples_per_sec")
    ws2 = rows.get("2", {}).get("samples_per_sec")
    if ws1 and ws2:
        emit_script_result(
            args, "dataparallel-proc", results,
            {
                "proc_ws1_samples_per_sec": (ws1, "samples/s", True),
                "proc_ws2_samples_per_sec": (ws2, "samples/s", True),
                "proc_ws2_scaling": (ws2 / ws1, "x", True),
            },
            specs=get_suite("dataparallel-proc").metrics)
    else:
        # Custom --world-sizes without both 1 and 2 cannot fill the suite's
        # declared metrics; keep the free-form summary only.
        import json

        os.makedirs(os.path.dirname(args.json_path), exist_ok=True)
        with open(args.json_path, "w") as handle:
            json.dump(results, handle, indent=2)
        print(f"[bench_dataparallel] wrote {args.json_path} "
              f"(ws 1+2 not both measured; contract skipped)")

    if not all(results["parity"].values()):
        raise SystemExit("FAIL: data-parallel determinism contract violated")
    if results["scaling_target_enforced"] and not results["meets_scaling_target"]:
        raise SystemExit(
            f"FAIL: ws={SCALING_WORLD_SIZE} scaling {ratio:.2f}x < "
            f"{SCALING_TARGET}x on a {cores}-core host")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
