"""Serving benchmark: artifact export + dynamic micro-batching throughput.

The serving analogue of ``bench_throughput.py``.  For the ResNet serving cell
(resnet18 at the CPU-budget width) it:

1. exports three artifacts — the dense model, a Cuttlefish-style factorized
   model (large-spatial stacks at rank ρ≈1/4), and the factorized model
   merged back to dense — and compares artifact sizes and outputs;
2. drives closed-loop single-sample load against the micro-batching engine
   (and optionally the HTTP server) under two policies: the dynamic batching
   policy and a ``max_batch_size=1`` baseline, reporting the throughput
   ratio;
3. sweeps the predictor pool across sizes 1/2/4 (same policy, same execution
   mode) for the replication-scaling curve — asserting bit-invariance of
   predictions across pool sizes.  On >= 4-core hosts at full budget,
   process-mode pool-4 must beat pool-1 by > 1.5x.

Both policies run the identical predictor (same batch canonicalization, same
backend), so the ratio isolates what request coalescing buys on one host.
Results are printed as a table and written as JSON to
``benchmarks/output/serving.json`` plus the versioned ``repro.bench``
contract (``serving.bench.json`` + ``history.jsonl``), keyed on the dense
artifact's engine-transport numbers — the same cell the registered
``serving`` suite times under ``repro bench run``.

Usage::

    python benchmarks/bench_serving.py             # full run (engine + http)
    python benchmarks/bench_serving.py --tiny      # CI smoke (~5 s, engine only)
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

OUTPUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output")

# The serving ResNet cell: the same architecture/width as bench_throughput's
# training cell.  Factorization covers the large-spatial stacks (layer1-3),
# where the batch-invariance guarantee holds on this BLAS (DESIGN.md §9).
CELL = dict(model="resnet18", width_mult=0.125, num_classes=10, image=32,
            factorize_prefixes=("layer1.", "layer2.", "layer3."), rank_divisor=4)


def _build(factorized: bool):
    from repro.core import factorize_model, full_rank_of
    from repro.models import build_model
    from repro.utils import seed_everything

    seed_everything(0)
    model = build_model(CELL["model"], num_classes=CELL["num_classes"],
                        width_mult=CELL["width_mult"])
    if factorized:
        paths = [p for p in model.factorization_candidates()
                 if p.startswith(CELL["factorize_prefixes"])]
        ranks = {p: max(1, full_rank_of(model.get_submodule(p)) // CELL["rank_divisor"])
                 for p in paths}
        factorize_model(model, ranks, skip_non_reducing=False)
    model.eval()
    return model


def export_cell_artifacts(directory: str) -> dict:
    """Export dense / factorized / merged-dense artifacts; verify round-trips."""
    from repro.core import merge_factorized
    from repro.serve import artifact_size_bytes, export_artifact, load_artifact
    from repro.tensor import no_grad
    from repro.utils import get_rng

    shape = (3, CELL["image"], CELL["image"])
    spec = {"name": CELL["model"],
            "kwargs": {"num_classes": CELL["num_classes"], "width_mult": CELL["width_mult"]}}
    example = get_rng(offset=123).standard_normal((8,) + shape).astype(np.float32)

    report = {}
    outputs = {}
    models = {"dense": _build(factorized=False), "factorized": _build(factorized=True)}
    merged = _build(factorized=True)
    merge_factorized(merged)
    merged.eval()
    models["merged_dense"] = merged

    for label, model in models.items():
        path = os.path.join(directory, f"{label}.npz")
        manifest = export_artifact(path, model, model_spec=spec, input_shape=shape,
                                   example_batch=example,
                                   metadata={"cell": "resnet", "variant": label})
        predictor = load_artifact(path)
        with no_grad():
            direct = model(example).data
        outputs[label] = predictor(example)
        report[label] = {
            "path": path,
            "size_bytes": artifact_size_bytes(path),
            "num_parameters": manifest["num_parameters"],
            "factorized_layers": len(manifest["ranks"]),
            "batch_invariant": manifest.get("batch_invariant"),
            "roundtrip_bit_identical": bool(np.array_equal(outputs[label], direct)),
        }

    dense_size = report["merged_dense"]["size_bytes"]
    fac_size = report["factorized"]["size_bytes"]
    report["comparison"] = {
        "factorized_vs_dense_size_ratio": fac_size / dense_size,
        "factorized_vs_merged_max_abs_diff": float(
            np.abs(outputs["factorized"] - outputs["merged_dense"]).max()),
        "factorized_smaller": fac_size < dense_size,
    }
    return report


def run_pool_section(dense_path: str, args, *, duration: float,
                     concurrency: int, warmup: float) -> dict:
    """Pool-scaling curve at sizes 1/2/4.

    Acceptance gate (full budget only, skipped under ``--tiny``): on a
    >= 4-core host in process mode, pool-4 throughput must exceed 1.5x
    pool-1 under the same policy.
    """
    from repro.bench.workloads import serving_pool_throughput

    pool_sizes = sorted(set(args.pool_sizes))
    print(f"[bench_serving] pool-scaling curve (sizes {pool_sizes}, "
          f"mode {args.pool_mode}) ...")
    curve = serving_pool_throughput(
        pool_sizes=tuple(pool_sizes),
        duration_s=duration,
        concurrency=concurrency,
        backend=args.backend,
        warmup_s=warmup,
        mode=args.pool_mode,
        artifact_path=dense_path,
    )
    mode = curve["mode"]
    top = pool_sizes[-1]
    for size in pool_sizes:
        run = curve["raw"][str(size)]
        print(f"       pool {size} | {mode:>7} | {run['throughput_rps']:8.1f} rps "
              f"(p99 {run['latency_ms']['p99']:6.1f} ms)")
    scaling = curve[f"pool{top}_scaling"]
    print(f"[bench_serving] pool-{top} scaling: {scaling:.2f}x over pool-1 "
          f"(bit-invariance across sizes verified)")
    cores = os.cpu_count() or 1
    if not args.tiny and mode == "process" and cores >= 4 and top >= 4:
        assert scaling > 1.5, (
            f"process-mode pool {top} reached only {scaling:.2f}x pool-1 "
            f"throughput on a {cores}-core host (acceptance floor: 1.5x)")
    return {"curve": curve}


def main(argv=None) -> int:
    from repro.bench import add_standard_flags

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_standard_flags(parser, "serving", output_dir=OUTPUT_DIR)
    parser.add_argument("--duration", type=float, default=None,
                        help="seconds per (transport, policy) config (default 4, tiny 1)")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="closed-loop clients (default 32, tiny 8)")
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--transports", nargs="+", default=None,
                        choices=["engine", "http"])
    parser.add_argument("--backend", default="numpy-fast")
    parser.add_argument("--variants", nargs="+", default=["dense", "factorized"],
                        choices=["dense", "factorized", "merged_dense"])
    parser.add_argument("--pool-sizes", type=int, nargs="+", default=[1, 2, 4],
                        help="predictor-pool sizes for the scaling curve")
    parser.add_argument("--pool-mode", default="process",
                        choices=["thread", "process"],
                        help="pool execution mode for the scaling curve")
    parser.add_argument("--skip-pool", action="store_true",
                        help="skip the pool-scaling curve")
    args = parser.parse_args(argv)

    duration = args.duration if args.duration is not None else (1.0 if args.tiny else 4.0)
    concurrency = args.concurrency if args.concurrency is not None else (8 if args.tiny else 32)
    transports = args.transports or (["engine"] if args.tiny else ["engine", "http"])
    warmup = 0.25 if args.tiny else 0.5

    from repro.serve import bench_artifact

    os.makedirs(OUTPUT_DIR, exist_ok=True)
    artifact_dir = os.path.join(OUTPUT_DIR, "artifacts")
    os.makedirs(artifact_dir, exist_ok=True)

    print("[bench_serving] exporting artifacts ...")
    artifacts = export_cell_artifacts(artifact_dir)
    ratio = artifacts["comparison"]["factorized_vs_dense_size_ratio"]
    print(f"[bench_serving] factorized artifact is {ratio:.2f}x the dense export size "
          f"(max |Δoutput| vs merged dense: "
          f"{artifacts['comparison']['factorized_vs_merged_max_abs_diff']:.2e})")

    summary = {
        "cell": CELL,
        "policy": {"max_batch_size": args.max_batch_size},
        "backend": args.backend,
        "artifacts": artifacts,
        "load": {},
    }
    for variant in args.variants:
        path = artifacts[variant]["path"]
        print(f"[bench_serving] load-testing {variant} artifact "
              f"({concurrency} clients, {duration:.1f}s per config) ...")
        result = bench_artifact(
            path,
            max_batch_size=args.max_batch_size,
            duration_s=duration,
            concurrency=concurrency,
            transports=transports,
            backend=args.backend,
            warmup_s=warmup,
        )
        summary["load"][variant] = result
        for transport, data in result["transports"].items():
            batched, batch1 = data["batched"], data["batch1"]
            print(f"{variant:>11} | {transport:>6} | batched {batched['throughput_rps']:8.1f} rps "
                  f"(p99 {batched['latency_ms']['p99']:6.1f} ms) | "
                  f"batch-1 {batch1['throughput_rps']:7.1f} rps "
                  f"(p99 {batch1['latency_ms']['p99']:6.1f} ms) | "
                  f"speedup {data['speedup']:5.2f}x")

    if not args.skip_pool:
        summary["pool"] = run_pool_section(
            artifacts["dense"]["path"], args, duration=duration,
            concurrency=concurrency, warmup=warmup)

    from repro.bench import emit_script_result, get_suite

    dense_engine = (summary["load"].get("dense", {})
                    .get("transports", {}).get("engine"))
    if dense_engine is not None:
        emit_script_result(
            args, "serving", summary,
            {
                "batched_rps": (dense_engine["batched"]["throughput_rps"],
                                "req/s", True),
                "batch1_rps": (dense_engine["batch1"]["throughput_rps"],
                               "req/s", True),
                "batching_speedup": (dense_engine["speedup"], "x", True),
                "batched_p99_ms": (dense_engine["batched"]["latency_ms"]["p99"],
                                   "ms", False),
            },
            specs=get_suite("serving").metrics)
    else:
        # Custom --variants/--transports without the dense engine run cannot
        # fill the registered suite's declared metrics; legacy summary only.
        with open(args.json_path, "w") as handle:
            json.dump(summary, handle, indent=2, default=float)
        print(f"[bench_serving] wrote {args.json_path} "
              f"(dense engine transport not measured; contract skipped)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
