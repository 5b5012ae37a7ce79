"""Input-pipeline throughput benchmark: legacy loader vs streaming pipeline.

Measures loader-only samples/sec (drain the stream as fast as possible) on
the ResNet-cell input shape (batch 32, 3x32x32 CIFAR-style images,
random-crop + flip + normalise) for:

* ``legacy``      — the per-sample ``DataLoader`` (Python ``__getitem__``
                    loop, per-sample transforms, list collate);
* ``vectorized``  — the synchronous ``PipelineLoader`` (fancy-index gather,
                    batch-level transforms, counter-based per-sample RNG).

The measurement bodies live in ``repro.bench.workloads`` — the same code the
registered ``pipeline`` suite times under ``repro bench run``.  The harness
additionally records whether the vectorized loader clears the 2x
samples/sec target over the legacy one.  Results go to
``benchmarks/output/pipeline.json`` plus the versioned ``repro.bench``
contract (``pipeline.bench.json`` + ``history.jsonl``).

Usage::

    python benchmarks/bench_pipeline.py           # full run
    python benchmarks/bench_pipeline.py --tiny    # CI smoke
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

OUTPUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output")


def main(argv=None) -> int:
    from repro.bench import add_standard_flags, emit_script_result, get_suite
    from repro.bench.workloads import loader_throughput

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_standard_flags(parser, "pipeline", output_dir=OUTPUT_DIR)
    parser.add_argument("--samples", type=int, default=None,
                        help="dataset size (default 2048, tiny 256)")
    parser.add_argument("--epochs", type=int, default=None,
                        help="measured epochs per config (default 3, tiny 1)")
    parser.add_argument("--batch-size", type=int, default=32)
    args = parser.parse_args(argv)

    n = args.samples or (256 if args.tiny else 2048)
    epochs = args.epochs or (1 if args.tiny else 3)

    measured = loader_throughput(samples=n, batch_size=args.batch_size, epochs=epochs)
    results = {"samples": n, "batch_size": args.batch_size, "epochs": epochs,
               "loader_only": measured}

    print(f"{'config':>16} | {'loader-only':>14}")
    for name, stats in measured.items():
        print(f"{name:>16} | {stats['samples_per_sec']:10.0f} s/s")

    legacy = measured["legacy"]["samples_per_sec"]
    vectorized = measured["vectorized"]["samples_per_sec"]
    speedup = vectorized / max(legacy, 1e-9)
    results["speedups"] = {"vectorized_vs_legacy_loader_only": speedup}
    results["meets_2x_target"] = bool(speedup >= 2.0)
    print(f"vectorized_vs_legacy_loader_only: {speedup:.2f}x")
    print(f"meets >=2x loader target: {results['meets_2x_target']}")

    emit_script_result(
        args, "pipeline", results,
        {
            "legacy_samples_per_sec": (legacy, "samples/s", True),
            "vectorized_samples_per_sec": (vectorized, "samples/s", True),
            "vectorized_speedup": (speedup, "x", True),
        },
        specs=get_suite("pipeline").metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
