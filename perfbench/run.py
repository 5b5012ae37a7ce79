"""The repository benchmark: Cuttlefish training, and train -> export -> serve.

Run from the repository root::

    python3 perfbench/run.py --workload train-resnet --seed 0 --seconds 30 --trace 0

The workloads and metrics are declared in ``BENCHMARK.json``.  With
``--trace 0`` the run measures with all tracing off and reports the
end-to-end metrics; with ``--trace 1`` it repeats the workload with the
per-layer timers of ``layers.py`` installed and reports the per-layer
metrics, a per-phase busy-time table, and the tracing overhead.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 2, "failed": 0,
     "metrics": {"setup_s": {"value": 7.2, "unit": "s"}, ...}}

Every end-to-end metric is reported by every workload.  A training step and
an HTTP request are the two kinds of unit of work:

==========================  ==============================  ================================
metric                      training workloads              ``serve-http``
==========================  ==============================  ================================
``setup_s``                 process start -> first step     launch -> ``/healthz`` ok
                                                            (median of three launches)
``wall_s``                  process start -> result,        the closed-loop job on the
                            with evaluation and projection  factorized artifact
``full_rank_samples_per_s`` the full-rank epochs            closed-loop job, dense artifact
``low_rank_samples_per_s``  the low-rank epochs             closed-loop job, factorized
``peak_rss_mb``             trainer process                 server process
``success_rate``            repetitions passing the checks  requests answered correctly
==========================  ==============================  ================================

The report printed above the JSON line also gives the latency of a "light"
unit of work (an evaluation batch; a 1-sample request) and of a "heavy" one
(a training step; a 16-sample request), as the median and the tail: the
highest of p50, p75, p90, p95, p99 and p99.9 that leaves at least ten
samples beyond it.  The training seed, the arrival schedule and the request
sizes all derive from ``--seed``.  ``perfbench/pins.json`` holds the
expected outputs of seeds 0-9 and of the held-out seed it names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import median  # noqa: E402

TRAINING = ("train-resnet", "train-deit", "train-dp")
WORKLOADS = TRAINING + ("serve-http",)

#: No repetition starts that would end past this many seconds into the run
#: (a run must end within 180 s).
RUN_LIMIT_S = 170.0

#: Repetitions in a run of the declared ``run_seconds``, scaled to
#: ``--seconds`` (at least one).  The count is fixed up front so that it does
#: not hinge on how fast the first repetition happened to be.
REPETITIONS = {"train-resnet": 2, "train-deit": 1, "train-dp": 2}

#: Every process of the program gets one BLAS thread.  Forked replicas and
#: serve workers otherwise each inherit a pool sized for the whole host, and
#: on a 2-core host that oversubscription makes their timings vary by 20-45%
#: from run to run (IQR over median); with one thread each it is ~10%.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def load_pins() -> Dict:
    with open(os.path.join(HERE, "pins.json")) as handle:
        return json.load(handle)


# --------------------------------------------------------------------------- #
# Training workloads: one process per repetition
# --------------------------------------------------------------------------- #
def run_cell(root: str, env: Dict[str, str], workload: str, seed: int, traced: bool,
             timeout: float) -> Tuple[Optional[Dict], str]:
    """One repetition in a fresh process; ``(record, error)``."""
    cmd = [sys.executable, os.path.join(HERE, "train_cell.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=root, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def check_training(record: Dict, reference: Optional[Dict], pinned: Optional[Dict],
                   invariants: Dict) -> List[str]:
    """Problems with one repetition's outputs (an empty list when correct)."""
    out = record["outputs"]
    problems = []
    if not out["losses_finite"]:
        problems.append("a training loss is not finite")
    if out["epochs"] != out["epochs_planned"]:
        problems.append(f"trained {out['epochs']} of {out['epochs_planned']} epochs")
    if not out["min_switch"] <= out["switch_epoch"] <= out["max_switch"]:
        problems.append(f"switch epoch {out['switch_epoch']} outside "
                        f"[{out['min_switch']}, {out['max_switch']}]")
    if not out["compression_ratio"] > 1.0:
        problems.append(f"compression ratio {out['compression_ratio']} <= 1")
    if out["k_hat"] != invariants["k_hat"]:
        problems.append(f"K-hat {out['k_hat']} != {invariants['k_hat']}")
    for label, expected in (("pinned", pinned), ("first repetition", reference)):
        for key in ("val_accuracy", "compression_ratio", "switch_epoch", "k_hat"):
            if expected is not None and out[key] != expected[key]:
                problems.append(f"{key} {out[key]!r} != {label} value {expected[key]!r}")
    return problems


def run_training(root: str, env: Dict[str, str], workload: str, seed: int,
                 seconds: float, run_seconds: float, traced: bool) -> Dict:
    """Repeat the workload :data:`REPETITIONS` times (scaled to ``seconds``).

    Untraced runs report the median of every end-to-end metric over the
    repetitions.  Traced runs alternate untraced and traced repetitions
    (at least one of each): per-layer metrics are medians over the traced
    ones, and the tracing overhead is the difference of the wall medians.
    """
    pins = load_pins()[workload]
    pinned = pins["seeds"].get(str(seed))
    planned = max(2 if traced else 1,
                  round(REPETITIONS[workload] * seconds / run_seconds))
    start = time.perf_counter()
    records: List[Dict] = []
    attempted = failed = 0
    reference = None
    report: List[str] = []
    while attempted < planned:
        begun = time.perf_counter()
        if attempted and (begun - start) * (attempted + 1) / attempted > RUN_LIMIT_S:
            break
        record, error = run_cell(root, env, workload, seed, traced and attempted % 2 == 1,
                                 RUN_LIMIT_S - (begun - start))
        attempted += 1
        if record is None:
            failed += 1
            report.append(f"repetition {attempted} failed: {error}")
            continue
        problems = check_training(record, reference, pinned, pins)
        reference = reference or record["outputs"]
        if problems:
            failed += 1
            report.append(f"repetition {attempted} outputs wrong: {'; '.join(problems)}")
        records.append(record)
    plain = [r for r in records if not r["traced"]]
    if not plain:
        raise RuntimeError("no repetition completed:\n" + "\n".join(report))
    first = plain[0]
    report.append(
        f"{workload} seed {seed}: {len(records)} repetitions; val_accuracy "
        f"{first['outputs']['val_accuracy']:.4f}, compression "
        f"{first['outputs']['compression_ratio']:.4f}, switch epoch "
        f"{first['outputs']['switch_epoch']}, K-hat {first['outputs']['k_hat']}"
        + (" (pinned values checked)" if pinned else " (seed not pinned: invariants "
           "and repeatability checked)"))
    for unit, (p50, pct, value) in first["latency_ms"].items():
        report.append(f"{unit} unit latency (first repetition): p50 {p50:.1f} ms, "
                      f"p{pct:g} {value:.1f} ms")
    metrics = {name: median([r["metrics"][name] for r in plain]) for name in first["metrics"]}
    metrics["success_rate"] = (attempted - failed) / attempted
    result = {"metrics": metrics, "attempted": attempted, "failed": failed,
              "report": report}
    if traced:
        tracked = [r for r in records if r["traced"]]
        if not tracked:
            raise RuntimeError("no traced repetition completed:\n" + "\n".join(report))
        layers = {name: median([r["layers"][name] for r in tracked])
                  for name in tracked[0]["layers"]}
        layers["trace.overhead_s"] = (median([r["metrics"]["wall_s"] for r in tracked])
                                      - metrics["wall_s"])
        layers["quality.val_accuracy"] = first["outputs"]["val_accuracy"]
        layers["quality.compression_ratio"] = first["outputs"]["compression_ratio"]
        result["layers"] = layers
        report.extend(phase_table(tracked[0]))
    return result


def phase_table(record: Dict) -> List[str]:
    """Busy seconds per span and phase of one traced repetition, and the
    share of each phase no layer span covers."""
    phases = list(record["phase_s"])
    names = sorted({name for spans in record["busy"].values() for name in spans},
                   key=lambda name: -sum(record["busy"][p].get(name, 0.0) for p in phases))
    width = max([len(name) for name in names] + [24])
    lines = [f"{'busy seconds':<{width}} " + " ".join(f"{p:>10}" for p in phases),
             f"{'phase wall':<{width}} "
             + " ".join(f"{record['phase_s'][p]:10.3f}" for p in phases)]
    for name in names:
        lines.append(f"{name:<{width}} " + " ".join(
            f"{record['busy'][p].get(name, 0.0):10.3f}" for p in phases))
    lines.append(f"{'uncovered share':<{width}} " + " ".join(
        f"{record['layers'][f'coverage.{p}.uncovered']:10.3f}" for p in phases))
    return lines


# --------------------------------------------------------------------------- #
def build_result(spec: Dict, workload: str, result: Dict, traced: bool) -> Dict:
    """The final JSON object: every metric of the requested section."""
    section = "per_layer" if traced else "end_to_end"
    values = result["layers"] if traced else result["metrics"]
    metrics = {}
    for entry in spec[section]:
        value = values.get(entry["name"], 0.0 if traced else None)
        if value is None or (isinstance(value, float) and not math.isfinite(value)):
            raise RuntimeError(f"{workload} measured no {entry['name']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cuttlefish repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long (at least one repetition)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write(f"no program to measure: {src}/repro is missing "
                         "(run from the repository root)\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    env = dict(os.environ, **ONE_BLAS_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    traced = bool(args.trace)

    if args.workload == "serve-http":
        sys.path.insert(0, src)
        import serve_http

        build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                 "perfbench")
        os.makedirs(build_dir, exist_ok=True)
        result = serve_http.run(root, env, build_dir, args.seed, traced)
        result.setdefault("metrics", {})["success_rate"] = (
            (result["attempted"] - result["failed"]) / max(result["attempted"], 1))
    else:
        result = run_training(root, env, args.workload, args.seed, args.seconds,
                              spec["run_seconds"], traced)

    document = build_result(spec, args.workload, result, traced)
    for line in result["report"]:
        print(line)
    for name, entry in document["metrics"].items():
        print(f"{name:<32} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
