"""The ``serve-http`` workload: train -> export -> ``repro serve`` over HTTP.

The artifacts come from the ``train-resnet`` cell at a fixed training seed
(``train_cell.py --export``) and are cached in the build directory, keyed by
a hash of the program and benchmark sources.

The untraced run launches ``repro serve --workers 2 --mode process`` three
times (launch -> ``/healthz`` ok is set-up time), then pushes one seeded
closed-loop job of 1-, 4- and 16-sample requests through the dense
``full_rank`` artifact and the factorized ``low_rank`` artifact, block by
block in turn.

The traced run drives the ``low_rank`` server open loop up a fixed ladder of
request rates.  Latency runs from each request's due time, so a stalled
server is charged for the requests queued behind it; the serve layer's view
of each rung comes from two ``/metrics`` snapshots.

Load comes from this one process through :class:`repro.serve.ServeClient`,
with at most one connection in flight per core.  Every response is compared
with an in-process :class:`repro.serve.artifact.Predictor` on the same
samples.
"""

from __future__ import annotations

import hashlib
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from stats import median, percentile, tail

HERE = os.path.dirname(os.path.abspath(__file__))

#: Request sizes (samples per request) and how often each is drawn.
REQUEST_SIZES = (1, 4, 16)
SIZE_WEIGHTS = (0.4, 0.2, 0.4)

#: "light" requests stress the HTTP/JSON codec and the batcher; "heavy"
#: requests stress inference.
LIGHT_SIZE, HEAVY_SIZE = 1, 16

#: Seeded samples the requests are cut from.
POOL_SIZE = 64

#: Requests in the closed-loop job both artifacts serve, and the blocks it is
#: cut into.  The two servers take turns block by block (A-B-B-A), so the
#: host's slow spells land on both sides alike, and the job is long enough
#: to average over several of them.
JOB_REQUESTS = 384
JOB_BLOCKS = 8

#: Requests each server answers before anything is timed.
WARMUP_REQUESTS = 24

#: The traced run's open-loop ladder (requests/s), climbed in order, and
#: its named rung: the per-layer serve metrics are read there.
LADDER_RPS = (8.0, 16.0, 24.0, 32.0, 40.0, 48.0, 56.0)
NOMINAL_RPS = 16.0
RUNG_SECONDS = 2.0

#: The server's batching policy bound (the ``repro serve`` default).
MAX_BATCH_SIZE = 32

#: A rung meets the SLO when its tail latency is within this limit and the
#: server answered the rung's last request within the same limit of the
#: rung's end (no backlog carried out of the rung).
SLO_TAIL_MS = 250.0

#: A rung is invalid when the generator itself sent this late (p99): the
#: generator, not the server, was then the bottleneck.
GEN_LATE_LIMIT_MS = 25.0

#: Training seed of the served model.
ARTIFACT_SEED = 0


# --------------------------------------------------------------------------- #
# Artifacts
# --------------------------------------------------------------------------- #
def source_digest(root: str) -> str:
    """Hash of every program and benchmark source the artifacts depend on."""
    digest = hashlib.sha256()
    for top in (os.path.join(root, "src"), HERE):
        for directory, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__")))
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    path = os.path.join(directory, filename)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def ensure_artifacts(root: str, build_dir: str, env: Dict[str, str]) -> str:
    """Directory holding ``low_rank.npz`` and ``full_rank.npz``; trains and
    exports them on first use."""
    directory = os.path.join(build_dir, f"artifacts-{source_digest(root)}")
    if all(os.path.exists(os.path.join(directory, f"{v}.npz"))
           for v in ("low_rank", "full_rank")):
        return directory
    staging = directory + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    cmd = [sys.executable, os.path.join(HERE, "train_cell.py"),
           "--workload", "train-resnet", "--seed", str(ARTIFACT_SEED),
           "--spawned", repr(time.perf_counter()), "--export", staging]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"artifact export failed:\n{proc.stderr[-3000:]}")
    os.replace(staging, directory)
    return directory


# --------------------------------------------------------------------------- #
# The server process
# --------------------------------------------------------------------------- #
class ServerProcess:
    """``repro serve`` as a child process: start, wait for ``/healthz``, stop."""

    def __init__(self, root: str, artifact: str, env: Dict[str, str], log_path: str,
                 trace_path: Optional[str] = None):
        self.cmd = [sys.executable, "-m", "repro.cli", "serve", "--artifact", artifact,
                    "--port", "0", "--workers", "2", "--mode", "process",
                    "--backend", "numpy-fast"]
        if trace_path:
            self.cmd += ["--trace", trace_path]
        self.root, self.env, self.log_path = root, env, log_path
        self.proc: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None

    def start(self, timeout: float = 60.0) -> float:
        """Launch; return seconds from launch to ``/healthz`` reporting ok."""
        from repro.serve.client import ServeClient, ServeClientError

        launched = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(self.cmd, cwd=self.root, env=self.env,
                                         stdout=subprocess.PIPE, stderr=log)
        deadline = launched + timeout
        line = b""
        while b"\n" not in line:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"server did not announce its address; see {self.log_path}")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(f"server exited during start; see {self.log_path}")
                line += chunk
        announced = line.decode().split(" on ", 1)[1].split()[0]
        self.url = announced
        client = ServeClient(self.url, timeout=5.0, retries=0)
        while True:
            try:
                if client.healthz().get("status") == "ok":
                    return time.perf_counter() - launched
            except ServeClientError:
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"server never became healthy; see {self.log_path}")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Interrupt (the CLI then drains the pool and unlinks its shared
        memory) and wait for the exit; kill only if it hangs."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=20.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=20.0)
        finally:
            proc.stdout.close()


# --------------------------------------------------------------------------- #
# Requests and the open-loop generator
# --------------------------------------------------------------------------- #
@dataclass
class Outcome:
    """One request's timeline (``time.perf_counter()`` seconds)."""

    due: float
    picked: float = 0.0       # a connection became free for it
    sent: float = 0.0         # ServeClient.predict was called
    done: float = 0.0
    outputs: Optional[np.ndarray] = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return 1e3 * (self.done - self.due)

    @property
    def round_trip_ms(self) -> float:
        return 1e3 * (self.done - self.sent)

    @property
    def late_ms(self) -> float:
        """How late the generator sent, once a connection was free."""
        return 1e3 * (self.sent - max(self.due, self.picked))


def request_plan(seed: int, stream: int, count: int, pool_size: int) -> List[np.ndarray]:
    """``count`` requests as index arrays into the sample pool.

    The mix of sizes is fixed by :data:`SIZE_WEIGHTS`, so every seed sends
    the same number of samples; the seed shuffles the order and picks the
    (contiguous, wrapping) pool slices.
    """
    rng = np.random.default_rng([seed, stream])
    counts = [int(round(count * weight)) for weight in SIZE_WEIGHTS[:-1]]
    counts.append(count - sum(counts))
    sizes = rng.permutation(np.repeat(REQUEST_SIZES, counts))
    starts = rng.integers(0, pool_size, size=count)
    return [(start + np.arange(size)) % pool_size for start, size in zip(starts, sizes)]


def open_loop_arrivals(seed: int, stream: int, rate: float, seconds: float) -> np.ndarray:
    """Poisson arrival offsets from ``repro.serve.loadgen.arrival_times``,
    rescaled so exactly ``round(rate * seconds)`` requests fall in the rung:
    the offered rate is then the same in every run, and only the spacing
    varies with the seed."""
    from repro.serve.loadgen import TrafficShape, arrival_times

    count = max(1, int(round(rate * seconds)))
    shape = TrafficShape(kind="constant", mean_rps=rate, duration_s=4.0 * seconds,
                         seed=seed * 1000 + stream)
    times = arrival_times(shape)
    if len(times) <= count:
        raise RuntimeError(f"arrival schedule too short: {len(times)} <= {count}")
    return times[:count] * (seconds / times[count])


def drive(send: Callable[[np.ndarray], np.ndarray], requests: Sequence[np.ndarray],
          pool: np.ndarray, offsets: Optional[np.ndarray], connections: int) -> List[Outcome]:
    """Send ``requests`` over ``connections`` threads.

    With ``offsets`` (seconds from now) the load is open loop: request *i*
    is due at its offset whether or not earlier answers are back.  Without,
    it is closed loop: each request is due as soon as a connection frees.
    """
    begin = time.perf_counter() + 0.05
    outcomes = [Outcome(due=begin + (offsets[i] if offsets is not None else 0.0))
                for i in range(len(requests))]
    lock = threading.Lock()
    cursor = [0]

    def worker() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(requests):
                    return
                cursor[0] = index + 1
            outcome = outcomes[index]
            outcome.picked = time.perf_counter()
            if offsets is None:
                outcome.due = outcome.picked
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome.sent = time.perf_counter()
            try:
                outcome.outputs = send(pool[requests[index]])
            except Exception as error:  # noqa: BLE001 - a failed request is counted, not fatal
                outcome.error = f"{type(error).__name__}: {error}"
            outcome.done = time.perf_counter()

    threads = [threading.Thread(target=worker, name=f"perfbench-conn{i}", daemon=True)
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def http_sender(url: str) -> Callable[[np.ndarray], np.ndarray]:
    """One ``ServeClient`` per connection thread, with no retries: a refused
    request is a failed request."""
    from repro.serve.client import ServeClient

    local = threading.local()

    def send(samples: np.ndarray) -> np.ndarray:
        client = getattr(local, "client", None)
        if client is None:
            client = local.client = ServeClient(url, timeout=60.0, retries=0)
        return client.predict(samples)

    return send


#: Output check tolerance, as a share of the request's largest expected
#: output.  The server batches requests with their neighbours and BLAS rounds
#: differently for different batch shapes: a few float32 ulps at the output
#: scale.  A wrong answer misses by orders of magnitude more.
OUTPUT_RTOL = 1e-5


def expected_outputs(artifact: str, pool: np.ndarray) -> np.ndarray:
    """The in-process predictor's outputs for every pool sample."""
    from repro.serve.artifact import load_artifact

    predictor = load_artifact(artifact, backend="numpy-fast")
    return np.concatenate([predictor(pool[i:i + 4]) for i in range(0, len(pool), 4)])


def output_matches(outputs: Optional[np.ndarray], expected: np.ndarray) -> bool:
    if outputs is None or outputs.shape != expected.shape:
        return False
    scale = float(np.abs(expected).max()) or 1.0
    return bool(np.all(np.abs(outputs - expected) <= OUTPUT_RTOL * scale))


def count_failures(outcomes: Sequence[Outcome], requests: Sequence[np.ndarray],
                   expected: np.ndarray) -> int:
    """Requests that failed, or whose answer differs from the in-process
    predictor's answer on the same samples."""
    return sum(1 for outcome, indices in zip(outcomes, requests)
               if outcome.error is not None
               or not output_matches(outcome.outputs, expected[indices]))


# --------------------------------------------------------------------------- #
# Rung analysis
# --------------------------------------------------------------------------- #
def class_latency(outcomes: Sequence[Outcome], requests: Sequence[np.ndarray],
                  size: int) -> Tuple[float, float, float]:
    """``(p50, tail pct, tail)`` due-time latency of the requests of ``size``."""
    values = [o.latency_ms for o, r in zip(outcomes, requests)
              if len(r) == size and o.error is None]
    if not values:
        return 0.0, 0.0, 0.0
    pct, value = tail(values)
    return median(values), pct, value


def _delta_mean(before: Dict, after: Dict) -> float:
    """Mean of the observations between two latency summaries."""
    count = after["count"] - before["count"]
    if count <= 0:
        return 0.0
    return (after["mean"] * after["count"] - before["mean"] * before["count"]) / count


def server_rung_metrics(before: Dict, after: Dict, outcomes: Sequence[Outcome],
                        max_batch_size: int) -> Dict[str, float]:
    """The serve layer's view of one rung, from two ``/metrics`` snapshots."""
    eb, ea = before["engine"], after["engine"]
    batches = ea["batches_total"] - eb["batches_total"]
    batch_size = (ea["samples_total"] - eb["samples_total"]) / batches if batches else 0.0
    busy = ea["worker"]["compute_seconds"] - eb["worker"]["compute_seconds"]
    idle = ea["worker"]["stall_seconds"] - eb["worker"]["stall_seconds"]
    admission = ("rejected_total", "shed_total")
    ok = [o for o in outcomes if o.error is None]
    round_trip = sum(o.round_trip_ms for o in ok) / len(ok) if ok else 0.0
    return {
        "serve.queue_wait_ms": _delta_mean(eb["queue_wait_ms"], ea["queue_wait_ms"]),
        "serve.compute_ms": _delta_mean(eb["compute_ms"], ea["compute_ms"]),
        "serve.batch_size": batch_size,
        "serve.batch_fill": batch_size / max_batch_size,
        "serve.worker_utilization": busy / (busy + idle) if busy + idle > 0 else 0.0,
        "serve.http_overhead_ms": round_trip - _delta_mean(before["e2e_latency_ms"],
                                                           after["e2e_latency_ms"]),
        "serve.rejected": float(sum(ea["admission"][k] - eb["admission"][k]
                                    for k in admission)),
        "serve.gen_late_ms": percentile([o.late_ms for o in outcomes], 99.0),
    }


def rung_meets_slo(outcomes: Sequence[Outcome], end: float) -> bool:
    """Tail latency within :data:`SLO_TAIL_MS`, every request answered, and
    the last answer back within the same limit of the rung's end."""
    if any(o.error is not None for o in outcomes):
        return False
    _, tail_ms = tail([o.latency_ms for o in outcomes])
    drain_ms = 1e3 * (max(o.done for o in outcomes) - end)
    return tail_ms <= SLO_TAIL_MS and drain_ms <= SLO_TAIL_MS


# --------------------------------------------------------------------------- #
# The workload
# --------------------------------------------------------------------------- #
def connections() -> int:
    """Connections in flight: one per core this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclass
class Session:
    """Everything one run sends and gets back, for the output check."""

    pool: np.ndarray
    expected: Dict[str, np.ndarray]
    sent: List[Tuple[str, Sequence[Outcome], Sequence[np.ndarray]]] = field(default_factory=list)

    def drive(self, server: "ServerProcess", variant: str, requests, offsets=None):
        outcomes = drive(http_sender(server.url), requests, self.pool, offsets, connections())
        self.sent.append((variant, outcomes, requests))
        return outcomes

    def timed_job(self, server: "ServerProcess", variant: str, requests) -> float:
        start = time.perf_counter()
        self.drive(server, variant, requests)
        return time.perf_counter() - start

    def attempted_failed(self) -> Tuple[int, int]:
        attempted = sum(len(requests) for _, _, requests in self.sent)
        failed = sum(count_failures(outcomes, requests, self.expected[variant])
                     for variant, outcomes, requests in self.sent)
        return attempted, failed


def _blocks(requests: List[np.ndarray]) -> List[List[np.ndarray]]:
    size = -(-len(requests) // JOB_BLOCKS)
    return [requests[i:i + size] for i in range(0, len(requests), size)]


def run(root: str, env: Dict[str, str], build_dir: str, seed: int, traced: bool) -> Dict:
    from repro.serve.artifact import read_manifest

    directory = ensure_artifacts(root, build_dir, env)
    paths = {v: os.path.join(directory, f"{v}.npz") for v in ("full_rank", "low_rank")}
    manifests = {v: read_manifest(path) for v, path in paths.items()}
    shape = tuple(manifests["low_rank"]["input_shape"])
    pool = np.random.default_rng([seed, 0]).standard_normal(
        (POOL_SIZE,) + shape).astype(np.float32)
    session = Session(pool, {v: expected_outputs(path, pool) for v, path in paths.items()})
    log_path = os.path.join(build_dir, "serve.log")
    job = request_plan(seed, 1, JOB_REQUESTS, POOL_SIZE)
    job_samples = sum(len(r) for r in job)
    servers: List[ServerProcess] = []

    def launch(variant: str, trace_path: Optional[str] = None) -> Tuple[ServerProcess, float]:
        server = ServerProcess(root, paths[variant], env, log_path, trace_path)
        servers.append(server)
        seconds = server.start()
        session.drive(server, variant, request_plan(seed, 2, WARMUP_REQUESTS, POOL_SIZE))
        return server, seconds

    try:
        if traced:
            out = _traced_run(session, launch, job, seed, build_dir)
        else:
            out = _untraced_run(session, launch, job, job_samples)
    finally:
        for server in servers:
            server.stop()
    out["attempted"], out["failed"] = session.attempted_failed()
    if traced:
        out["layers"]["quality.compression_ratio"] = (
            manifests["full_rank"]["num_parameters"] / manifests["low_rank"]["num_parameters"])
    return out


def _untraced_run(session: Session, launch, job, job_samples: int) -> Dict:
    probe, first = launch("low_rank")
    probe.stop()
    full, second = launch("full_rank")
    low, third = launch("low_rank")
    seconds = {"full_rank": 0.0, "low_rank": 0.0}
    low_outcomes: List[Outcome] = []
    for index, block in enumerate(_blocks(job)):
        order = (("full_rank", full), ("low_rank", low))
        for variant, server in (order if index % 2 == 0 else order[::-1]):
            start = time.perf_counter()
            outcomes = session.drive(server, variant, block)
            seconds[variant] += time.perf_counter() - start
            if variant == "low_rank":
                low_outcomes.extend(outcomes)
    light = class_latency(low_outcomes, job, LIGHT_SIZE)
    heavy = class_latency(low_outcomes, job, HEAVY_SIZE)
    report = [
        f"set-up (launch -> /healthz ok): {first:.3f} s, {second:.3f} s, {third:.3f} s",
        f"closed-loop job ({len(job)} requests, {job_samples} samples, "
        f"{connections()} connections, {JOB_BLOCKS} alternating blocks): "
        f"full_rank {seconds['full_rank']:.3f} s, low_rank {seconds['low_rank']:.3f} s",
        f"low_rank latency: light p50 {light[0]:.1f} ms p{light[1]:g} {light[2]:.1f} ms; "
        f"heavy p50 {heavy[0]:.1f} ms p{heavy[1]:g} {heavy[2]:.1f} ms",
    ]
    metrics = {
        "setup_s": median([first, second, third]),
        "wall_s": seconds["low_rank"],
        "full_rank_samples_per_s": job_samples / seconds["full_rank"],
        "low_rank_samples_per_s": job_samples / seconds["low_rank"],
        "peak_rss_mb": low.peak_rss_mb(),
    }
    return {"metrics": metrics, "report": report}


def _traced_run(session: Session, launch, job, seed: int, build_dir: str) -> Dict:
    from repro.serve.client import ServeClient

    # The tracing overhead: one job block, served untraced then traced.
    block = _blocks(job)[0]
    plain, _ = launch("low_rank")
    untraced_s = session.timed_job(plain, "low_rank", block)
    plain.stop()
    server, _ = launch("low_rank", os.path.join(build_dir, "serve-trace.json"))
    traced_s = session.timed_job(server, "low_rank", block)
    client = ServeClient(server.url, timeout=10.0, retries=0)
    rows = []
    for stream, rate in enumerate(LADDER_RPS, start=10):
        requests = request_plan(seed, stream, int(round(rate * RUNG_SECONDS)), POOL_SIZE)
        offsets = open_loop_arrivals(seed, stream, rate, RUNG_SECONDS)
        before = client.metrics()
        outcomes = session.drive(server, "low_rank", requests, offsets)
        after = client.metrics()
        end = outcomes[0].due - offsets[0] + RUNG_SECONDS
        row = server_rung_metrics(before, after, outcomes, MAX_BATCH_SIZE)
        row["rate"] = rate
        row["valid"] = row["serve.gen_late_ms"] <= GEN_LATE_LIMIT_MS
        row["meets_slo"] = rung_meets_slo(outcomes, end)
        row["light"] = class_latency(outcomes, requests, LIGHT_SIZE)
        row["heavy"] = class_latency(outcomes, requests, HEAVY_SIZE)
        rows.append(row)
    slo_rps = 0.0
    for row in rows:
        if not row["valid"]:
            continue
        if not row["meets_slo"]:
            break
        slo_rps = row["rate"]
    nominal = next(row for row in rows if row["rate"] == NOMINAL_RPS)
    layers = {key: value for key, value in nominal.items() if key.startswith("serve.")}
    layers["serve.slo_rps"] = slo_rps
    layers["serve.invalid_rungs"] = float(sum(1 for row in rows if not row["valid"]))
    layers["trace.overhead_s"] = traced_s - untraced_s
    report = [f"tracing overhead on {len(block)} closed-loop requests: {traced_s:.3f} s traced "
              f"vs {untraced_s:.3f} s untraced",
              "rung req/s | light p50/tail ms | heavy p50/tail ms | queue ms | "
              "compute ms | batch | util | http ms | late p99 ms | SLO"]
    for row in rows:
        report.append(
            f"{row['rate']:8g} | {row['light'][0]:6.1f} / {row['light'][2]:6.1f} | "
            f"{row['heavy'][0]:6.1f} / {row['heavy'][2]:6.1f} | "
            f"{row['serve.queue_wait_ms']:6.1f} | {row['serve.compute_ms']:6.1f} | "
            f"{row['serve.batch_size']:5.2f} | {row['serve.worker_utilization']:4.2f} | "
            f"{row['serve.http_overhead_ms']:6.1f} | {row['serve.gen_late_ms']:6.1f} | "
            + ("met" if row["meets_slo"] else "missed")
            + ("" if row["valid"] else " (invalid: generator-bound)"))
    report.append(f"slo_rps (tail <= {SLO_TAIL_MS:g} ms, no backlog): {slo_rps:g}")
    return {"layers": layers, "report": report}
