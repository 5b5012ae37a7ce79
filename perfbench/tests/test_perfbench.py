"""Tests of the benchmark itself: its declaration, its results, its
latency accounting and its output checks.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import layers  # noqa: E402
import run  # noqa: E402
import serve_http  # noqa: E402
import stats  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# --------------------------------------------------------------------------- #
# The declaration
# --------------------------------------------------------------------------- #
def test_declaration_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_metric_names(spec):
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
             for m in spec[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")


def test_layer_metrics_are_declared(spec):
    declared = {m["name"] for m in spec["per_layer"]}
    assert set(layers.TRAINING_METRICS) <= declared
    serve_names = {"serve.queue_wait_ms", "serve.compute_ms", "serve.batch_size",
                   "serve.batch_fill", "serve.worker_utilization",
                   "serve.http_overhead_ms", "serve.rejected", "serve.gen_late_ms"}
    assert serve_names <= declared


# --------------------------------------------------------------------------- #
# The emitted results
# --------------------------------------------------------------------------- #
def _last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_emitted_result_matches_declaration(spec):
    """One real (shortest) run: its last line lists exactly the end-to-end
    metrics, with their declared units, and counts its repetitions."""
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", "train-deit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = _last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == units
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)) and entry["value"] > 0, name


def test_build_result_refuses_a_missing_metric(spec):
    values = {m["name"]: 1.0 for m in spec["end_to_end"]}
    document = run.build_result(spec, "w", {"metrics": values, "attempted": 3,
                                            "failed": 1}, traced=False)
    assert document["correct"] is False and document["attempted"] == 3
    assert list(document["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    del values["wall_s"]
    with pytest.raises(RuntimeError, match="wall_s"):
        run.build_result(spec, "w", {"metrics": values, "attempted": 1, "failed": 0},
                         traced=False)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-resnet",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={"PATH": os.environ.get("PATH", "")})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --------------------------------------------------------------------------- #
# Due-time latency accounting against a fake slow server
# --------------------------------------------------------------------------- #
SERVICE_S = 0.1


class _SlowServer:
    """Answers ``/predict`` one request at a time, ``SERVICE_S`` each."""

    def __init__(self):
        lock = threading.Lock()

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):  # noqa: N802
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with lock:
                    time.sleep(SERVICE_S)
                inputs = np.asarray(body["inputs"], dtype=np.float32)
                encoded = json.dumps({"outputs": inputs.reshape(len(inputs), -1)[:, :2]
                                      .tolist()}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(encoded)))
                self.end_headers()
                self.wfile.write(encoded)

            def log_message(self, *args):
                pass

        self.http = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.http.daemon_threads = True
        self.thread = threading.Thread(target=self.http.serve_forever, daemon=True)
        self.thread.start()
        self.url = "http://127.0.0.1:%d" % self.http.server_address[1]

    def close(self):
        self.http.shutdown()
        self.http.server_close()
        self.thread.join(timeout=10)


@pytest.fixture
def slow_server():
    server = _SlowServer()
    yield server
    server.close()


def test_latency_counts_from_due_time(slow_server):
    """Three requests all due at once, one connection: the second and third
    wait behind the first, and their latency must include that wait."""
    pool = np.arange(12, dtype=np.float32).reshape(4, 3)
    requests = [np.array([0]), np.array([1]), np.array([2, 3])]
    outcomes = serve_http.drive(serve_http.http_sender(slow_server.url), requests, pool,
                                np.zeros(3), connections=1)
    latencies = [o.latency_ms for o in outcomes]
    for position, latency in enumerate(latencies, start=1):
        assert position * 1e3 * SERVICE_S <= latency < (position + 0.5) * 1e3 * SERVICE_S
    for outcome in outcomes:
        assert outcome.error is None
        assert 1e3 * SERVICE_S <= outcome.round_trip_ms < 1.5e3 * SERVICE_S
        # The connection was busy, not the generator: no generator lateness.
        assert outcome.late_ms < 20.0
    np.testing.assert_array_equal(outcomes[2].outputs, pool[[2, 3], :2])


def test_open_loop_keeps_its_schedule(slow_server):
    """Requests due 0.3 s apart against a 0.1 s server never queue."""
    pool = np.ones((2, 3), dtype=np.float32)
    outcomes = serve_http.drive(serve_http.http_sender(slow_server.url),
                                [np.array([0])] * 3, pool, np.array([0.0, 0.3, 0.6]),
                                connections=2)
    starts = [o.sent - outcomes[0].sent for o in outcomes]
    assert starts == pytest.approx([0.0, 0.3, 0.6], abs=0.03)
    for outcome in outcomes:
        assert outcome.latency_ms < 1.5e3 * SERVICE_S


def test_arrivals_are_seeded_and_exact():
    first = serve_http.open_loop_arrivals(5, 1, 8.0, 10.0)
    np.testing.assert_array_equal(first, serve_http.open_loop_arrivals(5, 1, 8.0, 10.0))
    assert len(first) == 80 and 0.0 <= first[0] and first[-1] < 10.0
    assert not np.array_equal(first, serve_http.open_loop_arrivals(6, 1, 8.0, 10.0))
    plan = serve_http.request_plan(5, 1, 50, 64)
    assert {len(r) for r in plan} <= set(serve_http.REQUEST_SIZES)
    assert all(np.array_equal(a, b) for a, b in zip(plan, serve_http.request_plan(5, 1, 50, 64)))


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def test_serve_check_catches_a_wrong_answer():
    expected = np.random.default_rng(0).standard_normal((8, 4)).astype(np.float32) * 20
    requests = [np.array([0, 1]), np.array([2]), np.array([3, 4, 5])]

    def outcome(outputs=None, error=None):
        return serve_http.Outcome(due=0.0, outputs=outputs, error=error)

    right = [outcome(expected[r]) for r in requests]
    assert serve_http.count_failures(right, requests, expected) == 0
    # A few float32 ulps of batch-shape rounding are not a wrong answer ...
    rounded = [outcome(np.nextafter(expected[r], np.inf)) for r in requests]
    assert serve_http.count_failures(rounded, requests, expected) == 0
    # ... a wrong answer, a missing one or a failed request is.
    wrong = [outcome(expected[r]) for r in requests]
    wrong[1].outputs = wrong[1].outputs + 1e-2
    wrong[2].outputs = expected[[3, 4, 6]]
    assert serve_http.count_failures(wrong, requests, expected) == 2
    failed = [outcome(error="ServeClientError: HTTP 503"), outcome(None), right[2]]
    assert serve_http.count_failures(failed, requests, expected) == 2


def _training_record(**changes):
    outputs = {"val_accuracy": 0.5, "compression_ratio": 1.7, "switch_epoch": 3,
               "k_hat": 5, "losses_finite": True, "epochs": 6, "epochs_planned": 6,
               "min_switch": 2, "max_switch": 3}
    outputs.update(changes)
    return {"outputs": outputs}


def test_training_check_catches_a_wrong_answer():
    invariants = {"k_hat": 5}
    pinned = {"val_accuracy": 0.5, "compression_ratio": 1.7, "switch_epoch": 3, "k_hat": 5}
    assert run.check_training(_training_record(), None, pinned, invariants) == []
    problems = run.check_training(_training_record(val_accuracy=0.5078125), None,
                                  pinned, invariants)
    assert len(problems) == 1 and "val_accuracy" in problems[0]
    assert run.check_training(_training_record(losses_finite=False), None, None, invariants)
    assert run.check_training(_training_record(switch_epoch=5), None, None, invariants)
    assert run.check_training(_training_record(k_hat=4), None, None, invariants)
    # An unpinned seed is still held to the first repetition's answer.
    first = _training_record()["outputs"]
    assert run.check_training(_training_record(compression_ratio=1.8), first, None,
                              invariants)


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def test_tail_leaves_ten_samples_beyond():
    assert stats.tail(list(range(24)))[0] == 50.0
    assert stats.tail(list(range(40)))[0] == 75.0
    assert stats.tail(list(range(100)))[0] == 90.0
    assert stats.tail(list(range(1000)))[0] == 99.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5


def test_uncovered_share_merges_overlaps():
    base_ns = 0
    events = [{"name": "a", "ts_us": 0.0, "dur_us": 4e5},        # 0.0 - 0.4 s
              {"name": "b", "ts_us": 2e5, "dur_us": 4e5},        # 0.2 - 0.6 s
              {"name": "skip", "ts_us": 6e5, "dur_us": 4e5}]     # not a layer
    share = layers.uncovered_share(events, (0.0, 1.0), base_ns, {"a", "b"})
    assert share == pytest.approx(0.4)
