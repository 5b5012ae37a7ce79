"""Traffic shapes, open-loop load generation, and client retry behaviour
(repro.serve.{loadgen,client}): bit-reproducible arrival schedules and
jittered-backoff retries that fail loudly when the budget runs out."""

import http.server
import json
import threading
from collections import Counter

import numpy as np
import pytest

from repro.serve import (
    ServeClient,
    ServeClientError,
    TrafficShape,
    arrival_times,
    run_open_loop,
)


# --------------------------------------------------------------------------- #
# Traffic shapes
# --------------------------------------------------------------------------- #
class TestTrafficShape:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown traffic shape"):
            TrafficShape(kind="tsunami")
        with pytest.raises(ValueError):
            TrafficShape(mean_rps=0.0)
        with pytest.raises(ValueError):
            TrafficShape(amplitude=1.5)
        with pytest.raises(ValueError):
            TrafficShape(kind="burst", burst_factor=6.0, burst_duty=0.2)
        with pytest.raises(ValueError, match="pareto_alpha"):
            TrafficShape(kind="heavy_tail", pareto_alpha=0.9)

    @pytest.mark.parametrize("kind", ["constant", "diurnal", "burst", "heavy_tail"])
    def test_schedule_is_bit_reproducible(self, kind):
        shape = TrafficShape(kind=kind, mean_rps=150.0, duration_s=3.0, seed=11)
        first = arrival_times(shape)
        second = arrival_times(shape)
        assert np.array_equal(first, second)
        assert len(first) > 0
        assert np.all(np.diff(first) >= 0.0)
        assert first[0] >= 0.0 and first[-1] < shape.duration_s

    @pytest.mark.parametrize("kind", ["constant", "diurnal", "burst", "heavy_tail"])
    def test_mean_rate_is_respected(self, kind):
        shape = TrafficShape(kind=kind, mean_rps=200.0, duration_s=5.0, seed=4,
                             period_s=1.0)
        rate = len(arrival_times(shape)) / shape.duration_s
        # Whole periods fit the duration, so the realized mean should sit
        # near the nominal one for every shape (heavy-tail is the noisiest).
        assert 0.5 * shape.mean_rps < rate < 1.6 * shape.mean_rps

    def test_different_seeds_give_different_schedules(self):
        a = arrival_times(TrafficShape(mean_rps=100.0, duration_s=2.0, seed=1))
        b = arrival_times(TrafficShape(mean_rps=100.0, duration_s=2.0, seed=2))
        n = min(len(a), len(b))
        assert not np.array_equal(a[:n], b[:n])

    def test_burst_concentrates_arrivals_in_duty_window(self):
        shape = TrafficShape(kind="burst", mean_rps=200.0, duration_s=4.0,
                             seed=3, period_s=1.0, burst_factor=4.0,
                             burst_duty=0.2)
        times = arrival_times(shape)
        in_burst = (np.mod(times, shape.period_s) / shape.period_s
                    < shape.burst_duty).mean()
        # 20% of the time carries 80% of the arrivals at factor 4.
        assert in_burst > 0.6

    def test_heavy_tail_has_heavier_gap_tail_than_constant(self):
        heavy = arrival_times(TrafficShape(kind="heavy_tail", mean_rps=200.0,
                                           duration_s=5.0, seed=9,
                                           pareto_alpha=1.3))
        const = arrival_times(TrafficShape(kind="constant", mean_rps=200.0,
                                           duration_s=5.0, seed=9))
        ratio_heavy = np.percentile(np.diff(heavy), 99) / np.median(np.diff(heavy))
        ratio_const = np.percentile(np.diff(const), 99) / np.median(np.diff(const))
        assert ratio_heavy > ratio_const


# --------------------------------------------------------------------------- #
# Open-loop driver
# --------------------------------------------------------------------------- #
class TestOpenLoop:
    def test_all_arrivals_fire_and_offered_rate_reported(self):
        seen = []
        lock = threading.Lock()

        def send(sample):
            with lock:
                seen.append(float(sample[0]))

        samples = np.arange(8, dtype=np.float32).reshape(8, 1)
        arrivals = arrival_times(TrafficShape(mean_rps=400.0, duration_s=0.5,
                                              seed=5))
        result = run_open_loop(send, samples, arrivals, max_inflight=4,
                               transport="unit")
        assert result.requests == len(arrivals) == len(seen)
        assert result.errors == 0
        assert result.offered_rps == pytest.approx(len(arrivals) / arrivals[-1])
        # Round-robin over the sample pool.  Senders complete out of
        # order, so compare the multiset, not the sequence.
        assert Counter(seen) == Counter(float(i % 8) for i in range(len(arrivals)))

    def test_send_errors_are_counted_not_raised(self):
        def flaky(sample):
            raise ServeClientError(503, {"error": "full"})

        arrivals = np.linspace(0.0, 0.05, 20)
        result = run_open_loop(flaky, np.zeros((4, 1), np.float32), arrivals,
                               max_inflight=4)
        assert result.requests == 0
        assert result.errors == 20

    def test_rejects_empty_schedule(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_open_loop(lambda s: None, np.zeros((1, 1), np.float32),
                          np.array([]))


# --------------------------------------------------------------------------- #
# Client retry behaviour (against a scripted stdlib HTTP server)
# --------------------------------------------------------------------------- #
class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Replays a per-server list of (status, body) responses, then 200s."""

    script = []
    hits = 0

    def _respond(self):
        cls = type(self)
        cls.hits += 1
        if cls.script:
            status, body = cls.script.pop(0)
        else:
            status, body = 200, {"outputs": [[1.0]]}
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):
        self._respond()

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self._respond()

    def log_message(self, *args):  # noqa: D102 — silence test noise
        pass


@pytest.fixture
def scripted_server():
    created = []

    def start(script):
        handler = type("Handler", (_ScriptedHandler,),
                       {"script": list(script), "hits": 0})
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        created.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}", handler

    yield start
    for server in created:
        server.shutdown()
        server.server_close()


class TestClientRetry:
    def test_retries_503_then_succeeds(self, scripted_server):
        url, handler = scripted_server([(503, {"error": "busy", "retry": True})])
        client = ServeClient(url, retries=2, backoff_base_s=0.001)
        out = client.predict_one(np.zeros(1, dtype=np.float32))
        assert out.shape == (1, 1)
        assert handler.hits == 2

    def test_final_error_is_loud_after_budget_exhausted(self, scripted_server):
        url, handler = scripted_server([(503, {"error": "busy"})] * 10)
        client = ServeClient(url, retries=2, backoff_base_s=0.001)
        with pytest.raises(ServeClientError) as excinfo:
            client.healthz()
        assert excinfo.value.attempts == 3
        assert handler.hits == 3
        message = str(excinfo.value)
        assert "gave up after 3 attempts" in message and url in message

    def test_retry_false_fails_fast(self, scripted_server):
        url, handler = scripted_server(
            [(503, {"error": "shutting down", "retry": False})] * 5)
        client = ServeClient(url, retries=5, backoff_base_s=0.001)
        with pytest.raises(ServeClientError) as excinfo:
            client.healthz()
        assert handler.hits == 1          # no retry against a closing server
        assert excinfo.value.attempts == 1

    def test_non_retryable_status_fails_immediately(self, scripted_server):
        url, handler = scripted_server([(400, {"error": "bad input"})] * 3)
        client = ServeClient(url, retries=3, backoff_base_s=0.001)
        with pytest.raises(ServeClientError) as excinfo:
            client.predict(np.zeros((1, 1), dtype=np.float32))
        assert excinfo.value.status == 400
        assert handler.hits == 1

    def test_json_only_server_gets_only_json(self, scripted_server, sent_requests):
        """No probe, no switch: a server that never answers in npy keeps
        getting JSON bodies, one request per predict."""
        url, handler = scripted_server([])
        client = ServeClient(url, retries=0)
        for _ in range(3):
            assert client.predict(np.zeros((1, 1), dtype=np.float32)).shape == (1, 1)
        assert client.predict_one(np.zeros(1, dtype=np.float32), priority=2).shape == (1, 1)
        assert [(r.get_header("Content-type"), r.get_header("Accept"))
                for r in sent_requests] == [
            ("application/json", "application/x-npy, application/json")] * 4
        for request in sent_requests:
            json.loads(request.data)
        assert handler.hits == 4

    def test_connection_refused_retries_then_reports_transport_error(self):
        client = ServeClient("http://127.0.0.1:9",    # discard port: refused
                             retries=1, backoff_base_s=0.001, timeout=1.0)
        with pytest.raises(ServeClientError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        assert excinfo.value.attempts == 2
