"""HTTP inference server (repro.serve.server): endpoints, parity, metrics,
error handling, request framing, the JSON and npy wires, and concurrent
clients — all over a real ThreadingHTTPServer on an ephemeral port."""

import http.client
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import factorize_model, full_rank_of
from repro.models import build_model
from repro.serve import (
    BatchingPolicy,
    ModelServer,
    Predictor,
    ServeClient,
    ServeClientError,
    export_artifact,
    load_artifact,
)
from repro.telemetry import tracing
from repro.tensor import no_grad
from repro.utils import active_owned_segments, get_rng, seed_everything
from repro.utils.concurrency import fork_available

MLP_SPEC = {"name": "mlp",
            "kwargs": {"in_features": 20, "hidden_sizes": [40, 40], "num_classes": 6}}

JSON = "application/json"
NPY = "application/x-npy"

#: The benchmark's input: the ResNet cell serves 3x16x16 images.
CELL_SHAPE = (3, 16, 16)

PROCESS = pytest.param("process", marks=pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"))


def npy_body(array, **kwargs):
    stream = io.BytesIO()
    np.lib.format.write_array(stream, array, **kwargs)
    return stream.getvalue()


def post(url, body, content_type, accept=None):
    """One raw POST; ``(status, response media type, response body)``."""
    headers = {"Content-Type": content_type}
    if accept:
        headers["Accept"] = accept
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.headers.get_content_type(), response.read()
    except urllib.error.HTTPError as error:
        try:
            return error.code, error.headers.get_content_type(), error.read()
        finally:
            error.close()


def npy_header(shape):
    """A format-1.0 ``<f4`` header declaring ``shape`` (a tuple, or the
    text of one), padded as numpy pads it, with no payload."""
    text = f"{{'descr': '<f4', 'fortran_order': False, 'shape': {shape}, }}".encode()
    text += b" " * (-(len(text) + 11) % 64) + b"\n"
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text


def wait_until(condition, timeout=10.0):
    deadline = time.perf_counter() + timeout
    while not condition():
        if time.perf_counter() > deadline:
            return False
        time.sleep(0.005)
    return True


class HoldFirstBatch(Predictor):
    """A predictor whose first batch waits until ``release`` is set, so the
    requests sent meanwhile queue up behind it: the engine never waits for
    arrivals, so this is how a test builds a backlog."""

    def __init__(self, model, **kwargs):
        super().__init__(model, **kwargs)
        self.entered, self.release = threading.Event(), threading.Event()

    def __call__(self, batch):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(timeout=10.0)
        return super().__call__(batch)


def exchange(connection, method, path, body=b""):
    """One request on a raw ``http.client`` connection; ``(status, body)``."""
    connection.request(method, path, body=body, headers={"Content-Type": JSON})
    response = connection.getresponse()
    return response.status, response.read()


def resnet_cell():
    """The factorized ResNet-18 x0.125 cell, ready to serve 3x16x16 inputs."""
    seed_everything(5)
    model = build_model("resnet18", num_classes=10, width_mult=0.125, small_input=True)
    paths = [p for p in model.factorization_candidates()
             if p.startswith(("layer1.", "layer2.", "layer3."))]
    ranks = {p: max(1, full_rank_of(model.get_submodule(p)) // 4) for p in paths}
    factorize_model(model, ranks, skip_non_reducing=False)
    model.eval()
    return model


@pytest.fixture
def cell_server():
    """A thread-mode server of the ResNet cell."""
    predictor = Predictor(resnet_cell(), manifest={"input_shape": list(CELL_SHAPE)})
    with ModelServer(predictor, port=0) as instance:
        yield instance


@pytest.fixture
def mlp_artifact(tmp_path):
    seed_everything(21)
    model = build_model(MLP_SPEC["name"], **MLP_SPEC["kwargs"])
    model.eval()
    path = str(tmp_path / "mlp.npz")
    export_artifact(path, model, model_spec=MLP_SPEC, input_shape=(20,))
    return path, model


@pytest.fixture
def server(mlp_artifact):
    path, model = mlp_artifact
    instance = ModelServer(path, policy=BatchingPolicy(max_batch_size=8), port=0)
    instance.start()
    yield instance, model
    instance.stop()


class TestEndpoints:
    def test_healthz(self, server):
        instance, _ = server
        with ServeClient(instance.url) as client:
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["model"] == "mlp"
        assert health["uptime_s"] >= 0.0

    def test_predict_batch_bit_identical_to_direct_model(self, server):
        instance, model = server
        x = get_rng(offset=2).standard_normal((8, 20)).astype(np.float32)
        with no_grad():
            direct = model(x).data
        with ServeClient(instance.url) as client:
            out = client.predict(x)
        np.testing.assert_array_equal(out, direct)

    def test_predict_single_input_spelling(self, server):
        instance, model = server
        x = get_rng(offset=2).standard_normal((8, 20)).astype(np.float32)
        with no_grad():
            direct = model(x).data
        with ServeClient(instance.url) as client:
            single = client.predict_one(x[0])
        # One-at-a-time must agree with the batch rows (canonicalized geometry).
        np.testing.assert_array_equal(single, direct[0])

    def test_predict_returns_argmax(self, server):
        instance, model = server
        x = get_rng(offset=2).standard_normal((4, 20)).astype(np.float32)
        with ServeClient(instance.url) as client:
            body = client._request("/predict", {"inputs": x.tolist()})
        with no_grad():
            expected = np.argmax(model(x).data, axis=-1)
        assert body["argmax"] == [int(i) for i in expected]
        assert body["batched_samples"] == 4

    def test_metrics_populated_after_traffic(self, server):
        instance, _ = server
        x = get_rng(offset=2).standard_normal((4, 20)).astype(np.float32)
        with ServeClient(instance.url) as client:
            for i in range(4):
                client.predict_one(x[i])
            metrics = client.metrics()
        assert metrics["http"]["requests_total"] >= 4
        assert metrics["engine"]["requests_total"] >= 4
        assert metrics["e2e_latency_ms"]["count"] >= 4
        assert metrics["e2e_latency_ms"]["p99"] >= metrics["e2e_latency_ms"]["p50"] >= 0
        histogram = metrics["engine"]["batch_size_histogram"]
        assert sum(histogram.values()) == metrics["engine"]["batches_total"]

    def test_healthz_reports_queue_and_worker_liveness(self, server):
        instance, _ = server
        with ServeClient(instance.url) as client:
            health = client.healthz()
        assert health["queue_depth"] == 0
        assert health["worker_alive"] is True
        assert health["status"] == "ok"

    def test_healthz_degraded_when_worker_dead(self, mlp_artifact):
        path, _ = mlp_artifact
        instance = ModelServer(path, port=0)
        try:
            instance.batcher.close()  # worker exits; HTTP layer still up
            status, body = instance.handle_healthz()
            assert status == 200
            assert body["status"] == "degraded"
            assert body["worker_alive"] is False
        finally:
            instance.stop()

    def test_metrics_carries_validated_telemetry_snapshot(self, server):
        from repro.telemetry import validate_snapshot

        instance, _ = server
        x = get_rng(offset=2).standard_normal((2, 20)).astype(np.float32)
        with ServeClient(instance.url) as client:
            client.predict(x)
            snapshot = client.metrics()["telemetry"]
        validate_snapshot(snapshot)
        assert snapshot["namespace"] == "serve"
        assert snapshot["counters"]["requests_total"] >= 1
        assert snapshot["latency_ms"]["e2e_latency"]["count"] >= 1
        assert snapshot["collected"]["batcher_worker"]["alive"] is True

    def test_metrics_prometheus_exposition(self, server):
        import urllib.request

        instance, _ = server
        x = get_rng(offset=2).standard_normal((2, 20)).astype(np.float32)
        with ServeClient(instance.url) as client:
            client.predict(x)
        with urllib.request.urlopen(
                f"{instance.url}/metrics?format=prometheus", timeout=30) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        assert "# TYPE serve_requests_total counter" in text
        assert "serve_http_requests_total" in text
        assert 'serve_e2e_latency_ms{quantile="99"}' in text
        assert "serve_batch_sizes_bucket" in text

    def test_unknown_route_404(self, server):
        instance, _ = server
        with ServeClient(instance.url) as client, \
                pytest.raises(ServeClientError) as excinfo:
            client._request("/nope")
        assert excinfo.value.status == 404

    def test_malformed_body_400(self, server):
        instance, _ = server
        with ServeClient(instance.url) as client, \
                pytest.raises(ServeClientError) as excinfo:
            client._request("/predict", {"wrong_key": [1, 2, 3]})
        assert excinfo.value.status == 400

    def test_wrong_sample_shape_400(self, server):
        instance, _ = server
        with ServeClient(instance.url) as client, \
                pytest.raises(ServeClientError) as excinfo:
            client.predict(np.zeros((2, 7), dtype=np.float32))
        assert excinfo.value.status == 400
        assert "shape" in excinfo.value.body["error"]

    def test_deeply_nested_json_body_400(self, server):
        instance, _ = server
        status, media, reply = post(f"{instance.url}/predict",
                                    b"[" * 100_000 + b"]" * 100_000, JSON)
        assert (status, media) == (400, JSON)
        assert json.loads(reply)["error"].startswith("invalid JSON body")

    def test_ragged_inputs_400(self, server):
        instance, _ = server
        with ServeClient(instance.url) as client, \
                pytest.raises(ServeClientError) as excinfo:
            client._request("/predict", {"inputs": [[1.0, 2.0], [3.0]]})
        assert excinfo.value.status == 400


class TestConcurrentClients:
    def test_parallel_single_requests_bit_identical(self, mlp_artifact):
        path, model = mlp_artifact
        x = get_rng(offset=3).standard_normal((24, 20)).astype(np.float32)
        with no_grad():
            direct = model(x).data
        loaded = load_artifact(path)
        predictor = HoldFirstBatch(loaded.model, manifest=loaded.manifest)
        results = [None] * 24
        errors = []

        def hit(i):
            try:
                with ServeClient(instance.url) as client:
                    results[i] = client.predict_one(x[i])
            except Exception as error:  # noqa: BLE001 - collected for assertion
                errors.append(error)

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(24)]
        with ModelServer(predictor, policy=BatchingPolicy(max_batch_size=8),
                         port=0) as instance:
            threads[0].start()
            assert predictor.entered.wait(timeout=10.0)
            for t in threads[1:]:
                t.start()
            assert wait_until(lambda: instance.batcher.queue_depth == 23)
            predictor.release.set()
            for t in threads:
                t.join()
            stats = instance.batcher.stats()
        assert not errors
        np.testing.assert_array_equal(np.stack(results), direct)
        # 24 singles through a max-batch-8 engine: the held one alone, then
        # the 23 queued behind it as 8 + 8 + 7.
        assert stats["batches_total"] == 4


class TestKeepAlive:
    def test_one_client_opens_one_connection(self, server):
        instance, _ = server
        x = get_rng(offset=2).standard_normal((20, 20)).astype(np.float32)
        with ServeClient(instance.url) as client:
            for sample in x:
                client.predict_one(sample)
            counters = client.metrics()["http"]
        assert counters["requests_total"] == 20
        assert counters["connections_total"] == 1

    def test_kept_alive_responses_are_not_held_by_nagle(self, server):
        """Headers and body are two writes.  With Nagle on, a reused
        connection holds the body until the client's delayed ACK (~40 ms)."""
        instance, _ = server
        body = json.dumps({"input": [0.0] * 20}).encode()
        connection = http.client.HTTPConnection(*instance.address, timeout=10)
        round_trips = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                assert exchange(connection, "POST", "/predict", body)[0] == 200
                round_trips.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert 1e3 * float(np.median(round_trips)) < 25.0

    def test_stop_with_an_idle_connection_leaks_nothing(self, mlp_artifact, leak_ledger):
        """A kept-alive client that sends nothing more leaves its handler
        blocked on the next request line: stop() must end it."""
        path, _ = mlp_artifact
        instance = ModelServer(path, port=0).start()
        connection = http.client.HTTPConnection(*instance.address, timeout=10)
        try:
            assert exchange(connection, "GET", "/healthz")[0] == 200
            stopper = threading.Thread(target=instance.stop, name="stopper")
            stopper.start()
            stopper.join(timeout=15.0)
            assert not stopper.is_alive(), "stop() hung on an idle connection"
            # With the client still connected, only its own socket remains.
            client_fd = f"fd {connection.sock.fileno()} "
            assert [leak for leak in leak_ledger.leaks()
                    if not leak.startswith(client_fd)] == []
        finally:
            connection.close()
        assert leak_ledger.leaks() == []


class TestFactorizedServing:
    def test_low_rank_artifact_served_bit_identically(self, tmp_path):
        seed_everything(5)
        model = build_model("resnet18", num_classes=10, width_mult=0.125)
        paths = [p for p in model.factorization_candidates()
                 if p.startswith(("layer1.", "layer2.", "layer3."))]
        ranks = {p: max(1, full_rank_of(model.get_submodule(p)) // 4) for p in paths}
        factorize_model(model, ranks, skip_non_reducing=False)
        model.eval()
        path = str(tmp_path / "lowrank.npz")
        export_artifact(path, model,
                        model_spec={"name": "resnet18",
                                    "kwargs": {"num_classes": 10, "width_mult": 0.125}},
                        input_shape=(3, 32, 32))

        x = get_rng(offset=6).standard_normal((8, 3, 32, 32)).astype(np.float32)
        with no_grad():
            direct = model(x).data
        server = ModelServer(path, policy=BatchingPolicy(max_batch_size=8), port=0)
        server.start()
        try:
            with ServeClient(server.url) as client:
                np.testing.assert_array_equal(client.predict(x), direct)      # batched
                np.testing.assert_array_equal(client.predict_one(x[3]), direct[3])  # unbatched
        finally:
            server.stop()


class TestLifecycle:
    def test_stop_drains_and_rejects_new_work(self, mlp_artifact):
        path, _ = mlp_artifact
        instance = ModelServer(path, port=0).start()
        with ServeClient(instance.url) as client:
            client.predict_one(np.zeros(20, dtype=np.float32))
            instance.stop()
            with pytest.raises((ServeClientError, OSError)):
                client.predict_one(np.zeros(20, dtype=np.float32))

    def test_stop_without_start_returns_promptly(self, mlp_artifact):
        path, _ = mlp_artifact
        instance = ModelServer(path, port=0)
        done = threading.Event()

        def stopper():
            instance.stop()
            done.set()

        threading.Thread(target=stopper, daemon=True).start()
        assert done.wait(timeout=5.0), "stop() hung on a never-started server"

    def test_context_manager(self, mlp_artifact):
        path, _ = mlp_artifact
        with ModelServer(path, port=0) as instance, ServeClient(instance.url) as client:
            assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize("mode", [
        "thread",
        pytest.param("process", marks=pytest.mark.skipif(
            not fork_available(), reason="fork start method unavailable")),
    ])
    def test_busy_port_releases_the_batcher(self, mlp_artifact, mode, leak_ledger):
        path, _ = mlp_artifact
        predictor = load_artifact(path)
        originals = [p.data for p in predictor.model.parameters()]
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            with pytest.raises(OSError):
                ModelServer(predictor, port=busy.getsockname()[1], workers=2, mode=mode)
        # No batcher thread, engine child, segment or socket survives, and
        # the weights are back on the heap.
        assert leak_ledger.leaks() == []
        assert active_owned_segments() == []
        assert all(p.data is original
                   for p, original in zip(predictor.model.parameters(), originals))

    def test_serves_predictor_and_in_memory_model(self, mlp_artifact):
        path, model = mlp_artifact
        predictor = load_artifact(path)
        with ModelServer(predictor, port=0) as instance, ServeClient(instance.url) as client:
            assert client.healthz()["status"] == "ok"
        with ModelServer(model, port=0, name="inmem") as instance, \
                ServeClient(instance.url) as client:
            assert client.healthz()["model"] == "inmem"


class TestPoolServing:
    def test_healthz_reports_pool_size_and_liveness(self, mlp_artifact):
        path, _ = mlp_artifact
        with ModelServer(path, port=0, workers=2) as instance, \
                ServeClient(instance.url) as client:
            health = client.healthz()
            assert health["workers"] == 2
            assert health["workers_alive"] == 2
            assert health["status"] == "ok"

    def test_pooled_predictions_bit_identical_to_single(self, mlp_artifact):
        path, model = mlp_artifact
        x = get_rng(offset=5).standard_normal((12, 20)).astype(np.float32)
        with no_grad():
            direct = model(x).data
        with ModelServer(path, port=0, workers=3,
                         policy=BatchingPolicy(max_batch_size=4)) as instance, \
                ServeClient(instance.url) as client:
            out = client.predict(x)
        assert np.array_equal(out, direct)

    def test_priority_field_accepted_and_bad_priority_400(self, mlp_artifact, sent_requests,
                                                          monkeypatch):
        path, _ = mlp_artifact
        with ModelServer(path, port=0) as instance:
            admission = instance.batcher.admission
            admitted = []
            original = admission.admit

            def spy(request, timeout):
                admitted.append(request.priority)
                return original(request, timeout)

            monkeypatch.setattr(admission, "admit", spy)
            with ServeClient(instance.url) as client:
                # A JSON "priority" field, then ?priority=3 once on the npy wire.
                for _ in range(2):
                    out = client.predict_one(np.zeros(20, dtype=np.float32), priority=3)
                    assert out.shape == (6,)
            assert admitted == [3, 3]
            second = sent_requests[1]
            assert second.headers["Content-Type"] == NPY
            assert second.url == "/predict?priority=3"
            # Only a JSON integer (not a bool) or the digits of ?priority=N.
            for bad in ("urgent", "3", float("inf"), 2.9, True):
                status, body = instance.handle_predict(
                    {"input": [0.0] * 20, "priority": bad})
                assert status == 400, bad
                assert "priority" in body["error"]
            for bad in ("urgent", "-1", "2.9"):
                status, media, reply = post(f"{instance.url}/predict?priority={bad}",
                                            npy_body(np.zeros((1, 20), np.float32)), NPY)
                assert (status, media) == (400, JSON), bad
                assert "priority" in json.loads(reply)["error"]
            # 1e999 decodes to inf, and int(inf) raises OverflowError.
            body = b'{"input": [' + b", ".join([b"0.0"] * 20) + b'], "priority": 1e999}'
            status, media, reply = post(f"{instance.url}/predict", body, JSON)
            assert (status, media) == (400, JSON)
            assert "priority" in json.loads(reply)["error"]
            assert admitted == [3, 3]

    def test_failed_respawn_is_a_json_500(self, mlp_artifact, monkeypatch):
        path, _ = mlp_artifact
        with ModelServer(path, port=0) as instance:
            def refuse():
                raise OSError("fork refused")

            monkeypatch.setattr(instance.batcher, "respawn_workers", refuse)
            status, media, reply = post(f"{instance.url}/respawn", b"", JSON)
            assert (status, media) == (500, JSON)
            assert "fork refused" in json.loads(reply)["error"]
            with ServeClient(instance.url) as client:
                assert client.healthz()["status"] == "ok"

    def test_dead_pool_returns_retryable_503_and_respawn_recovers(self, mlp_artifact):
        path, _ = mlp_artifact
        instance = ModelServer(path, port=0).start()
        client = ServeClient(instance.url, retries=0)
        try:
            client.predict_one(np.zeros(20, dtype=np.float32))
            # Simulate worker death without closing the batcher: poison the
            # engine so the next batch raises WorkerDiedError in the worker.
            from repro.serve import WorkerDiedError

            (worker,) = instance.batcher.pool_workers
            original = worker.engine._predict

            def poisoned(batch):
                # One-shot: the engine heals before dying, so the respawned
                # worker (which reuses the still-alive inline engine) serves.
                worker.engine._predict = original
                raise WorkerDiedError("injected death")

            worker.engine._predict = poisoned
            with pytest.raises(ServeClientError) as excinfo:
                client.predict_one(np.zeros(20, dtype=np.float32))
            assert excinfo.value.status == 503
            assert excinfo.value.body.get("retry") is True
            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["workers_alive"] == 0
            respawned = client.respawn()
            assert respawned["respawned"] == 1
            assert respawned["workers_alive"] == 1
            out = client.predict_one(np.zeros(20, dtype=np.float32))
            assert out.shape == (6,)
            assert client.healthz()["status"] == "ok"
        finally:
            client.close()
            instance.stop()


def raw_post(address, path, length, body=b""):
    """Send one POST over a raw socket, half-close it when ``body`` is given,
    and return the reply's ``(head, body)`` once the server hangs up."""
    host, port = address
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                     f"Content-Type: application/json\r\n"
                     f"Content-Length: {length}\r\n\r\n".encode("ascii") + body)
        if body:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    return head, payload


class TestRequestFraming:
    @pytest.mark.parametrize("path, length", [("/predict", "-1"), ("/respawn", "abc")])
    def test_bad_content_length_400_before_any_read(self, server, path, length):
        """Answered at once, and the connection closes: the framing is lost."""
        instance, _ = server
        head, body = raw_post(instance.address, path, length)
        assert head.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]

    def test_body_shorter_than_a_huge_content_length_is_a_400(self, server):
        """The body is read in bounded chunks, so a declared petabyte costs
        nothing up front; the client's half-close ends it early."""
        instance, _ = server
        errors = instance.http_errors_total
        body = b'{"input": [0.0, 1.0]}  '
        head, reply = raw_post(instance.address, "/predict", 10 ** 15, body)
        assert head.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in head
        assert f"after {len(body)} of the {10 ** 15} bytes" in json.loads(reply)["error"]
        assert instance.http_errors_total == errors + 1
        with ServeClient(instance.url) as client:
            assert client.healthz()["status"] == "ok"


    @pytest.mark.parametrize("method, path, status",
                             [("POST", "/nope", 404), ("GET", "/healthz", 200)])
    def test_a_declared_body_is_read_whatever_the_route(self, server, method, path, status):
        """The next request on a kept-alive connection must not be parsed
        from the body the previous one declared."""
        instance, _ = server
        body = json.dumps({"input": [0.0] * 20}).encode()
        connection = http.client.HTTPConnection(*instance.address, timeout=10)
        try:
            assert exchange(connection, method, path, body)[0] == status
            first = connection.sock
            assert exchange(connection, "POST", "/predict", body)[0] == 200
            assert first is not None and connection.sock is first
        finally:
            connection.close()


class TestNpyWire:
    def test_first_body_is_json_then_npy(self, server, sent_requests):
        instance, _ = server
        x = get_rng(offset=2).standard_normal((4, 20)).astype(np.float32)
        with ServeClient(instance.url) as client:
            for _ in range(3):
                client.predict(x)
            client.predict_one(x[0])
        assert [r.headers["Content-Type"] for r in sent_requests] == [JSON, NPY, NPY, NPY]

    @pytest.mark.parametrize("mode", ["thread", PROCESS])
    @pytest.mark.parametrize("cell", ["mlp", "resnet"])
    def test_outputs_bit_equal_across_wires(self, mlp_artifact, cell, mode):
        if cell == "mlp":
            source, model = mlp_artifact
            shape = (20,)
        else:
            model, shape = resnet_cell(), CELL_SHAPE
            source = Predictor(model, manifest={"input_shape": list(shape)})
        x = get_rng(offset=4).standard_normal((8,) + shape).astype(np.float32)
        with no_grad():
            direct = model(x).data
        with ModelServer(source, port=0, mode=mode,
                         policy=BatchingPolicy(max_batch_size=8)) as instance, \
                ServeClient(instance.url) as client:
            outputs = [client.predict(x), client.predict(x)]   # JSON body, then npy
            reply = client._request("/predict", {"inputs": x.tolist()})   # JSON only
        plain = np.asarray(reply["outputs"], dtype=np.float32)
        np.testing.assert_array_equal(plain, direct)
        for out in outputs:
            assert out.dtype == np.float32
            np.testing.assert_array_equal(out, direct)
            np.testing.assert_array_equal(out, plain)

    def test_predict_one_is_row_zero_of_predict(self, server):
        instance, _ = server
        x = get_rng(offset=7).standard_normal((1, 20)).astype(np.float32)
        with ServeClient(instance.url) as client:
            batch = client.predict(x)
            single = client.predict_one(x[0])        # sent as a batch of one
        assert single.shape == (6,) and single.flags.writeable
        np.testing.assert_array_equal(single, batch[0])

    @pytest.mark.parametrize("version", [(1, 0), (2, 0), (3, 0)], ids=["1.0", "2.0", "3.0"])
    def test_every_npy_format_version_is_read(self, server, version):
        instance, model = server
        x = get_rng(offset=8).standard_normal((4, 20)).astype(np.float32)
        with no_grad():
            direct = model(x).data
        status, media, reply = post(f"{instance.url}/predict",
                                    npy_body(x, version=version), NPY, accept=NPY)
        assert (status, media) == (200, NPY)
        outputs = np.load(io.BytesIO(reply), allow_pickle=False)
        assert outputs.dtype == np.dtype("<f4")
        np.testing.assert_array_equal(outputs, direct)

    @pytest.mark.parametrize("body, problem", [
        pytest.param(lambda: npy_body(np.zeros((2,) + CELL_SHAPE, "<f8")), "dtype",
                     id="float64"),
        pytest.param(lambda: npy_body(np.zeros((2,) + CELL_SHAPE, ">f4")), "dtype",
                     id="big-endian"),
        pytest.param(lambda: npy_body(np.empty((2,) + CELL_SHAPE, object),
                                      allow_pickle=True), "dtype", id="pickled-object"),
        pytest.param(lambda: npy_body(np.asfortranarray(
            np.zeros((2,) + CELL_SHAPE, np.float32))), "C order", id="fortran-order"),
        pytest.param(lambda: npy_body(np.zeros((2, 3, 16, 15), np.float32)), "shape",
                     id="sample-shape"),
        pytest.param(lambda: npy_body(np.zeros((0,) + CELL_SHAPE, np.float32)),
                     "at least one sample", id="zero-rows"),
        pytest.param(lambda: npy_body(np.zeros((2,) + CELL_SHAPE, np.float32))[:-4],
                     "payload bytes", id="truncated"),
        pytest.param(lambda: npy_body(np.zeros((2,) + CELL_SHAPE, np.float32)) + bytes(4),
                     "payload bytes", id="trailing-bytes"),
        pytest.param(lambda: json.dumps({"inputs": [[0.0]]}).encode(), "not a .npy",
                     id="not-npy"),
        # read_array would try to allocate 279 TiB for this header.
        pytest.param(lambda: npy_header((10**11,) + CELL_SHAPE) + bytes(3000),
                     "payload bytes", id="huge-declared-shape"),
        # ast.literal_eval raises RecursionError on this header.
        pytest.param(lambda: npy_header("(" + "-" * 4000 + "2, 3, 16, 16)") + bytes(6144),
                     "not a .npy", id="deeply-nested-header"),
    ])
    def test_decoder_rejects_with_json_400(self, cell_server, body, problem):
        status, media, reply = post(f"{cell_server.url}/predict", body(), NPY, accept=NPY)
        assert (status, media) == (400, JSON)
        error = json.loads(reply)["error"]
        assert error.startswith("invalid npy body") and problem in error

    def test_codec_spans_name_their_wire(self, server):
        instance, _ = server
        x = get_rng(offset=3).standard_normal((2, 20)).astype(np.float32)
        body = npy_body(x)
        session = tracing.enable("serve")
        try:
            with ServeClient(instance.url) as client:
                client._request("/predict", {"inputs": x.tolist()})
            _, _, reply = post(f"{instance.url}/predict", body, NPY, accept=NPY)
        finally:
            tracing.disable()
        codec = sorted((e["name"], e["args"]["wire"], e["args"]["bytes"])
                       for e in session.event_dicts()
                       if e["name"] in ("decode", "encode") and e["cat"] == "serve")
        assert [(name, wire) for name, wire, _ in codec] == [
            ("decode", "json"), ("decode", "npy"), ("encode", "json"), ("encode", "npy")]
        assert codec[1][2] == len(body) and codec[3][2] == len(reply)
