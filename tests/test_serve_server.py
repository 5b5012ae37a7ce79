"""HTTP inference server (repro.serve.server): endpoints, parity, metrics,
error handling, and concurrent clients — all over a real ThreadingHTTPServer
on an ephemeral port."""

import socket
import threading

import numpy as np
import pytest

from repro.core import factorize_model, full_rank_of
from repro.distributed.process import fork_available
from repro.models import build_model
from repro.serve import (
    BatchingPolicy,
    ModelServer,
    ServeClient,
    ServeClientError,
    export_artifact,
    load_artifact,
)
from repro.tensor import no_grad
from repro.utils import active_owned_segments, get_rng, seed_everything

MLP_SPEC = {"name": "mlp",
            "kwargs": {"in_features": 20, "hidden_sizes": [40, 40], "num_classes": 6}}


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
    instance = ModelServer(path, policy=BatchingPolicy(max_batch_size=8, max_wait_ms=5.0),
                           port=0)
    instance.start()
    yield instance, model
    instance.stop()


class TestEndpoints:
    def test_healthz(self, server):
        instance, _ = server
        health = ServeClient(instance.url).healthz()
        assert health["status"] == "ok"
        assert health["model"] == "mlp"
        assert health["uptime_s"] >= 0.0

    def test_predict_batch_bit_identical_to_direct_model(self, server):
        instance, model = server
        x = get_rng(offset=2).standard_normal((8, 20)).astype(np.float32)
        with no_grad():
            direct = model(x).data
        out = ServeClient(instance.url).predict(x)
        np.testing.assert_array_equal(out, direct)

    def test_predict_single_input_spelling(self, server):
        instance, model = server
        x = get_rng(offset=2).standard_normal((8, 20)).astype(np.float32)
        with no_grad():
            direct = model(x).data
        client = ServeClient(instance.url)
        single = client.predict_one(x[0])
        # One-at-a-time must agree with the batch rows (canonicalized geometry).
        np.testing.assert_array_equal(single, direct[0])

    def test_predict_returns_argmax(self, server):
        instance, model = server
        x = get_rng(offset=2).standard_normal((4, 20)).astype(np.float32)
        client = ServeClient(instance.url)
        body = client._request("/predict", {"inputs": x.tolist()})
        with no_grad():
            expected = np.argmax(model(x).data, axis=-1)
        assert body["argmax"] == [int(i) for i in expected]

    def test_metrics_populated_after_traffic(self, server):
        instance, _ = server
        client = ServeClient(instance.url)
        x = get_rng(offset=2).standard_normal((4, 20)).astype(np.float32)
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
        health = ServeClient(instance.url).healthz()
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
        client = ServeClient(instance.url)
        x = get_rng(offset=2).standard_normal((2, 20)).astype(np.float32)
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
        client = ServeClient(instance.url)
        x = get_rng(offset=2).standard_normal((2, 20)).astype(np.float32)
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
        with pytest.raises(ServeClientError) as excinfo:
            ServeClient(instance.url)._request("/nope")
        assert excinfo.value.status == 404

    def test_malformed_body_400(self, server):
        instance, _ = server
        client = ServeClient(instance.url)
        with pytest.raises(ServeClientError) as excinfo:
            client._request("/predict", {"wrong_key": [1, 2, 3]})
        assert excinfo.value.status == 400

    def test_wrong_sample_shape_400(self, server):
        instance, _ = server
        with pytest.raises(ServeClientError) as excinfo:
            ServeClient(instance.url).predict(np.zeros((2, 7), dtype=np.float32))
        assert excinfo.value.status == 400
        assert "shape" in excinfo.value.body["error"]

    def test_ragged_inputs_400(self, server):
        instance, _ = server
        client = ServeClient(instance.url)
        with pytest.raises(ServeClientError) as excinfo:
            client._request("/predict", {"inputs": [[1.0, 2.0], [3.0]]})
        assert excinfo.value.status == 400


class TestConcurrentClients:
    def test_parallel_single_requests_bit_identical(self, server):
        instance, model = server
        x = get_rng(offset=3).standard_normal((24, 20)).astype(np.float32)
        with no_grad():
            direct = model(x).data
        results = [None] * 24
        errors = []

        def hit(i):
            try:
                results[i] = ServeClient(instance.url).predict_one(x[i])
            except Exception as error:  # noqa: BLE001 - collected for assertion
                errors.append(error)

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(24)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        np.testing.assert_array_equal(np.stack(results), direct)
        # Traffic of 24 singles through a max-batch-8 engine must have coalesced.
        stats = instance.batcher.stats()
        assert stats["batches_total"] < 24


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
        server = ModelServer(path, policy=BatchingPolicy(max_batch_size=8, max_wait_ms=5.0),
                             port=0)
        server.start()
        try:
            client = ServeClient(server.url)
            np.testing.assert_array_equal(client.predict(x), direct)      # batched
            np.testing.assert_array_equal(client.predict_one(x[3]), direct[3])  # unbatched
        finally:
            server.stop()


class TestLifecycle:
    def test_stop_drains_and_rejects_new_work(self, mlp_artifact):
        path, _ = mlp_artifact
        instance = ModelServer(path, port=0).start()
        url = instance.url
        client = ServeClient(url)
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
        with ModelServer(path, port=0) as instance:
            assert ServeClient(instance.url).healthz()["status"] == "ok"

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
        with ModelServer(predictor, port=0) as instance:
            assert ServeClient(instance.url).healthz()["status"] == "ok"
        with ModelServer(model, port=0, name="inmem") as instance:
            assert ServeClient(instance.url).healthz()["model"] == "inmem"


class TestPoolServing:
    def test_healthz_reports_pool_size_and_liveness(self, mlp_artifact):
        path, _ = mlp_artifact
        with ModelServer(path, port=0, workers=2) as instance:
            health = ServeClient(instance.url).healthz()
            assert health["workers"] == 2
            assert health["workers_alive"] == 2
            assert health["status"] == "ok"

    def test_pooled_predictions_bit_identical_to_single(self, mlp_artifact):
        path, model = mlp_artifact
        x = get_rng(offset=5).standard_normal((12, 20)).astype(np.float32)
        with no_grad():
            direct = model(x).data
        with ModelServer(path, port=0, workers=3,
                         policy=BatchingPolicy(max_batch_size=4,
                                               max_wait_ms=1.0)) as instance:
            out = ServeClient(instance.url).predict(x)
        assert np.array_equal(out, direct)

    def test_priority_field_accepted_and_bad_priority_400(self, mlp_artifact):
        path, _ = mlp_artifact
        with ModelServer(path, port=0) as instance:
            client = ServeClient(instance.url)
            out = client.predict_one(np.zeros(20, dtype=np.float32), priority=3)
            assert out.shape == (6,)
            status, body = instance.handle_predict(
                {"input": [0.0] * 20, "priority": "urgent"})
            assert status == 400
            assert "priority" in body["error"]

    def test_dead_pool_returns_retryable_503_and_respawn_recovers(self, mlp_artifact):
        path, _ = mlp_artifact
        instance = ModelServer(path, port=0).start()
        try:
            client = ServeClient(instance.url, retries=0)
            client.predict_one(np.zeros(20, dtype=np.float32))
            # Simulate worker death without closing the batcher: poison the
            # engine so the next batch raises WorkerDiedError in the worker.
            from repro.serve import WorkerDiedError

            worker = instance.batcher.pool.workers[0]
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
            instance.stop()
