"""Stdlib-only HTTP frontend for the micro-batching inference engine.

``ModelServer`` wires an exported artifact (or an in-memory model) to a
:class:`~repro.serve.batcher.DynamicBatcher` and exposes three endpoints on a
``ThreadingHTTPServer``:

* ``POST /predict``  — body ``{"inputs": [<sample>, ...]}`` (or a single
  ``"input"``); each sample must match the artifact's input shape.  Handler
  threads only parse JSON and wait on the batcher future; every forward pass
  happens on the single engine worker.  Responses carry the model outputs
  plus the argmax per sample.
* ``GET /healthz``   — liveness: model name, uptime, request counter, plus
  the load-shedding signals (batcher queue depth, inference-worker
  liveness); a dead worker reports ``status: "degraded"``.
* ``GET /metrics``   — JSON counters: request count, error count, end-to-end
  latency p50/p95/p99 (ms), the executed batch-size histogram and queue
  statistics, plus the unified versioned telemetry snapshot
  (:mod:`repro.telemetry`).  ``GET /metrics?format=prometheus`` returns the
  Prometheus text exposition instead.

Overload (full request queue) returns ``503`` so closed-loop clients back
off; malformed bodies return ``400``; unknown routes ``404``.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro import nn
from repro.serve.admission import AdmissionPolicy
from repro.serve.artifact import Predictor, load_artifact
from repro.serve.batcher import BatcherClosedError, BatchingPolicy, DynamicBatcher, QueueFullError
from repro.serve.engine import WorkerDiedError
from repro.serve.slo import SLOPolicy
from repro.telemetry import MetricsRegistry
from repro.telemetry import tracing as _tracing
from repro.utils import get_logger

logger = get_logger("serve.server")

_PREDICT_TIMEOUT_S = 60.0


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # Closed-loop load with connection-per-request clients churns through
    # sockets quickly; the http.server default backlog of 5 drops connections
    # (RST) under even modest concurrency.
    request_queue_size = 128


class ModelServer:
    """An HTTP inference server around one model and one batching engine."""

    def __init__(
        self,
        model: Union[str, nn.Module, Predictor],
        policy: Optional[BatchingPolicy] = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        backend: Optional[str] = None,
        name: Optional[str] = None,
        *,
        workers: int = 1,
        mode: str = "thread",
        admission: Optional[AdmissionPolicy] = None,
        cache_size: int = 0,
        slo: Optional[Union[SLOPolicy, float]] = None,
    ):
        if isinstance(model, str):
            predictor = load_artifact(model, backend=backend)
            name = name or str((predictor.manifest.get("model") or {}).get("name", model))
        elif isinstance(model, Predictor):
            predictor = model
            if backend is not None:
                predictor.backend = backend
        else:
            predictor = Predictor(model, backend=backend)
        self.predictor = predictor
        self.model_name = name or type(predictor.model).__name__
        # One registry for the whole serving stack: the batcher creates its
        # instruments in it and the HTTP layer adds its own alongside.
        self.metrics = MetricsRegistry("serve")
        self.batcher = DynamicBatcher(predictor, policy=policy,
                                      name=f"{self.model_name}-engine",
                                      registry=self.metrics,
                                      workers=workers, mode=mode,
                                      admission=admission,
                                      cache_size=cache_size, slo=slo)
        self.e2e_latency = self.metrics.latency("e2e_latency")
        self.started_at = time.time()
        self._http_requests = self.metrics.counter("http_requests_total")
        self._http_errors = self.metrics.counter("http_errors_total")

        handler = _make_handler(self)
        try:
            # socketserver closes its own socket when bind/listen fail.
            self._http = _HTTPServer((host, port), handler)
        except BaseException:
            self.batcher.close(drain=False)
            raise
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        return self._http.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ModelServer":
        """Serve in a background thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._serving = True
        self._thread = threading.Thread(
            target=self._http.serve_forever, name=f"{self.model_name}-http", daemon=True,
        )
        self._thread.start()
        logger.info("serving %s on %s", self.model_name, self.url)
        return self

    def serve_forever(self) -> None:
        """Blocking variant used by the CLI ``serve`` verb."""
        logger.info("serving %s on %s", self.model_name, self.url)
        self._serving = True
        try:
            self._http.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            pass
        finally:
            self.stop()

    def stop(self, drain: bool = True) -> None:
        """Shut down: stop the HTTP listener, then drain the engine.

        Safe to call whether or not the server ever started serving —
        ``shutdown()`` must only run against a live ``serve_forever`` loop
        (it otherwise blocks forever on socketserver's handshake event).
        """
        if self._serving:
            self._http.shutdown()
            self._serving = False
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.batcher.close(drain=drain)

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Endpoint bodies (transport-independent, unit-testable)
    # ------------------------------------------------------------------ #
    @property
    def http_requests_total(self) -> int:
        return self._http_requests.value

    @property
    def http_errors_total(self) -> int:
        return self._http_errors.value

    def handle_predict(self, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        started = time.perf_counter()
        if "inputs" in payload:
            raw, single = payload["inputs"], False
        elif "input" in payload:
            raw, single = [payload["input"]], True
        else:
            return 400, {"error": "body must contain 'inputs' (a list of samples) or 'input'"}
        try:
            batch = np.asarray(raw, dtype=np.float32)
        except (TypeError, ValueError) as error:
            return 400, {"error": f"inputs are not a numeric array: {error}"}
        if batch.ndim < 1 or batch.shape[0] < 1:
            return 400, {"error": "inputs must contain at least one sample"}
        expected = self.predictor.input_shape
        if expected is not None and tuple(batch.shape[1:]) != expected:
            return 400, {"error": f"each sample must have shape {list(expected)}, "
                                  f"got {list(batch.shape[1:])}"}
        try:
            priority = int(payload.get("priority", 0))
        except (TypeError, ValueError):
            return 400, {"error": "priority must be an integer"}
        try:
            future = self.batcher.submit_batch(batch, priority=priority)
            outputs = future.result(timeout=_PREDICT_TIMEOUT_S)
        except QueueFullError as error:
            # Covers load shedding too (LoadShedError subclasses it): both
            # are transient overload, so the client may retry with backoff.
            return 503, {"error": str(error), "retry": True}
        except WorkerDiedError as error:
            # Degraded pool: retryable once an operator (or the CI smoke)
            # respawns the dead workers.
            return 503, {"error": str(error), "retry": True}
        except BatcherClosedError as error:
            return 503, {"error": str(error), "retry": False}
        except Exception as error:  # noqa: BLE001 — surface inference errors as 500
            logger.error("inference failed: %s", error)
            return 500, {"error": f"inference failed: {error}"}
        finished = time.perf_counter()
        self.e2e_latency.observe(finished - started)
        if _tracing.enabled():
            # Request lifecycle on the handler thread's lane; the engine
            # worker records batch_assembly/inference/respond on its own.
            _tracing.record_span("request", started, finished, cat="serve",
                                 samples=int(batch.shape[0]))
        result: Dict[str, Any] = {
            "outputs": outputs[0].tolist() if single else outputs.tolist(),
            "argmax": (int(np.argmax(outputs[0])) if single
                       else [int(i) for i in np.argmax(outputs, axis=-1)]),
            "batched_samples": int(batch.shape[0]),
        }
        return 200, result

    def handle_healthz(self) -> Tuple[int, Dict[str, Any]]:
        worker_alive = self.batcher.worker_alive
        return 200, {
            # Any dead inference worker degrades the replica: at zero alive
            # workers every /predict fails, below full strength throughput
            # is reduced — either way load balancers should back off until
            # /respawn (or an operator) restores the pool.
            "status": "ok" if worker_alive else "degraded",
            "model": self.model_name,
            "uptime_s": time.time() - self.started_at,
            "requests_served": self.batcher.batch_sizes.samples,
            "format_version": self.predictor.manifest.get("format_version"),
            "queue_depth": self.batcher.queue_depth,
            "worker_alive": worker_alive,
            "workers": self.batcher.workers,
            "workers_alive": self.batcher.alive_workers,
        }

    def handle_respawn(self) -> Tuple[int, Dict[str, Any]]:
        """Replace dead pool workers; the recovery half of the kill smoke."""
        respawned = self.batcher.respawn_workers()
        return 200, {
            "respawned": respawned,
            "workers": self.batcher.workers,
            "workers_alive": self.batcher.alive_workers,
        }

    def handle_metrics(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "model": self.model_name,
            "http": {"requests_total": self.http_requests_total,
                     "errors_total": self.http_errors_total},
            "e2e_latency_ms": self.e2e_latency.summary(unit="ms"),
            "engine": self.batcher.stats(),
            "telemetry": self.metrics.snapshot(),
        }

    def handle_metrics_prometheus(self) -> Tuple[int, str]:
        return 200, self.metrics.render_prometheus()

    def _count(self, status: int) -> None:
        self._http_requests.inc()
        if status >= 400:
            self._http_errors.inc()


def _make_handler(server: ModelServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _respond(self, status: int, body: Dict[str, Any]) -> None:
            encoded = json.dumps(body).encode("utf-8")
            server._count(status)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)

        def _respond_text(self, status: int, body: str) -> None:
            encoded = body.encode("utf-8")
            server._count(status)
            self.send_response(status)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            parts = urlsplit(self.path)
            query = parse_qs(parts.query)
            if parts.path == "/healthz":
                self._respond(*server.handle_healthz())
            elif parts.path == "/metrics":
                if query.get("format", [""])[0] == "prometheus":
                    self._respond_text(*server.handle_metrics_prometheus())
                else:
                    self._respond(*server.handle_metrics())
            else:
                self._respond(404, {"error": f"unknown path {self.path!r}; "
                                             f"endpoints: /predict /healthz /metrics"})

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            if self.path == "/respawn":
                # Drain the (ignored) body so a keep-alive connection stays
                # framed correctly for its next request.
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                self._respond(*server.handle_respawn())
                return
            if self.path != "/predict":
                self._respond(404, {"error": f"unknown path {self.path!r}"})
                return
            try:
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length) or b"{}")
                if not isinstance(payload, dict):
                    raise ValueError("body must be a JSON object")
            except (ValueError, json.JSONDecodeError) as error:
                self._respond(400, {"error": f"invalid JSON body: {error}"})
                return
            self._respond(*server.handle_predict(payload))

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            logger.debug("http: " + format, *args)

    return Handler


__all__ = ["ModelServer"]
