"""Stdlib-only HTTP frontend for the micro-batching inference engine.

``ModelServer`` wires an exported artifact (or an in-memory model) to a
:class:`~repro.serve.batcher.DynamicBatcher` and exposes four endpoints on a
``ThreadingHTTPServer``:

* ``POST /predict``  — one batch of samples in, the model outputs out, in
  either of two wires that standard headers pick (:mod:`repro.serve.wire`):

  - **JSON** (any ``Content-Type`` but npy): body ``{"inputs": [<sample>,
    ...]}`` (or a single ``"input"``) with an optional integer
    ``"priority"``;
  - **npy** (``Content-Type: application/x-npy``): the body is one ``.npy``
    float32 array of shape ``(n, *input_shape)``, validated header-first,
    and the priority travels as ``POST /predict?priority=N`` (digits).

  A 200 is one ``.npy`` of the float32 outputs, shape
  ``(n, *output_shape)``, when the request's ``Accept`` lists
  ``application/x-npy``; otherwise it is JSON with the outputs, the argmax
  per sample and ``batched_samples``.  Errors are always JSON.  Handler
  threads only decode, wait on the batcher future and encode; every forward
  pass happens on the engine workers.
* ``GET /healthz``   — liveness: model name, uptime, request counter, plus
  the load-shedding signals (batcher queue depth, inference-worker
  liveness); a dead worker reports ``status: "degraded"``.
* ``GET /metrics``   — JSON counters: request count, error count, end-to-end
  latency p50/p95/p99 (ms), the executed batch-size histogram and queue
  statistics, plus the unified versioned telemetry snapshot
  (:mod:`repro.telemetry`).  ``GET /metrics?format=prometheus`` returns the
  Prometheus text exposition instead.
* ``POST /respawn``  — replace dead inference workers; a respawn that
  fails (the fork was refused) answers ``500``.

Overload (full request queue) returns ``503`` so closed-loop clients back
off; malformed bodies, a ``Content-Length`` that is not a non-negative
integer, and a body that ends before its ``Content-Length`` return ``400``;
unknown routes ``404``.

Connections are HTTP/1.1 and kept alive: a client may send any number of
requests over one.  Every handler reads the body a request declares before
it answers, so the next request on the connection starts where it should,
and responses go out with Nagle's algorithm off (``TCP_NODELAY``): the
headers and the body are two writes, and Nagle would otherwise hold the
body until the client acknowledged the headers.  ``stop()`` ends every
open connection and joins its handler thread.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro import nn
from repro.serve import wire
from repro.serve.admission import AdmissionPolicy
from repro.serve.artifact import Predictor, load_artifact
from repro.serve.batcher import BatcherClosedError, BatchingPolicy, DynamicBatcher, QueueFullError
from repro.serve.engine import WorkerDiedError
from repro.telemetry import MetricsRegistry
from repro.telemetry import tracing as _tracing
from repro.utils import get_logger

logger = get_logger("serve.server")

_PREDICT_TIMEOUT_S = 60.0

#: Request bodies are read in pieces of at most this many bytes, so memory
#: grows with the bytes a client sends, not with the length it declares.
_BODY_CHUNK_BYTES = 64 * 1024

#: How long ``stop()`` waits for the listener and the handler threads.
_STOP_JOIN_S = 10.0


class _HTTPServer(ThreadingHTTPServer):
    # ModelServer joins its handler threads itself, with a bound (stop()).
    daemon_threads = True
    # Clients that open a connection per request (curl, urllib) churn
    # through sockets quickly; the http.server default backlog of 5 drops
    # connections (RST) under even modest concurrency.
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
                                      admission=admission)
        self.e2e_latency = self.metrics.latency("e2e_latency")
        self.started_at = time.time()
        self._http_requests = self.metrics.counter("http_requests_total")
        self._http_errors = self.metrics.counter("http_errors_total")
        self._http_connections = self.metrics.counter("http_connections_total")
        # Open client connections and the handler thread serving each.
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()
        self._closing = False

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
        """Shut down: stop the HTTP listener, end every client connection,
        then drain the engine.

        Safe to call whether or not the server ever started serving —
        ``shutdown()`` must only run against a live ``serve_forever`` loop
        (it otherwise blocks forever on socketserver's handshake event).
        """
        if self._serving:
            self._http.shutdown()
            self._serving = False
        self._http.server_close()
        deadline = time.monotonic() + _STOP_JOIN_S
        self._close_connections(deadline)
        if self._thread is not None:
            self._thread.join(timeout=max(0.0, deadline - time.monotonic()))
            self._thread = None
        self.batcher.close(drain=drain)

    def _open_connection(self, connection: socket.socket) -> None:
        """A handler took ``connection`` (called from its ``setup()``)."""
        self._http_connections.inc()
        with self._connections_lock:
            self._connections[connection] = threading.current_thread()
            if self._closing:   # accepted just before the listener stopped
                _shut_reads(connection)

    def _release_connection(self, connection: socket.socket) -> None:
        with self._connections_lock:
            self._connections.pop(connection, None)

    def _close_connections(self, deadline: float) -> None:
        """End every open client connection and join its handler thread.

        Only the reading side is shut down: a handler in the middle of a
        request still sends its response (marked ``Connection: close``),
        and a handler waiting for a kept-alive client's next request reads
        EOF and exits.
        """
        with self._connections_lock:
            self._closing = True
            connections = list(self._connections.items())
        for connection, _ in connections:
            _shut_reads(connection)
        for _, thread in connections:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

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
        """Run one decoded ``/predict`` request.

        ``payload`` is the request as either wire decodes it: ``inputs`` (a
        batch as nested lists, or the float32 array an npy body holds) or a
        single ``input``, plus an optional ``priority``.  A 200 result holds
        the ``outputs`` array, shape ``(n, *output_shape)``, and ``single``
        (the request used the ``input`` spelling); the handler encodes it in
        the wire the request's ``Accept`` header picks.  Any other status
        comes with a JSON error body.
        """
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
        priority = payload.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
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
        return 200, {"outputs": outputs, "single": single}

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
        """Replace dead workers; the recovery half of the kill smoke."""
        try:
            respawned = self.batcher.respawn_workers()
        except Exception as error:  # noqa: BLE001 — a failed fork is reported, not fatal
            logger.error("respawn failed: %r", error)
            return 500, {"error": f"respawn failed: {error!r}"}
        return 200, {
            "respawned": respawned,
            "workers": self.batcher.workers,
            "workers_alive": self.batcher.alive_workers,
        }

    def handle_metrics(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "model": self.model_name,
            "http": {"requests_total": self.http_requests_total,
                     "errors_total": self.http_errors_total,
                     "connections_total": self._http_connections.value},
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


def _shut_reads(connection: socket.socket) -> None:
    try:
        connection.shutdown(socket.SHUT_RD)
    except OSError:   # the client or the handler closed it first
        pass


def _json_predict_body(result: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON body of a 200 ``/predict``: outputs, argmax, batched_samples."""
    outputs, single = result["outputs"], result["single"]
    return {
        "outputs": outputs[0].tolist() if single else outputs.tolist(),
        "argmax": (int(np.argmax(outputs[0])) if single
                   else [int(i) for i in np.argmax(outputs, axis=-1)]),
        "batched_samples": int(outputs.shape[0]),
    }


def _decode_json(body: bytes) -> Dict[str, Any]:
    payload = json.loads(body or b"{}")
    if not isinstance(payload, dict):
        raise ValueError("body must be a JSON object")
    return payload


def _decode_npy(body: bytes, query: Dict[str, List[str]],
                sample_shape: Optional[Tuple[int, ...]]) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"inputs": wire.decode(body, sample_shape)}
    if "priority" in query:
        # Digits become the integer handle_predict requires; anything else
        # passes through as text for it to reject.
        text = query["priority"][-1]
        payload["priority"] = int(text) if text.isascii() and text.isdigit() else text
    return payload


def _trace_codec(name: str, started: float, wire_name: str, size: int) -> None:
    """A ``decode``/``encode`` span on the handler thread's lane, beside the
    ``request`` span :meth:`ModelServer.handle_predict` records."""
    if _tracing.enabled():
        _tracing.record_span(name, started, time.perf_counter(), cat="serve",
                             wire=wire_name, bytes=size)


def _make_handler(server: ModelServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body are two writes; with Nagle on, a kept-alive
        # connection would hold the body until the client's delayed ACK.
        disable_nagle_algorithm = True

        def setup(self) -> None:
            super().setup()
            server._open_connection(self.connection)

        def finish(self) -> None:
            try:
                super().finish()
            finally:
                server._release_connection(self.connection)

        def _send(self, status: int, content_type: str, encoded: bytes) -> None:
            server._count(status)
            if server._closing:
                self.close_connection = True
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(encoded)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(encoded)

        def _respond(self, status: int, body: Dict[str, Any]) -> None:
            self._send(status, wire.JSON_MEDIA_TYPE, json.dumps(body).encode("utf-8"))

        def _read_body(self) -> Optional[bytes]:
            """The request body, empty without a ``Content-Length``.

            A length that is not a non-negative integer gets a 400 before
            anything is read (``rfile.read(-1)`` would block until the client
            hangs up) and returns None; the request's framing is lost with
            it, so the connection closes.  The body is read in chunks of at
            most ``_BODY_CHUNK_BYTES``, so a huge declared length allocates
            nothing up front; a body that ends short of it gets the same 400.
            """
            length = self.headers.get("Content-Length")
            if length is None:
                return b""
            length = length.strip()
            if not (length.isascii() and length.isdigit()):
                self.close_connection = True
                self._respond(400, {"error": "Content-Length must be a non-negative "
                                             f"integer, got {length!r}"})
                return None
            declared = remaining = int(length)
            chunks = []
            while remaining:
                chunk = self.rfile.read(min(remaining, _BODY_CHUNK_BYTES))
                if not chunk:
                    self.close_connection = True
                    self._respond(400, {"error": f"body ended after {declared - remaining} "
                                                 f"of the {declared} bytes its "
                                                 f"Content-Length declares"})
                    return None
                chunks.append(chunk)
                remaining -= len(chunk)
            return b"".join(chunks)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            # Every route reads the body a request declares before it
            # answers, so a kept-alive connection stays framed.
            if self._read_body() is None:
                return
            parts = urlsplit(self.path)
            query = parse_qs(parts.query)
            if parts.path == "/healthz":
                self._respond(*server.handle_healthz())
            elif parts.path == "/metrics":
                if query.get("format", [""])[0] == "prometheus":
                    status, text = server.handle_metrics_prometheus()
                    self._send(status, "text/plain; version=0.0.4", text.encode("utf-8"))
                else:
                    self._respond(*server.handle_metrics())
            else:
                self._respond(404, {"error": f"unknown path {self.path!r}; "
                                             f"endpoints: /predict /healthz /metrics"})

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            body = self._read_body()
            if body is None:
                return
            parts = urlsplit(self.path)
            if parts.path == "/predict":
                self._predict(body, parse_qs(parts.query))
            elif parts.path == "/respawn":
                self._respond(*server.handle_respawn())
            else:
                self._respond(404, {"error": f"unknown path {self.path!r}"})

        def _predict(self, body: bytes, query: Dict[str, List[str]]) -> None:
            """Decode by ``Content-Type``, run, encode a 200 by ``Accept``."""
            npy = self.headers.get_content_type() == wire.NPY_MEDIA_TYPE
            started = time.perf_counter()
            try:
                payload = (_decode_npy(body, query, server.predictor.input_shape) if npy
                           else _decode_json(body))
            except (ValueError, RecursionError) as error:  # deep JSON nesting recurses
                self._respond(400, {"error": f"invalid {'npy' if npy else 'JSON'} body: "
                                             f"{error}"})
                return
            _trace_codec("decode", started, "npy" if npy else "json", len(body))
            status, result = server.handle_predict(payload)
            if status != 200:
                self._respond(status, result)
                return
            started = time.perf_counter()
            if wire.accepts_npy(self.headers.get("Accept", "")):
                name, media, encoded = "npy", wire.NPY_MEDIA_TYPE, wire.encode(result["outputs"])
            else:
                name, media = "json", wire.JSON_MEDIA_TYPE
                encoded = json.dumps(_json_predict_body(result)).encode("utf-8")
            _trace_codec("encode", started, name, len(encoded))
            self._send(200, media, encoded)

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            logger.debug("http: " + format, *args)

    return Handler


__all__ = ["ModelServer"]
