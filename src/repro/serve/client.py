"""Minimal stdlib HTTP client for a :class:`~repro.serve.server.ModelServer`.

Used by the closed-loop load generator, the CI smoke job and the quickstart
example; downstream users can talk to the server with any HTTP client.

A :class:`ServeClient` keeps one HTTP/1.1 connection open and sends every
request over it, so a closed loop pays for one TCP handshake and one server
handler thread per client, not per request.  A client is not thread-safe:
use one per thread.  ``close()`` (or a ``with`` block) releases the
connection; a client that is garbage-collected closes it too.  A request
on a reused connection that fails before any response byte arrives
(``RemoteDisconnected``, a broken pipe or a reset) found the connection
closed by the server while it sat idle; it is re-sent once on a fresh
connection, and that does not count as a retry.

Every predict asks for ``Accept: application/x-npy, application/json``.  The
first request body is JSON, which every server reads; once a response comes
back as ``.npy`` (:mod:`repro.serve.wire`), later request bodies are
``.npy`` too, so a :class:`ServeClient` speaks the binary wire to a
``ModelServer`` and plain JSON to a server that only speaks JSON, with no
option and no extra request.  Outputs are bit-identical either way.

Transient failures are retried with jittered exponential backoff: transport
errors (connection refused/reset while a pool worker restarts, status 0)
and retryable 503s (queue full, shed load, degraded pool) back off and try
again up to ``retries`` times; a 503 whose body says ``"retry": false``
(the server is shutting down for good) fails immediately.  When the retry
budget runs out the final error is loud — it says how many attempts were
made and over how long — so a dead server reads as a dead server, not as a
one-line connection error from the middle of a load test.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Any, Dict, Optional, Sequence, Tuple
from urllib.parse import urlsplit

import numpy as np

from repro.serve import wire

#: The ``Accept`` header of every predict: npy preferred, JSON understood.
_ACCEPT = f"{wire.NPY_MEDIA_TYPE}, {wire.JSON_MEDIA_TYPE}"

#: How a kept-alive connection that the server closed while it sat idle
#: fails the next request, before any response byte arrives.
_IDLE_CLOSE_ERRORS = (http.client.RemoteDisconnected, BrokenPipeError,
                      ConnectionResetError)

#: Linux only.  A server that writes a response's headers and body in two
#: sends, with Nagle on (the stdlib ``http.server`` default), holds the body
#: until the headers are acknowledged; acknowledging at once keeps a
#: kept-alive exchange from waiting out the delayed-ACK timer (~40 ms).
_TCP_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


class ServeClientError(RuntimeError):
    """The server answered with an error status (or the transport failed).

    ``status`` is the HTTP code, or 0 for transport-level failures
    (connection reset/refused, timeout) so closed-loop clients can treat
    both uniformly as retryable errors.  ``attempts`` counts how many times
    the request was tried before giving up.
    """

    def __init__(self, status: int, body: Dict[str, Any], attempts: int = 1):
        super().__init__(f"HTTP {status}: {body.get('error', body)}")
        self.status = status
        self.body = body
        self.attempts = attempts


class ServeClient:
    """Blocking client: ``predict``, ``healthz``, ``metrics``, ``respawn``.

    One persistent connection; use one client per thread, and ``close()``
    it (or use it in a ``with`` block) when done.

    ``retries`` bounds how many times a *retryable* failure is retried
    (total attempts = retries + 1); the sleep before attempt ``k`` is
    ``backoff_base_s * 2**k`` capped at ``backoff_max_s``, scaled by a
    uniform jitter in ``[1, 2)`` so a restarted server is not greeted by a
    synchronized thundering herd of waiting clients.
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retries: int = 2, backoff_base_s: float = 0.05,
                 backoff_max_s: float = 2.0,
                 retry_statuses: Sequence[int] = (0, 503)):
        self._connection: Optional[http.client.HTTPConnection] = None
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        if parts.scheme != "http":
            raise ValueError(f"ServeClient speaks plain HTTP; got {base_url!r}")
        self._netloc, self._prefix = parts.netloc, parts.path
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.retry_statuses = tuple(retry_statuses)
        # Set once the server answers a predict in npy: it then reads npy too.
        self._npy = False

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the connection; a later request opens a new one."""
        connection, self._connection = self._connection, None
        if connection is not None:
            connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        self.close()

    def _request_once(self, path: str, data: Optional[bytes],
                      headers: Dict[str, str]) -> Tuple[str, bytes]:
        """One exchange; returns the response's media type and body."""
        method = "POST" if data is not None else "GET"
        while True:
            if self._connection is None:
                self._connection = http.client.HTTPConnection(self._netloc,
                                                              timeout=self.timeout)
            connection = self._connection
            reused, response = connection.sock is not None, None
            try:
                connection.request(method, self._prefix + path, body=data, headers=headers)
                if _TCP_QUICKACK is not None:
                    connection.sock.setsockopt(socket.IPPROTO_TCP, _TCP_QUICKACK, 1)
                response = connection.getresponse()
                body = response.read()
            except (http.client.HTTPException, OSError) as error:
                self.close()
                if reused and response is None and isinstance(error, _IDLE_CLOSE_ERRORS):
                    continue  # the server closed the idle connection: resend once
                # Refused, reset, timed out, a malformed reply: a retryable
                # transport error, not a raw socket exception.
                raise ServeClientError(0, {"error": str(error)}) from None
            if 200 <= response.status < 300:
                return response.headers.get_content_type(), body
            try:
                reply = json.loads(body.decode("utf-8"))
            except ValueError:
                reply = None
            if not isinstance(reply, dict):
                reply = {"error": f"HTTP Error {response.status}: {response.reason}"}
            raise ServeClientError(response.status, reply)

    def _retryable(self, error: ServeClientError) -> bool:
        if error.status not in self.retry_statuses:
            return False
        # A server that says it is closed for good ("retry": false) will not
        # get better; respect it and fail fast.
        return error.body.get("retry", True) is not False

    def _exchange(self, path: str, data: Optional[bytes] = None,
                  headers: Optional[Dict[str, str]] = None) -> Tuple[str, bytes]:
        """:meth:`_request_once` under the retry policy, for either wire."""
        started = time.perf_counter()
        attempt = 0
        while True:
            try:
                return self._request_once(path, data, headers or {})
            except ServeClientError as error:
                if attempt >= self.retries or not self._retryable(error):
                    if attempt:
                        elapsed = time.perf_counter() - started
                        body = dict(error.body)
                        body["error"] = (
                            f"{body.get('error', body)} "
                            f"(gave up after {attempt + 1} attempts over "
                            f"{elapsed:.2f}s against {self.base_url})")
                        raise ServeClientError(error.status, body,
                                               attempts=attempt + 1) from None
                    raise
                delay = min(self.backoff_max_s,
                            self.backoff_base_s * (2.0 ** attempt))
                time.sleep(delay * (1.0 + random.random()))
                attempt += 1

    def _request(self, path: str,
                 payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """GET ``path``, or POST ``payload`` as JSON; returns the JSON reply."""
        if payload is None:
            return json.loads(self._exchange(path)[1])
        data = json.dumps(payload).encode("utf-8")
        return json.loads(self._exchange(path, data, {"Content-Type": wire.JSON_MEDIA_TYPE})[1])

    def _predict(self, samples: np.ndarray, priority: int, single: bool) -> np.ndarray:
        """One ``/predict``: a JSON body until the server has answered in npy.

        ``single`` sends one sample: as ``"input"`` in JSON, as a batch of
        one in npy.  Returns a writable float32 array either way.
        """
        headers = {"Accept": _ACCEPT}
        if self._npy:
            path = f"/predict?priority={int(priority)}" if priority else "/predict"
            headers["Content-Type"] = wire.NPY_MEDIA_TYPE
            data = wire.encode(samples[None] if single else samples)
        else:
            path = "/predict"
            headers["Content-Type"] = wire.JSON_MEDIA_TYPE
            payload: Dict[str, Any] = {("input" if single else "inputs"): samples.tolist()}
            if priority:
                payload["priority"] = int(priority)
            data = json.dumps(payload).encode("utf-8")
        media, body = self._exchange(path, data, headers)
        if media != wire.NPY_MEDIA_TYPE:
            return np.asarray(json.loads(body)["outputs"], dtype=np.float32)
        self._npy = True
        outputs = wire.decode(body).copy()
        return outputs[0] if single else outputs

    # ------------------------------------------------------------------ #
    def predict(self, inputs: np.ndarray, priority: int = 0) -> np.ndarray:
        """Send a batch ``(n, *sample_shape)``; returns outputs ``(n, ...)``."""
        return self._predict(np.asarray(inputs, dtype=np.float32), priority, single=False)

    def predict_one(self, sample: np.ndarray, priority: int = 0) -> np.ndarray:
        """Send a single sample (no batch axis); returns its output vector."""
        return self._predict(np.asarray(sample, dtype=np.float32), priority, single=True)

    def healthz(self) -> Dict[str, Any]:
        return self._request("/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("/metrics")

    def respawn(self) -> Dict[str, Any]:
        """Ask the server to replace dead pool workers (``POST /respawn``)."""
        return self._request("/respawn", {})


__all__ = ["ServeClient", "ServeClientError"]
