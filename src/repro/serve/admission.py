"""Admission control: the policy layer in front of the request queue.

PR 3's backpressure was one hardcoded behaviour — ``put_nowait`` and raise
:class:`QueueFullError` when the bounded queue is at capacity.  This module
turns that into a policy object with two kinds:

* ``reject``   — the classic behaviour (and the default): fail fast when the
  queue is full so callers shed load at the edge.  Bit-for-bit compatible
  with the pre-pool engine.
* ``priority`` — requests carry an integer ``priority`` (higher = more
  important, default 0).  Above the ``shed_watermark`` fill fraction the
  controller sheds requests whose priority is below
  ``shed_below_priority`` *before* they ever occupy a queue slot, keeping
  capacity for important traffic during overload.  Shed requests fail with
  :class:`LoadShedError` — a :class:`QueueFullError` subclass, so every
  existing retry/503 path treats shedding exactly like a full queue.

A producer that would rather wait for queue space than fail submits with
``timeout=None``, under either kind.  The controller owns no threads and
takes one lock-free decision per request; its counters (admitted /
rejected / shed) land in the shared serve metrics registry and surface
through ``/metrics``.
"""

from __future__ import annotations

import queue as _queue
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.telemetry import MetricsRegistry
from repro.utils.concurrency import ClosableQueue

_KINDS = ("reject", "priority")


class QueueFullError(RuntimeError):
    """The request queue is at capacity; the caller should retry or shed load."""


class LoadShedError(QueueFullError):
    """The request was shed by the admission policy (overload + low priority)."""


@dataclass
class AdmissionPolicy:
    """How requests are admitted to the batching queue.

    ``kind``                — ``reject`` | ``priority``.
    ``shed_watermark``      — queue fill fraction (of ``max_queue``) above
                              which the ``priority`` kind starts shedding.
    ``shed_below_priority`` — requests with ``priority`` strictly below this
                              are sheddable; the default (1) sheds only the
                              default-priority (0) traffic and admits
                              anything a caller bothered to mark important.
    """

    kind: str = "reject"
    shed_watermark: float = 0.75
    shed_below_priority: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"admission kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0.0 < self.shed_watermark <= 1.0:
            raise ValueError(
                f"shed_watermark must be in (0, 1], got {self.shed_watermark}")


class AdmissionController:
    """Apply an :class:`AdmissionPolicy` to every enqueue."""

    def __init__(
        self,
        queue: ClosableQueue,
        max_queue: int,
        policy: Optional[AdmissionPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
        name: str = "batcher",
    ):
        self.queue = queue
        self.max_queue = int(max_queue)
        self.policy = policy or AdmissionPolicy()
        self.name = name
        registry = registry or MetricsRegistry("serve")
        self._admitted = registry.counter("admission_admitted_total")
        self._rejected = registry.counter("admission_rejected_total")
        self._shed = registry.counter("admission_shed_total")
        self._watermark_depth = max(
            1, int(self.max_queue * self.policy.shed_watermark))

    # ------------------------------------------------------------------ #
    def admit(self, request: Any, timeout: Optional[float]) -> None:
        """Enqueue ``request`` or raise.

        ``timeout`` keeps the pre-pool submit semantics: ``0`` fails
        immediately when full, ``None`` blocks until there is space.
        """
        policy = self.policy
        if (policy.kind == "priority"
                and getattr(request, "priority", 0) < policy.shed_below_priority
                and self.queue.qsize() >= self._watermark_depth):
            self._shed.inc()
            raise LoadShedError(
                f"{self.name}: shed priority<{policy.shed_below_priority} request "
                f"at queue depth >= {self._watermark_depth}/{self.max_queue}")
        try:
            if timeout == 0.0:
                self.queue.put_nowait(request)
            else:
                self.queue.put(request, timeout=timeout)
        except _queue.Full:
            self._rejected.inc()
            raise QueueFullError(
                f"{self.name}: request queue is full "
                f"({self.max_queue} pending requests)"
            ) from None
        self._admitted.inc()

    # ------------------------------------------------------------------ #
    @property
    def admitted_total(self) -> int:
        return self._admitted.value

    @property
    def rejected_total(self) -> int:
        return self._rejected.value

    @property
    def shed_total(self) -> int:
        return self._shed.value

    def stats(self) -> Dict[str, Any]:
        return {
            "kind": self.policy.kind,
            "admitted_total": self.admitted_total,
            "rejected_total": self.rejected_total,
            "shed_total": self.shed_total,
            "shed_watermark_depth": self._watermark_depth,
        }


__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "LoadShedError",
    "QueueFullError",
]
