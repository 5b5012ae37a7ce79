"""SLO controller: tune the batching policy live against a p99 target.

The batching policy trades tail latency for throughput — bigger batches and
longer coalescing waits raise both.  Instead of hand-picking
``max_batch_size`` / ``max_wait_ms`` per deployment, the controller closes
the loop: it watches the measured end-to-end p99 over short windows and
walks the two knobs with an AIMD-style rule.

* **p99 above target** → back off multiplicatively: halve ``max_wait_ms``
  and cut ``max_batch_size`` by a quarter.  Overload must be escaped fast —
  queueing delay compounds while the controller deliberates.
* **p99 below ``headroom`` × target** → probe additively: +2 samples of
  batch, +0.25 ms of wait, up to configured ceilings.  Throughput is
  recovered slowly so the system doesn't oscillate across the target.
* **in the deadband between** → leave the knobs alone.

The knobs are mutated *in place* on the live :class:`~repro.serve.batcher.
BatchingPolicy`; pool workers read the policy every coalescing cycle, so a
decision takes effect on the very next batch.  Because batch
canonicalization makes predictions independent of batch composition
(DESIGN.md §9), the controller can resize batches freely without perturbing
a single output bit — it moves latency, never answers.

Decisions are pure in :meth:`SLOController.step` (unit-testable with a fed
tracker, no threads); :meth:`start` runs them on a daemon thread every
``interval_s``.  Current knob values and the last measured p99 are exported
as gauges so operators can watch the control loop act.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.telemetry import LatencyTracker, MetricsRegistry


@dataclass
class SLOPolicy:
    """Target and bounds for the serving-latency control loop.

    ``target_p99_ms``  — the SLO: measured p99 request latency must stay at
                         or under this.
    ``headroom``       — relax only when p99 < headroom × target, leaving a
                         deadband that prevents limit cycles.
    ``min_samples``    — smallest window worth a decision (p99 of a handful
                         of requests is noise).
    ``max_batch_size`` / ``max_wait_ms`` — ceilings for the relax direction;
                         default to 4× the initial policy values.
    """

    target_p99_ms: float
    interval_s: float = 0.5
    min_samples: int = 32
    headroom: float = 0.7
    min_batch_size: int = 1
    max_batch_size: Optional[int] = None
    min_wait_ms: float = 0.0
    max_wait_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.target_p99_ms <= 0:
            raise ValueError(f"target_p99_ms must be > 0, got {self.target_p99_ms}")
        if not 0.0 < self.headroom < 1.0:
            raise ValueError(f"headroom must be in (0, 1), got {self.headroom}")
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {self.interval_s}")


class SLOController:
    """AIMD control of ``max_batch_size`` / ``max_wait_ms`` toward a p99 target."""

    def __init__(
        self,
        batching_policy,
        slo: SLOPolicy,
        registry: Optional[MetricsRegistry] = None,
        name: str = "slo",
    ):
        self.policy = batching_policy
        self.slo = slo
        self.name = name
        if slo.max_batch_size is None:
            slo.max_batch_size = max(batching_policy.max_batch_size * 4, 4)
        if slo.max_wait_ms is None:
            slo.max_wait_ms = max(batching_policy.max_wait_ms * 4, 1.0)
        self.tracker = LatencyTracker(window=4096)
        registry = registry or MetricsRegistry("serve")
        self._g_p99 = registry.gauge("slo_last_p99_ms")
        self._g_batch = registry.gauge("slo_max_batch_size")
        self._g_wait = registry.gauge("slo_max_wait_ms")
        self._adjustments = registry.counter("slo_adjustments_total")
        self._g_batch.set(batching_policy.max_batch_size)
        self._g_wait.set(batching_policy.max_wait_ms)
        self.last_p99_ms: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    def observe(self, seconds: float) -> None:
        """Feed one request's end-to-end latency (called by pool workers)."""
        self.tracker.observe(seconds)

    def step(self) -> Optional[str]:
        """One control decision; returns ``"tighten"``/``"relax"`` or ``None``.

        Each decision consumes the current window: the tracker resets so the
        next step judges only traffic that ran under the new knobs.
        """
        if self.tracker.count < self.slo.min_samples:
            return None
        p99 = self.tracker.percentile(99.0) * 1e3
        self.tracker.reset()
        self.last_p99_ms = p99
        self._g_p99.set(p99)
        policy, slo = self.policy, self.slo
        if p99 > slo.target_p99_ms:
            new_wait = max(slo.min_wait_ms, policy.max_wait_ms * 0.5)
            new_batch = max(slo.min_batch_size, (policy.max_batch_size * 3) // 4)
            direction = "tighten"
        elif p99 < slo.headroom * slo.target_p99_ms:
            new_wait = min(slo.max_wait_ms, policy.max_wait_ms * 1.25 + 0.05)
            new_batch = min(slo.max_batch_size, policy.max_batch_size + 2)
            direction = "relax"
        else:
            return None
        if new_wait == policy.max_wait_ms and new_batch == policy.max_batch_size:
            return None
        policy.max_wait_ms = new_wait
        policy.max_batch_size = new_batch
        self._g_wait.set(new_wait)
        self._g_batch.set(new_batch)
        self._adjustments.inc()
        return direction

    # ------------------------------------------------------------------ #
    def start(self) -> "SLOController":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name=f"{self.name}-controller", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.slo.interval_s):
            self.step()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # ------------------------------------------------------------------ #
    @property
    def adjustments_total(self) -> int:
        return self._adjustments.value

    def stats(self) -> Dict[str, Any]:
        return {
            "target_p99_ms": self.slo.target_p99_ms,
            "last_p99_ms": self.last_p99_ms,
            "max_batch_size": self.policy.max_batch_size,
            "max_wait_ms": self.policy.max_wait_ms,
            "adjustments_total": self.adjustments_total,
        }


__all__ = ["SLOController", "SLOPolicy"]
