"""Unified metrics registry: named instruments behind one snapshot contract.

Before this module the repo accumulated four ad-hoc metric mechanisms —
``LatencyTracker``/``BatchSizeHistogram`` (serving), ``PipelineStats``
(loaders), ``op_counters`` (backends), and the batcher's hand-rolled stats
dict.  Each had its own shape and no common export.  The registry absorbs
them behind one API:

* **Instruments** are created by name through a :class:`MetricsRegistry`
  (get-or-create, thread-safe): :class:`Counter`, :class:`Gauge`,
  :class:`LatencyTracker`, :class:`BatchSizeHistogram`.
* **Collectors** adapt metric sources that keep their own state
  (``PipelineStats``, ``op_counters``, the batcher) — register a zero-arg
  callable and its dict lands in the snapshot under ``collected``.
* **Snapshots** are versioned (``schema_version``) so downstream consumers
  (``/metrics``, the CI smoke leg, future dashboards) can validate shape with
  :func:`validate_snapshot` before trusting content.
* **Prometheus text exposition** (:meth:`MetricsRegistry.render_prometheus`)
  gives scrapers the flat-sample view without a second bookkeeping path.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

DEFAULT_PERCENTILES = (50.0, 95.0, 99.0)

#: Version stamped into every :meth:`MetricsRegistry.snapshot`.  Bump when
#: top-level keys or per-instrument shapes change.
SNAPSHOT_SCHEMA_VERSION = 1


# --------------------------------------------------------------------------- #
# Instruments
# --------------------------------------------------------------------------- #
class Counter:
    """Monotonically increasing count (requests served, errors, steps)."""

    __slots__ = ("_value", "_lock")

    def __init__(self):
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (queue depth, live workers)."""

    __slots__ = ("_value", "_lock")

    def __init__(self, initial: float = 0.0):
        self._value = float(initial)
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class LatencyTracker:
    """Streaming latency statistics: count, mean, and windowed percentiles.

    Designed for a hot path shared by many threads: ``observe`` takes a lock
    only long enough to write one slot of a fixed-size ring buffer, and
    percentile computation sorts a snapshot outside the lock.

    Percentiles are computed over the most recent ``window`` observations
    (the ring buffer), while ``count``/``total`` accumulate over the
    tracker's whole lifetime — the usual behaviour of serving metric
    endpoints, where p99 should reflect *current* behaviour but request
    counters must never reset.

    Quantiles are total functions: an empty tracker reports ``0.0`` for
    every percentile, a single-sample tracker reports that sample for every
    percentile, and non-finite observations are rejected at ``observe``
    time so NaN can never poison the window.
    """

    def __init__(self, window: int = 8192):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = int(window)
        self._buffer = np.zeros(self.window, dtype=np.float64)
        self._next = 0
        self._filled = 0
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one duration (in seconds)."""
        value = float(seconds)
        if not math.isfinite(value):
            raise ValueError(f"observed duration must be finite, got {value}")
        with self._lock:
            self._buffer[self._next] = value
            self._next = (self._next + 1) % self.window
            self._filled = min(self._filled + 1, self.window)
            self._count += 1
            self._total += value
            if value > self._max:
                self._max = value

    # ------------------------------------------------------------------ #
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def _snapshot(self) -> np.ndarray:
        with self._lock:
            return self._buffer[: self._filled].copy()

    @staticmethod
    def _check_quantile(q: float) -> float:
        q = float(q)
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return q

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0–100) over the current window, in seconds.

        Well-defined for any window size: ``0.0`` when empty, the single
        sample when only one value has been observed.
        """
        q = self._check_quantile(q)
        values = self._snapshot()
        if values.size == 0:
            return 0.0
        if values.size == 1:
            return float(values[0])
        return float(np.percentile(values, q))

    def percentiles(self, qs: Sequence[float] = DEFAULT_PERCENTILES) -> Dict[str, float]:
        qs = [self._check_quantile(q) for q in qs]
        values = self._snapshot()
        if values.size == 0:
            return {f"p{q:g}": 0.0 for q in qs}
        if values.size == 1:
            single = float(values[0])
            return {f"p{q:g}": single for q in qs}
        return {f"p{q:g}": float(np.percentile(values, q)) for q in qs}

    def summary(self, unit: str = "s") -> Dict[str, float]:
        """Aggregate view: lifetime count/mean/max plus windowed percentiles.

        ``unit`` is ``"s"`` or ``"ms"``; durations are scaled accordingly so
        the ``/metrics`` endpoint can report milliseconds directly.
        """
        scale = {"s": 1.0, "ms": 1e3}[unit]
        with self._lock:
            count, total, peak = self._count, self._total, self._max
            values = self._buffer[: self._filled].copy()
        out = {
            "count": float(count),
            "mean": scale * (total / count if count else 0.0),
            "max": scale * peak,
        }
        if values.size == 0:
            for q in DEFAULT_PERCENTILES:
                out[f"p{q:g}"] = 0.0
        elif values.size == 1:
            for q in DEFAULT_PERCENTILES:
                out[f"p{q:g}"] = scale * float(values[0])
        else:
            for q in DEFAULT_PERCENTILES:
                out[f"p{q:g}"] = scale * float(np.percentile(values, q))
        return out


class BatchSizeHistogram:
    """Power-of-two histogram of executed micro-batch sizes."""

    def __init__(self, max_batch_size: int = 1024):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        bounds: List[int] = []
        edge = 1
        while edge < max_batch_size:
            bounds.append(edge)
            edge *= 2
        bounds.append(max_batch_size)
        self.bounds = bounds                       # upper edges, inclusive
        self._counts = [0] * (len(bounds) + 1)     # final slot: > max_batch_size
        self._samples_total = 0
        self._batches_total = 0
        self._lock = threading.Lock()

    def observe(self, batch_size: int) -> None:
        size = int(batch_size)
        if size <= 0:
            raise ValueError(f"batch_size must be positive, got {size}")
        slot = len(self.bounds)
        for i, edge in enumerate(self.bounds):
            if size <= edge:
                slot = i
                break
        with self._lock:
            self._counts[slot] += 1
            self._batches_total += 1
            self._samples_total += size

    @property
    def batches(self) -> int:
        with self._lock:
            return self._batches_total

    @property
    def samples(self) -> int:
        with self._lock:
            return self._samples_total

    def mean_batch_size(self) -> float:
        with self._lock:
            return self._samples_total / self._batches_total if self._batches_total else 0.0

    def as_dict(self) -> Dict[str, int]:
        """Bucket label → count, e.g. ``{"<=1": 4, "<=2": 0, ..., ">32": 0}``."""
        with self._lock:
            counts = list(self._counts)
        out = {f"<={edge}": counts[i] for i, edge in enumerate(self.bounds)}
        out[f">{self.bounds[-1]}"] = counts[-1]
        return out


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class MetricsRegistry:
    """Named instruments plus pluggable collectors under one snapshot.

    ``counter``/``gauge``/``latency``/``histogram`` are get-or-create: the
    first call for a name builds the instrument, later calls return the same
    object (asking for a different kind under an existing name is an error —
    silent type confusion is how metric endpoints rot).
    """

    def __init__(self, namespace: str = "repro"):
        self.namespace = namespace
        self._instruments: Dict[str, Any] = {}
        self._collectors: Dict[str, Callable[[], Dict[str, Any]]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _get_or_create(self, name: str, kind: type, factory: Callable[[], Any]):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, requested {kind.__name__}")
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, Gauge)

    def latency(self, name: str, window: int = 8192) -> LatencyTracker:
        return self._get_or_create(name, LatencyTracker,
                                   lambda: LatencyTracker(window=window))

    def histogram(self, name: str, max_batch_size: int = 1024) -> BatchSizeHistogram:
        return self._get_or_create(
            name, BatchSizeHistogram,
            lambda: BatchSizeHistogram(max_batch_size=max_batch_size))

    def register_collector(self, name: str,
                           fn: Callable[[], Dict[str, Any]]) -> None:
        """Adopt an external metric source: ``fn()`` is called per snapshot.

        This is how ``PipelineStats``, ``op_counters`` and the batcher's
        worker stats join the unified snapshot without being rewritten.
        """
        with self._lock:
            self._collectors[name] = fn

    def instrument_names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """The versioned unified snapshot of every instrument and collector."""
        with self._lock:
            instruments = dict(self._instruments)
            collectors = dict(self._collectors)
        snap: Dict[str, Any] = {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "namespace": self.namespace,
            "counters": {},
            "gauges": {},
            "latency_ms": {},
            "histograms": {},
            "collected": {},
        }
        for name in sorted(instruments):
            instrument = instruments[name]
            if isinstance(instrument, Counter):
                snap["counters"][name] = instrument.value
            elif isinstance(instrument, Gauge):
                snap["gauges"][name] = instrument.value
            elif isinstance(instrument, LatencyTracker):
                snap["latency_ms"][name] = instrument.summary(unit="ms")
            elif isinstance(instrument, BatchSizeHistogram):
                snap["histograms"][name] = {
                    "batches": instrument.batches,
                    "samples": instrument.samples,
                    "mean": instrument.mean_batch_size(),
                    "buckets": instrument.as_dict(),
                }
        for name in sorted(collectors):
            try:
                snap["collected"][name] = collectors[name]()
            except Exception as error:  # a broken collector must not take
                snap["collected"][name] = {"error": str(error)}  # /metrics down
        return snap

    # ------------------------------------------------------------------ #
    def render_prometheus(self) -> str:
        """Flat Prometheus text exposition of the instrument snapshot.

        Collectors are exposed only for numeric leaves (flattened with ``_``
        separators) — nested non-numeric values have no Prometheus mapping.
        """
        snap = self.snapshot()
        prefix = _sanitize(self.namespace)
        lines: List[str] = []
        for name, value in snap["counters"].items():
            metric = f"{prefix}_{_sanitize(name)}"
            if not metric.endswith("_total"):  # Prometheus counter convention
                metric += "_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value}")
        for name, value in snap["gauges"].items():
            metric = f"{prefix}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_fmt(value)}")
        for name, summary in snap["latency_ms"].items():
            metric = f"{prefix}_{_sanitize(name)}_ms"
            lines.append(f"# TYPE {metric} summary")
            for key, value in summary.items():
                if key.startswith("p"):
                    lines.append(f'{metric}{{quantile="{key[1:]}"}} {_fmt(value)}')
            lines.append(f"{metric}_count {int(summary['count'])}")
            lines.append(f"{metric}_mean {_fmt(summary['mean'])}")
            lines.append(f"{metric}_max {_fmt(summary['max'])}")
        for name, hist in snap["histograms"].items():
            metric = f"{prefix}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for label, count in hist["buckets"].items():
                cumulative += count
                bound = label[2:] if label.startswith("<=") else "+Inf"
                lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
            lines.append(f"{metric}_sum {hist['samples']}")
            lines.append(f"{metric}_count {hist['batches']}")
        for name, payload in snap["collected"].items():
            for key, value in _numeric_leaves(payload, _sanitize(name)):
                lines.append(f"{prefix}_{key} {_fmt(value)}")
        return "\n".join(lines) + "\n"


def _sanitize(name: str) -> str:
    return "".join(ch if (ch.isalnum() or ch == "_") else "_" for ch in name)


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _numeric_leaves(payload: Any, prefix: str):
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from _numeric_leaves(value, f"{prefix}_{_sanitize(str(key))}")
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        if math.isfinite(payload):
            yield prefix, payload


# --------------------------------------------------------------------------- #
# Snapshot validation (the CI assert and the tests share this)
# --------------------------------------------------------------------------- #
_LATENCY_KEYS = ("count", "mean", "max") + tuple(
    f"p{q:g}" for q in DEFAULT_PERCENTILES)


def validate_snapshot(snapshot: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``snapshot`` matches the version-1 contract."""
    if not isinstance(snapshot, dict):
        raise ValueError(f"snapshot must be a dict, got {type(snapshot).__name__}")
    version = snapshot.get("schema_version")
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise ValueError(f"unsupported snapshot schema_version {version!r} "
                         f"(expected {SNAPSHOT_SCHEMA_VERSION})")
    for key in ("namespace", "counters", "gauges", "latency_ms",
                "histograms", "collected"):
        if key not in snapshot:
            raise ValueError(f"snapshot missing required key {key!r}")
    for section in ("counters", "gauges", "latency_ms", "histograms", "collected"):
        if not isinstance(snapshot[section], dict):
            raise ValueError(f"snapshot[{section!r}] must be a dict")
    for name, value in snapshot["counters"].items():
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"counter {name!r} must be a non-negative int, "
                             f"got {value!r}")
    for name, value in snapshot["gauges"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"gauge {name!r} must be numeric, got {value!r}")
    for name, summary in snapshot["latency_ms"].items():
        missing = [key for key in _LATENCY_KEYS if key not in summary]
        if missing:
            raise ValueError(f"latency {name!r} missing keys {missing}")
        for key in _LATENCY_KEYS:
            if not math.isfinite(float(summary[key])):
                raise ValueError(f"latency {name!r}[{key!r}] is not finite")
    for name, hist in snapshot["histograms"].items():
        for key in ("batches", "samples", "mean", "buckets"):
            if key not in hist:
                raise ValueError(f"histogram {name!r} missing key {key!r}")
        if sum(hist["buckets"].values()) != hist["batches"]:
            raise ValueError(f"histogram {name!r} bucket counts do not sum "
                             f"to batches")


__all__ = [
    "BatchSizeHistogram",
    "Counter",
    "DEFAULT_PERCENTILES",
    "Gauge",
    "LatencyTracker",
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA_VERSION",
    "validate_snapshot",
]
