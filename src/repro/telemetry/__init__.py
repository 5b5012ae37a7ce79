"""Unified observability: span tracing, metrics registry, cross-process
timelines.

Two halves with one goal — making "where did the wall time go" a
machine-readable artifact instead of scattered log lines:

* :mod:`repro.telemetry.tracing` — ``span()`` context managers over monotonic
  clocks exporting Chrome trace-event JSON, near-zero overhead when
  disabled, one lane per thread/process/rank (forked replica workers merge
  onto the parent timeline).
* :mod:`repro.telemetry.metrics` — named counter/gauge/latency/histogram
  instruments plus collector adapters behind a versioned snapshot contract
  and optional Prometheus text exposition.
"""

from repro.telemetry.metrics import (
    BatchSizeHistogram,
    Counter,
    DEFAULT_PERCENTILES,
    Gauge,
    LatencyTracker,
    MetricsRegistry,
    SNAPSHOT_SCHEMA_VERSION,
    validate_snapshot,
)
from repro.telemetry.tracing import (
    TRACE_SCHEMA_VERSION,
    TraceSession,
    current_session,
    disable,
    enable,
    enabled,
    format_summary,
    instant,
    load_trace,
    record_span,
    reset_after_fork,
    span,
    summarize_trace,
    write_trace,
)

__all__ = [
    "BatchSizeHistogram",
    "Counter",
    "DEFAULT_PERCENTILES",
    "Gauge",
    "LatencyTracker",
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "TraceSession",
    "current_session",
    "disable",
    "enable",
    "enabled",
    "format_summary",
    "instant",
    "load_trace",
    "record_span",
    "reset_after_fork",
    "span",
    "summarize_trace",
    "validate_snapshot",
    "write_trace",
]
