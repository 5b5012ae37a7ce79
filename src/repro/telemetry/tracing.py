"""Span tracing: monotonic-clock timelines exportable as Chrome trace events.

The tracer answers "where did the wall time go" for any run — training steps,
pipeline loads, serve requests — with one machine-readable artifact instead
of four ad-hoc log lines.  Design constraints, in order:

1. **Near-zero overhead when disabled.**  :func:`span` checks one module
   global and returns a shared no-op context manager; instrumented hot loops
   that already hold ``perf_counter`` timestamps use :func:`record_span`
   behind a single ``enabled()`` branch, so a disabled run pays a handful of
   predictable branches per step and allocates nothing.
2. **One lane per thread, process and rank.**  Events carry ``(pid, tid)``;
   worker threads get lanes automatically, forked replica workers call
   :func:`reset_after_fork` (clearing inherited parent events) and ship their
   buffers back over the existing error-pipe channel for the parent to
   :meth:`~TraceSession.absorb` — ``perf_counter_ns`` is CLOCK_MONOTONIC on
   Linux, so child timestamps land directly on the parent's timeline.
3. **Standard outputs.**  :func:`write_trace` emits Chrome trace-event JSON
   (loadable in Perfetto / ``chrome://tracing``) or a JSONL structured event
   log; :func:`load_trace` reads either back and :func:`summarize_trace`
   aggregates per-phase totals and step coverage.

Nesting is tracked on a thread-local stack: ``span("fwd")`` inside
``span("step")`` records ``parent="step"`` and ``depth=1``, which is what
lets :func:`summarize_trace` report how much of each step the instrumented
phases account for.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Trace schema version stamped into every export (JSONL header and the
#: Chrome JSON ``otherData`` block).  Bump when event fields change.
TRACE_SCHEMA_VERSION = 1

#: Event tuple layout (kept as tuples internally — dicts only at export).
_NAME, _CAT, _TS_NS, _DUR_NS, _PID, _TID, _DEPTH, _PARENT, _ARGS = range(9)

# Module-level fast path: `span()` reads this one global before anything else.
_enabled = False
_session: Optional["TraceSession"] = None
_state_lock = threading.Lock()


class TraceSession:
    """One recording: an event buffer plus lane (process/thread) metadata."""

    def __init__(self, label: str = "main"):
        self.label = label
        self.pid = os.getpid()
        self.started_ns = time.perf_counter_ns()
        self.started_unix = time.time()
        # deque.append is atomic under the GIL — no lock on the record path.
        self.events: deque = deque()
        self._threads: Dict[Tuple[int, int], str] = {}
        self._processes: Dict[int, str] = {self.pid: label}
        self._meta_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def register_thread(self, pid: int, tid: int, name: str) -> None:
        with self._meta_lock:
            self._threads.setdefault((pid, tid), name)

    def record(self, name: str, cat: str, ts_ns: int, dur_ns: int,
               depth: int, parent: Optional[str],
               args: Optional[Dict[str, Any]]) -> None:
        self.events.append((name, cat, ts_ns, dur_ns, os.getpid(),
                            threading.get_ident(), depth, parent, args))

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------ #
    # Cross-process merge (the data-parallel workers' per-rank timelines)
    # ------------------------------------------------------------------ #
    def drain_payload(self) -> Dict[str, Any]:
        """Detach and return everything recorded so far, picklable.

        Used by forked replica workers: the payload travels over the
        per-worker pipe and the parent :meth:`absorb`\\ s it into the run's
        single timeline.
        """
        events = list(self.events)
        self.events.clear()
        with self._meta_lock:
            threads = dict(self._threads)
            processes = dict(self._processes)
        return {
            "label": self.label,
            "pid": self.pid,
            "threads": {f"{pid}:{tid}": name for (pid, tid), name in threads.items()},
            "processes": processes,
            "events": events,
        }

    def absorb(self, payload: Optional[Dict[str, Any]]) -> int:
        """Merge a worker's :meth:`drain_payload` into this session."""
        if not payload:
            return 0
        for event in payload.get("events", ()):
            self.events.append(tuple(event))
        with self._meta_lock:
            for key, name in payload.get("threads", {}).items():
                pid, tid = key.split(":")
                self._threads.setdefault((int(pid), int(tid)), name)
            for pid, label in payload.get("processes", {}).items():
                self._processes.setdefault(int(pid), label)
        return len(payload.get("events", ()))

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def event_dicts(self) -> List[Dict[str, Any]]:
        """Events as plain dicts with session-relative microsecond stamps."""
        base = self.started_ns
        out = []
        for ev in self.events:
            record = {
                "name": ev[_NAME],
                "cat": ev[_CAT],
                "ts_us": (ev[_TS_NS] - base) / 1e3,
                "dur_us": ev[_DUR_NS] / 1e3,
                "pid": ev[_PID],
                "tid": ev[_TID],
                "depth": ev[_DEPTH],
                "parent": ev[_PARENT],
            }
            if ev[_ARGS]:
                record["args"] = ev[_ARGS]
            out.append(record)
        return out

    def lane_metadata(self) -> List[Dict[str, Any]]:
        """Chrome metadata events naming every process and thread lane."""
        with self._meta_lock:
            threads = dict(self._threads)
            processes = dict(self._processes)
        seen_pids = {ev[_PID] for ev in self.events}
        meta: List[Dict[str, Any]] = []
        for pid in sorted(seen_pids | set(processes)):
            label = processes.get(pid, f"pid {pid}")
            meta.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                         "args": {"name": label}})
        for (pid, tid), name in sorted(threads.items()):
            meta.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                         "args": {"name": name}})
        return meta

    def chrome_document(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object (Perfetto-loadable)."""
        trace_events = self.lane_metadata()
        for record in self.event_dicts():
            event = {
                "name": record["name"],
                "cat": record["cat"] or "default",
                "ph": "X",
                "ts": record["ts_us"],
                "dur": record["dur_us"],
                "pid": record["pid"],
                "tid": record["tid"],
                "args": dict(record.get("args") or {}),
            }
            event["args"]["depth"] = record["depth"]
            if record["parent"]:
                event["args"]["parent"] = record["parent"]
            trace_events.append(event)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": "repro.telemetry.trace",
                "schema_version": TRACE_SCHEMA_VERSION,
                "session": self.label,
                "started_unix": self.started_unix,
            },
        }


# --------------------------------------------------------------------------- #
# Thread-local span stacks
# --------------------------------------------------------------------------- #
class _ThreadState(threading.local):
    def __init__(self):
        self.stack: List[str] = []
        self.registered_session: Optional[TraceSession] = None


_thread_state = _ThreadState()


def _touch_thread(session: TraceSession) -> _ThreadState:
    state = _thread_state
    if state.registered_session is not session:
        session.register_thread(os.getpid(), threading.get_ident(),
                                threading.current_thread().name)
        state.registered_session = session
    return state


# --------------------------------------------------------------------------- #
# The public recording API
# --------------------------------------------------------------------------- #
class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "cat", "args", "_start_ns", "_session", "_state")

    def __init__(self, name: str, cat: str, args: Optional[Dict[str, Any]]):
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self):
        session = _session
        self._session = session
        if session is None:
            self._state = None
            return self
        self._state = _touch_thread(session)
        self._state.stack.append(self.name)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info):
        end_ns = time.perf_counter_ns()
        session, state = self._session, self._state
        if session is None or state is None:
            return False
        stack = state.stack
        stack.pop()
        depth = len(stack)
        parent = stack[-1] if stack else None
        session.record(self.name, self.cat, self._start_ns,
                       end_ns - self._start_ns, depth, parent, self.args)
        return False


def enabled() -> bool:
    """Is a trace session currently recording?"""
    return _enabled


def span(name: str, cat: str = "", **args: Any):
    """Context manager timing one nested span on the calling thread's stack.

    Disabled tracing returns a shared no-op — the call costs one global read
    (plus building ``args`` when keyword arguments are passed; hot loops
    should pass none, or use :func:`record_span` with existing timestamps).
    """
    if not _enabled:
        return _NOOP
    return _Span(name, cat, args or None)


def record_span(name: str, start_s: float, end_s: float, cat: str = "",
                parent: Optional[str] = None, **args: Any) -> None:
    """Record a completed span from existing ``time.perf_counter()`` stamps.

    The zero-allocation path for hot loops that already time themselves
    (trainer steps, the batcher worker): no context manager, no extra clock
    reads.  ``parent`` declares logical nesting explicitly since the span
    never lived on the thread-local stack.
    """
    session = _session
    if session is None:
        return
    _touch_thread(session)
    session.record(name, cat, int(start_s * 1e9), int((end_s - start_s) * 1e9),
                   1 if parent else 0, parent, args or None)


def instant(name: str, cat: str = "", **args: Any) -> None:
    """Record a zero-duration marker event."""
    session = _session
    if session is None:
        return
    _touch_thread(session)
    session.record(name, cat, time.perf_counter_ns(), 0, 0, None, args or None)


# --------------------------------------------------------------------------- #
# Session lifecycle
# --------------------------------------------------------------------------- #
def enable(label: str = "main") -> TraceSession:
    """Start a fresh recording session (replacing any active one)."""
    global _enabled, _session
    with _state_lock:
        session = TraceSession(label)
        _session = session
        _enabled = True
        _thread_state.registered_session = None
    return session


def disable() -> Optional[TraceSession]:
    """Stop recording; returns the finished session (if one was active)."""
    global _enabled, _session
    with _state_lock:
        session = _session
        _enabled = False
        _session = None
    return session


def current_session() -> Optional[TraceSession]:
    return _session


def reset_after_fork(label: str) -> Optional[TraceSession]:
    """Re-home the inherited session inside a forked worker.

    The child inherits the parent's enabled flag and a *copy* of its event
    buffer; recording those again would duplicate every parent span.  This
    clears the buffer, relabels the lane (e.g. ``"rank 1"``), and leaves the
    clock base untouched — CLOCK_MONOTONIC is system-wide, so child spans
    merge onto the parent timeline without any offset arithmetic.
    """
    session = _session
    if session is None:
        return None
    session.events.clear()
    session._threads.clear()
    session.label = label
    session.pid = os.getpid()
    session._processes = {session.pid: label}
    _thread_state.registered_session = None
    _thread_state.stack = []
    return session


# --------------------------------------------------------------------------- #
# File I/O: Chrome JSON and JSONL structured event log
# --------------------------------------------------------------------------- #
def write_trace(path: str, session: Optional[TraceSession] = None) -> int:
    """Write ``session`` to ``path``; format picked by extension.

    ``.jsonl`` gets the structured event log (header line + one JSON object
    per event); anything else gets Chrome trace-event JSON.  Returns the
    number of span events written.
    """
    session = session or _session
    if session is None:
        raise ValueError("no trace session to write (tracing was never enabled)")
    if path.endswith(".jsonl"):
        return _write_jsonl(path, session)
    document = session.chrome_document()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return sum(1 for ev in document["traceEvents"] if ev.get("ph") == "X")


def _write_jsonl(path: str, session: TraceSession) -> int:
    header = {
        "schema": "repro.telemetry.trace",
        "schema_version": TRACE_SCHEMA_VERSION,
        "session": session.label,
        "started_unix": session.started_unix,
        "lanes": [{"pid": m["pid"], "tid": m["tid"], "kind": m["name"],
                   "label": m["args"]["name"]} for m in session.lane_metadata()],
    }
    records = session.event_dicts()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return len(records)


def load_trace(path: str) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Read a trace written by :func:`write_trace` (either format).

    Returns ``(events, meta)`` where each event is a normalized dict with
    ``name / cat / ts_us / dur_us / pid / tid / depth / parent`` keys and
    ``meta`` carries the schema header plus lane labels.
    """
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.read(1)
        handle.seek(0)
        if first == "{" and not path.endswith(".jsonl"):
            try:
                document = json.load(handle)
            except json.JSONDecodeError:
                handle.seek(0)
                return _load_jsonl(handle)
            if isinstance(document, dict) and "traceEvents" in document:
                return _load_chrome(document)
            raise ValueError(f"{path}: not a repro trace (no traceEvents key)")
        return _load_jsonl(handle)


def _load_chrome(document: Dict[str, Any]) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    lanes = {}
    events = []
    for event in document.get("traceEvents", ()):
        if event.get("ph") == "M":
            lanes[(event["pid"], event.get("tid", 0), event["name"])] = \
                event.get("args", {}).get("name", "")
        elif event.get("ph") == "X":
            args = dict(event.get("args") or {})
            events.append({
                "name": event.get("name", ""),
                "cat": event.get("cat", ""),
                "ts_us": float(event.get("ts", 0.0)),
                "dur_us": float(event.get("dur", 0.0)),
                "pid": event.get("pid", 0),
                "tid": event.get("tid", 0),
                "depth": int(args.pop("depth", 0)),
                "parent": args.pop("parent", None),
                "args": args,
            })
    meta = dict(document.get("otherData") or {})
    meta["lanes"] = [{"pid": pid, "tid": tid, "kind": kind, "label": label}
                     for (pid, tid, kind), label in sorted(lanes.items(), key=str)]
    return events, meta


def _load_jsonl(handle) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    header_line = handle.readline()
    if not header_line.strip():
        raise ValueError("empty trace file")
    meta = json.loads(header_line)
    if meta.get("schema") != "repro.telemetry.trace":
        raise ValueError(f"not a repro trace event log (schema={meta.get('schema')!r})")
    events = []
    for line in handle:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        record.setdefault("depth", 0)
        record.setdefault("parent", None)
        events.append(record)
    return events, meta


def write_events(path: str, events: Sequence[Dict[str, Any]],
                 meta: Dict[str, Any]) -> int:
    """Write already-loaded ``(events, meta)`` back out; format by extension.

    The inverse of :func:`load_trace` — what lets ``repro trace export``
    convert a JSONL event log into Perfetto-loadable Chrome JSON (and back)
    without re-running anything.
    """
    lanes = meta.get("lanes", [])
    header_meta = {
        "schema": "repro.telemetry.trace",
        "schema_version": meta.get("schema_version", TRACE_SCHEMA_VERSION),
        "session": meta.get("session", "main"),
        "started_unix": meta.get("started_unix", 0.0),
    }
    if path.endswith(".jsonl"):
        header = dict(header_meta)
        header["lanes"] = lanes
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for record in events:
                handle.write(json.dumps(record) + "\n")
        return len(events)
    trace_events: List[Dict[str, Any]] = [
        {"ph": "M", "name": lane["kind"], "pid": lane["pid"],
         "tid": lane.get("tid", 0), "args": {"name": lane["label"]}}
        for lane in lanes
    ]
    for record in events:
        event = {
            "name": record["name"],
            "cat": record.get("cat") or "default",
            "ph": "X",
            "ts": record["ts_us"],
            "dur": record["dur_us"],
            "pid": record["pid"],
            "tid": record["tid"],
            "args": dict(record.get("args") or {}),
        }
        event["args"]["depth"] = record.get("depth", 0)
        if record.get("parent"):
            event["args"]["parent"] = record["parent"]
        trace_events.append(event)
    document = {"traceEvents": trace_events, "displayTimeUnit": "ms",
                "otherData": header_meta}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return len(events)


def convert_trace(src: str, dst: str) -> int:
    """Load ``src`` (either format) and rewrite it as ``dst``'s format."""
    events, meta = load_trace(src)
    return write_events(dst, events, meta)


# --------------------------------------------------------------------------- #
# Aggregation (the `repro trace summary` verb and the CI coverage gate)
# --------------------------------------------------------------------------- #
def summarize_trace(events: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-phase totals, lane census, and step coverage for one trace.

    ``coverage`` answers the acceptance question directly: of the wall time
    inside ``step`` spans, how much is accounted for by spans that declare
    ``parent == "step"`` (data_wait / forward / backward / allreduce /
    optimizer / ...).
    """
    phases: Dict[str, Dict[str, float]] = {}
    lanes = set()
    t_min, t_max = float("inf"), float("-inf")
    step_total_us = 0.0
    step_child_us: Dict[str, float] = {}
    for event in events:
        lanes.add((event["pid"], event["tid"]))
        name = event["name"]
        dur = float(event["dur_us"])
        entry = phases.setdefault(name, {"count": 0, "total_us": 0.0, "max_us": 0.0})
        entry["count"] += 1
        entry["total_us"] += dur
        entry["max_us"] = max(entry["max_us"], dur)
        t_min = min(t_min, float(event["ts_us"]))
        t_max = max(t_max, float(event["ts_us"]) + dur)
        if name == "step":
            step_total_us += dur
        elif event.get("parent") == "step":
            step_child_us[name] = step_child_us.get(name, 0.0) + dur
    summary: Dict[str, Any] = {
        "events": len(events),
        "lanes": len(lanes),
        "wall_ms": (t_max - t_min) / 1e3 if events else 0.0,
        "phases": {
            name: {
                "count": int(entry["count"]),
                "total_ms": entry["total_us"] / 1e3,
                "mean_ms": entry["total_us"] / entry["count"] / 1e3,
                "max_ms": entry["max_us"] / 1e3,
            }
            for name, entry in sorted(phases.items(),
                                      key=lambda kv: -kv[1]["total_us"])
        },
    }
    if step_total_us > 0:
        covered = sum(step_child_us.values())
        summary["coverage"] = {
            "step_total_ms": step_total_us / 1e3,
            "phase_total_ms": covered / 1e3,
            "fraction": covered / step_total_us,
            "by_phase": {name: us / step_total_us
                         for name, us in sorted(step_child_us.items(),
                                                key=lambda kv: -kv[1])},
        }
    return summary


def format_summary(summary: Dict[str, Any]) -> str:
    """Plain-text rendering of :func:`summarize_trace` for the CLI."""
    lines = [f"events={summary['events']} lanes={summary['lanes']} "
             f"wall={summary['wall_ms']:.3f}ms"]
    if summary["phases"]:
        width = max(len(name) for name in summary["phases"])
        lines.append(f"{'phase':>{width}}  {'count':>7}  {'total_ms':>10}  "
                     f"{'mean_ms':>9}  {'max_ms':>9}")
        for name, entry in summary["phases"].items():
            lines.append(f"{name:>{width}}  {entry['count']:>7d}  "
                         f"{entry['total_ms']:>10.3f}  {entry['mean_ms']:>9.3f}  "
                         f"{entry['max_ms']:>9.3f}")
    coverage = summary.get("coverage")
    if coverage:
        lines.append(f"step coverage: {100 * coverage['fraction']:.1f}% of "
                     f"{coverage['step_total_ms']:.3f}ms inside step spans is "
                     f"attributed to instrumented phases")
    return "\n".join(lines)


__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TraceSession",
    "convert_trace",
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
    "write_events",
    "write_trace",
]
