"""Span tracing (repro.telemetry.tracing): nesting, thread lanes, export
round-trips, cross-process merge, and the near-zero-disabled guarantee.

The contracts under test (DESIGN.md §14):

* ``span()`` while disabled returns one shared no-op and records nothing;
* nesting is tracked per thread — children carry ``parent``/``depth`` and the
  ordering of recorded events is deterministic on one thread (children close
  before parents);
* ``write_trace`` emits Chrome trace-event JSON that ``load_trace`` reads
  back losslessly (and plain ``json.load`` validates the schema for external
  tools), and ``load_trace`` rejects any other file, naming it;
* a 2-rank data-parallel run merges worker timelines into the parent
  session with one labeled lane per rank and ≥95% step coverage.
"""

import json
import threading

import numpy as np
import pytest

from repro.telemetry import tracing
from repro.telemetry.tracing import (
    TRACE_SCHEMA_VERSION,
    format_summary,
    load_trace,
    record_span,
    span,
    summarize_trace,
    write_trace,
)


@pytest.fixture(autouse=True)
def tracing_disabled_after():
    """No test may leak an enabled session into the rest of the suite."""
    yield
    tracing.disable()


def events_named(session, name):
    return [ev for ev in session.events if ev[0] == name]


class TestDisabled:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing.enabled()
        first = span("anything")
        second = span("other", cat="x", key=1)
        assert first is second  # the singleton: no allocation per call

    def test_disabled_record_span_is_silent(self):
        record_span("step", 0.0, 1.0)  # must not raise, must not record
        assert tracing.current_session() is None

    def test_disabled_spans_record_nothing_once_reenabled(self):
        with span("ghost"):
            pass
        session = tracing.enable("t")
        assert len(session) == 0


class TestNesting:
    def test_child_carries_parent_and_depth(self):
        session = tracing.enable("t")
        with span("step"):
            with span("forward"):
                pass
        tracing.disable()
        (forward,) = events_named(session, "forward")
        (step,) = events_named(session, "step")
        assert forward[7] == "step" and forward[6] == 1  # parent, depth
        assert step[7] is None and step[6] == 0

    def test_children_close_before_parents_deterministically(self):
        session = tracing.enable("t")
        with span("a"):
            with span("b"):
                with span("c"):
                    pass
        tracing.disable()
        assert [ev[0] for ev in session.events] == ["c", "b", "a"]

    def test_sibling_order_preserved(self):
        session = tracing.enable("t")
        with span("step"):
            for name in ("data_wait", "forward", "backward"):
                with span(name):
                    pass
        tracing.disable()
        assert [ev[0] for ev in session.events] == \
            ["data_wait", "forward", "backward", "step"]

    def test_record_span_with_explicit_parent(self):
        session = tracing.enable("t")
        record_span("forward", 1.0, 2.0, cat="train", parent="step", batch=3)
        tracing.disable()
        (ev,) = session.events
        assert ev[7] == "step" and ev[6] == 1
        assert ev[3] == pytest.approx(1e9)  # duration in ns
        assert ev[8] == {"batch": 3}

    def test_threads_get_independent_stacks_and_lanes(self):
        session = tracing.enable("t")
        barrier = threading.Barrier(2)

        def work(tag):
            barrier.wait()
            with span("step"):
                with span(tag):
                    pass

        threads = [threading.Thread(target=work, args=(f"phase{i}",), name=f"w{i}")
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tracing.disable()
        # Each thread nested correctly regardless of interleaving...
        for i in range(2):
            (child,) = events_named(session, f"phase{i}")
            assert child[7] == "step" and child[6] == 1
        # ...and events landed on two distinct lanes with registered names.
        tids = {ev[5] for ev in session.events}
        assert len(tids) == 2
        labels = {m["args"]["name"] for m in session.lane_metadata()
                  if m["name"] == "thread_name"}
        assert {"w0", "w1"} <= labels


class TestExportRoundTrip:
    def _record(self):
        session = tracing.enable("roundtrip")
        with span("step", cat="train", batch=0):
            with span("forward"):
                pass
        record_span("optimizer", 10.0, 10.5, parent="step")
        tracing.disable()
        return session

    def test_chrome_json_schema(self, tmp_path):
        session = self._record()
        path = str(tmp_path / "trace.json")
        written = write_trace(path, session)
        assert written == 3
        document = json.load(open(path))  # what Perfetto would parse
        assert document["displayTimeUnit"] == "ms"
        other = document["otherData"]
        assert other["schema"] == "repro.telemetry.trace"
        assert other["schema_version"] == TRACE_SCHEMA_VERSION
        assert other["session"] == "roundtrip"
        complete = [ev for ev in document["traceEvents"] if ev["ph"] == "X"]
        assert len(complete) == 3
        for ev in complete:
            assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(ev)
        meta = [ev for ev in document["traceEvents"] if ev["ph"] == "M"]
        assert any(m["name"] == "process_name" for m in meta)
        assert any(m["name"] == "thread_name" for m in meta)

    def test_chrome_load_trace_roundtrip(self, tmp_path):
        session = self._record()
        path = str(tmp_path / "trace.json")
        write_trace(path, session)
        events, meta = load_trace(path)
        assert meta["session"] == "roundtrip"
        by_name = {ev["name"]: ev for ev in events}
        assert by_name["forward"]["parent"] == "step"
        assert by_name["forward"]["depth"] == 1
        assert by_name["optimizer"]["dur_us"] == pytest.approx(5e5)
        assert meta["lanes"]  # labeled lanes survive the round-trip

    def test_writes_chrome_json_whatever_the_extension(self, tmp_path):
        session = self._record()
        path = str(tmp_path / "trace.jsonl")
        assert write_trace(path, session) == 3
        with open(path) as handle:
            document = json.load(handle)
        assert document["otherData"]["schema"] == "repro.telemetry.trace"
        events, _ = load_trace(path)
        assert {ev["name"] for ev in events} == {"step", "forward", "optimizer"}

    def test_load_rejects_foreign_json(self, tmp_path):
        path = str(tmp_path / "other.json")
        json.dump({"not": "a trace"}, open(path, "w"))
        with pytest.raises(ValueError, match="other.json"):
            load_trace(path)
        # One JSON object per line is not one JSON document.
        lines = str(tmp_path / "lines.jsonl")
        with open(lines, "w") as handle:
            handle.write('{"schema": "repro.telemetry.trace"}\n{"name": "step"}\n')
        with pytest.raises(ValueError, match="lines.jsonl"):
            load_trace(lines)

    def test_write_without_session_raises(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace(str(tmp_path / "x.json"))


class TestSummarize:
    def test_coverage_fraction(self):
        events = [
            {"name": "step", "cat": "", "ts_us": 0.0, "dur_us": 100.0,
             "pid": 1, "tid": 1, "depth": 0, "parent": None},
            {"name": "forward", "cat": "", "ts_us": 0.0, "dur_us": 60.0,
             "pid": 1, "tid": 1, "depth": 1, "parent": "step"},
            {"name": "backward", "cat": "", "ts_us": 60.0, "dur_us": 30.0,
             "pid": 1, "tid": 1, "depth": 1, "parent": "step"},
            # Not a step child: must not count toward coverage.
            {"name": "eval", "cat": "", "ts_us": 100.0, "dur_us": 50.0,
             "pid": 1, "tid": 1, "depth": 0, "parent": None},
        ]
        summary = summarize_trace(events)
        assert summary["events"] == 4
        assert summary["lanes"] == 1
        assert summary["coverage"]["fraction"] == pytest.approx(0.9)
        assert summary["coverage"]["by_phase"]["forward"] == pytest.approx(0.6)
        assert summary["wall_ms"] == pytest.approx(0.15)

    def test_phases_sorted_by_total_time(self):
        events = [
            {"name": "small", "cat": "", "ts_us": 0.0, "dur_us": 1.0,
             "pid": 1, "tid": 1, "depth": 0, "parent": None},
            {"name": "big", "cat": "", "ts_us": 0.0, "dur_us": 100.0,
             "pid": 1, "tid": 1, "depth": 0, "parent": None},
        ]
        assert list(summarize_trace(events)["phases"]) == ["big", "small"]

    def test_empty_trace_summarizes_without_coverage(self):
        summary = summarize_trace([])
        assert summary["events"] == 0
        assert summary["wall_ms"] == 0.0
        assert "coverage" not in summary
        assert "step coverage" not in format_summary(summary)

    def test_format_summary_reports_coverage_line(self):
        events = [
            {"name": "step", "cat": "", "ts_us": 0.0, "dur_us": 10.0,
             "pid": 1, "tid": 1, "depth": 0, "parent": None},
            {"name": "forward", "cat": "", "ts_us": 0.0, "dur_us": 10.0,
             "pid": 1, "tid": 1, "depth": 1, "parent": "step"},
        ]
        text = format_summary(summarize_trace(events))
        assert "step coverage: 100.0%" in text


class TestCrossProcessMerge:
    def test_absorb_merges_worker_payload(self):
        session = tracing.enable("parent")
        with span("allreduce"):
            pass
        payload = {
            "label": "rank 1", "pid": 99999,
            "threads": {"99999:1": "MainThread"},
            "processes": {99999: "rank 1"},
            "events": [("step", "dp", 1000, 500, 99999, 1, 0, None, None)],
        }
        assert session.absorb(payload) == 1
        tracing.disable()
        assert len(session) == 2
        labels = {m["args"]["name"] for m in session.lane_metadata()
                  if m["name"] == "process_name"}
        assert {"parent", "rank 1"} <= labels

    def test_drain_payload_detaches_events(self):
        session = tracing.enable("worker")
        with span("step"):
            pass
        payload = session.drain_payload()
        tracing.disable()
        assert len(payload["events"]) == 1
        assert len(session) == 0  # drained, not copied
        assert all(isinstance(k, str) for k in payload["threads"])  # picklable

    def test_two_rank_process_mode_merged_timeline(self, tmp_path):
        """The acceptance path: per-rank lanes of the forked workers and
        step coverage ≥95% in the merged trace."""
        from repro.data import ArrayDataset, PipelineLoader
        from repro.distributed import DataParallelTrainer
        from repro.models import build_model
        from repro.optim import SGD
        from repro.utils import get_rng, seed_everything

        seed_everything(0)
        rng = get_rng(offset=5)
        images = rng.standard_normal((32, 3, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 4, size=32).astype(np.int64)
        dataset = ArrayDataset(images, labels)
        model = build_model("resnet18", num_classes=4, width_mult=0.125,
                            small_input=True, rng=get_rng(offset=1))
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        trainer = DataParallelTrainer(
            model, optimizer, PipelineLoader(dataset, 8, shuffle=True),
            world_size=2)
        session = tracing.enable("trainer")
        try:
            trainer.train_epoch()
        finally:
            tracing.disable()
            trainer.shutdown()

        path = str(tmp_path / "dp.json")
        write_trace(path, session)
        events, meta = load_trace(path)
        lane_labels = {lane["label"] for lane in meta["lanes"]
                       if lane["kind"] == "process_name"}
        assert {"trainer", "rank 0", "rank 1"} <= lane_labels
        # Worker step spans landed on both rank pids.
        step_pids = {ev["pid"] for ev in events if ev["name"] == "step"}
        assert len(step_pids) == 2
        summary = summarize_trace(events)
        assert {"step", "forward", "backward", "allreduce",
                "optimizer"} <= set(summary["phases"])
        assert summary["coverage"]["fraction"] >= 0.95
