"""Metrics registry (repro.telemetry.metrics): instruments, the versioned
snapshot contract, collector isolation, and Prometheus text exposition.

``LatencyTracker``/``BatchSizeHistogram`` behaviour keeps its coverage in
``test_profiling_latency.py``; this file covers what the registry adds on
top.
"""

import json
import threading

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    MetricsRegistry,
    SNAPSHOT_SCHEMA_VERSION,
    validate_snapshot,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(4.0)
        gauge.inc(2.0)
        gauge.dec(5.0)
        assert gauge.value == pytest.approx(1.0)

    def test_counter_threads_lose_nothing(self):
        counter = Counter()

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry("test")
        assert registry.counter("requests") is registry.counter("requests")
        assert registry.latency("lat") is registry.latency("lat")

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry("test")
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_instrument_names_sorted(self):
        registry = MetricsRegistry("test")
        registry.gauge("b")
        registry.counter("a")
        assert registry.instrument_names() == ["a", "b"]

    def test_snapshot_covers_every_kind_and_validates(self):
        registry = MetricsRegistry("test")
        registry.counter("requests").inc(3)
        registry.gauge("depth").set(2.0)
        registry.latency("wait").observe(0.010)
        registry.histogram("sizes", max_batch_size=8).observe(4)
        registry.register_collector("extra", lambda: {"alive": True, "n": 7})
        snap = registry.snapshot()
        validate_snapshot(snap)  # the contract the CI smoke leg asserts
        assert snap["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert snap["namespace"] == "test"
        assert snap["counters"]["requests"] == 3
        assert snap["gauges"]["depth"] == 2.0
        assert snap["latency_ms"]["wait"]["p99"] == pytest.approx(10.0)
        assert snap["histograms"]["sizes"]["batches"] == 1
        assert snap["histograms"]["sizes"]["buckets"]["<=4"] == 1
        assert snap["collected"]["extra"] == {"alive": True, "n": 7}
        json.dumps(snap)  # must be directly serializable for /metrics

    def test_broken_collector_cannot_take_snapshot_down(self):
        registry = MetricsRegistry("test")

        def explode():
            raise RuntimeError("backend gone")

        registry.register_collector("flaky", explode)
        registry.counter("ok").inc()
        snap = registry.snapshot()
        assert snap["collected"]["flaky"] == {"error": "backend gone"}
        assert snap["counters"]["ok"] == 1
        validate_snapshot(snap)


class TestValidateSnapshot:
    def _good(self):
        registry = MetricsRegistry("v")
        registry.counter("c").inc()
        registry.latency("l").observe(0.001)
        registry.histogram("h", max_batch_size=4).observe(2)
        return registry.snapshot()

    def test_wrong_version_rejected(self):
        snap = self._good()
        snap["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            validate_snapshot(snap)

    def test_missing_section_rejected(self):
        snap = self._good()
        del snap["gauges"]
        with pytest.raises(ValueError, match="gauges"):
            validate_snapshot(snap)

    def test_negative_counter_rejected(self):
        snap = self._good()
        snap["counters"]["c"] = -1
        with pytest.raises(ValueError, match="non-negative"):
            validate_snapshot(snap)

    def test_bool_gauge_rejected(self):
        snap = self._good()
        snap["gauges"]["g"] = True
        with pytest.raises(ValueError, match="numeric"):
            validate_snapshot(snap)

    def test_nan_latency_rejected(self):
        snap = self._good()
        snap["latency_ms"]["l"]["p99"] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            validate_snapshot(snap)

    def test_inconsistent_histogram_rejected(self):
        snap = self._good()
        snap["histograms"]["h"]["batches"] = 5
        with pytest.raises(ValueError, match="sum"):
            validate_snapshot(snap)


class TestPrometheus:
    def test_exposition_covers_every_instrument_kind(self):
        registry = MetricsRegistry("serve")
        registry.counter("requests").inc(2)
        registry.gauge("queue_depth").set(3)
        registry.latency("e2e").observe(0.5)
        registry.histogram("batch_sizes", max_batch_size=4).observe(3)
        registry.register_collector("worker", lambda: {"utilization": 0.5,
                                                       "label": "text"})
        text = registry.render_prometheus()
        assert "# TYPE serve_requests_total counter" in text
        assert "serve_requests_total 2" in text
        assert "serve_queue_depth 3" in text
        assert 'serve_e2e_ms{quantile="99"}' in text
        assert 'serve_batch_sizes_bucket{le="+Inf"} 1' in text
        assert "serve_batch_sizes_count 1" in text
        assert "serve_worker_utilization 0.5" in text
        assert "label" not in text  # non-numeric collector leaves are dropped
        assert text.endswith("\n")

    def test_metric_names_sanitized(self):
        registry = MetricsRegistry("my-ns")
        registry.counter("http.requests").inc()
        text = registry.render_prometheus()
        assert "my_ns_http_requests_total 1" in text
