"""Latency/batch-size trackers (repro.telemetry): streaming stats,
windowing, and thread safety under concurrent observers."""

import threading

import numpy as np
import pytest

from repro.telemetry import BatchSizeHistogram, LatencyTracker


class TestLatencyTracker:
    def test_empty_tracker_reports_zeros(self):
        tracker = LatencyTracker()
        assert tracker.count == 0
        assert tracker.percentile(50) == 0.0
        summary = tracker.summary()
        assert summary["count"] == 0.0
        assert summary["p99"] == 0.0

    def test_percentiles_match_numpy(self):
        tracker = LatencyTracker()
        values = np.linspace(0.001, 0.1, 200)
        for value in values:
            tracker.observe(value)
        assert tracker.count == 200
        for q in (50, 95, 99):
            assert tracker.percentile(q) == pytest.approx(np.percentile(values, q))

    def test_summary_in_milliseconds(self):
        tracker = LatencyTracker()
        tracker.observe(0.25)
        summary = tracker.summary(unit="ms")
        assert summary["mean"] == pytest.approx(250.0)
        assert summary["max"] == pytest.approx(250.0)

    def test_window_keeps_percentiles_recent_but_count_lifetime(self):
        tracker = LatencyTracker(window=10)
        for _ in range(100):
            tracker.observe(1.0)
        for _ in range(10):
            tracker.observe(5.0)    # the window now holds only 5.0s
        assert tracker.count == 110
        assert tracker.percentile(50) == pytest.approx(5.0)

    def test_reset(self):
        tracker = LatencyTracker()
        tracker.observe(1.0)
        tracker.reset()
        assert tracker.count == 0
        assert tracker.summary()["max"] == 0.0

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            LatencyTracker(window=0)

    def test_empty_tracker_every_percentile_is_zero_not_nan(self):
        tracker = LatencyTracker()
        for q in (0, 50, 99, 100):
            value = tracker.percentile(q)
            assert value == 0.0 and value == value  # defined, not nan
        assert tracker.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_single_sample_is_every_percentile(self):
        tracker = LatencyTracker()
        tracker.observe(0.042)
        for q in (0, 50, 99, 100):
            assert tracker.percentile(q) == pytest.approx(0.042)
        summary = tracker.summary()
        assert summary["p50"] == summary["p99"] == pytest.approx(0.042)

    def test_single_sample_windowed_tracker(self):
        tracker = LatencyTracker(window=1)
        tracker.observe(1.0)
        tracker.observe(3.0)  # window now holds only 3.0
        assert tracker.percentile(50) == pytest.approx(3.0)
        assert tracker.count == 2

    def test_nonfinite_observations_rejected(self):
        tracker = LatencyTracker()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                tracker.observe(bad)
        assert tracker.count == 0  # nothing poisoned the window

    def test_out_of_range_quantile_rejected(self):
        tracker = LatencyTracker()
        tracker.observe(1.0)
        for bad in (-1, 101, 1000):
            with pytest.raises(ValueError):
                tracker.percentile(bad)
        with pytest.raises(ValueError):
            tracker.percentiles([50, 200])

    def test_concurrent_observers_lose_nothing(self):
        tracker = LatencyTracker(window=1 << 14)

        def observe_many():
            for _ in range(1000):
                tracker.observe(0.001)

        threads = [threading.Thread(target=observe_many) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracker.count == 8000


class TestBatchSizeHistogram:
    def test_power_of_two_buckets(self):
        histogram = BatchSizeHistogram(max_batch_size=8)
        for size in (1, 2, 2, 3, 8):
            histogram.observe(size)
        buckets = histogram.as_dict()
        assert buckets["<=1"] == 1
        assert buckets["<=2"] == 2
        assert buckets["<=4"] == 1
        assert buckets["<=8"] == 1
        assert buckets[">8"] == 0

    def test_oversized_batches_fall_in_overflow_bucket(self):
        histogram = BatchSizeHistogram(max_batch_size=4)
        histogram.observe(9)
        assert histogram.as_dict()[">4"] == 1

    def test_mean_batch_size(self):
        histogram = BatchSizeHistogram(max_batch_size=32)
        histogram.observe(4)
        histogram.observe(12)
        assert histogram.batches == 2
        assert histogram.samples == 16
        assert histogram.mean_batch_size() == pytest.approx(8.0)

    def test_rejects_nonpositive_batch(self):
        histogram = BatchSizeHistogram()
        with pytest.raises(ValueError):
            histogram.observe(0)

    def test_rejects_nonpositive_max_batch_size(self):
        for bad in (0, -4):
            with pytest.raises(ValueError):
                BatchSizeHistogram(max_batch_size=bad)

    def test_max_batch_size_one_still_buckets(self):
        histogram = BatchSizeHistogram(max_batch_size=1)
        histogram.observe(1)
        histogram.observe(2)
        buckets = histogram.as_dict()
        assert buckets["<=1"] == 1 and buckets[">1"] == 1

    def test_empty_histogram_mean_is_zero(self):
        assert BatchSizeHistogram().mean_batch_size() == 0.0

