"""Dynamic micro-batching engine (repro.serve.batcher): work-conserving
coalescing, backpressure, shutdown semantics, and the bit-parity guarantee."""

import threading
import time

import numpy as np
import pytest

from repro.models import build_model
from repro.serve import (
    BatcherClosedError,
    BatchingPolicy,
    DynamicBatcher,
    Predictor,
    QueueFullError,
)
from repro.tensor import no_grad
from repro.utils import get_rng, seed_everything


def _mlp_predictor():
    seed_everything(7)
    model = build_model("mlp", in_features=16, hidden_sizes=[32, 32], num_classes=5)
    model.eval()
    return Predictor(model)


def _echo_predict(batch):
    """Identity 'model': returns its input (keeps engine tests instant)."""
    return np.asarray(batch, dtype=np.float32)


class _HoldFirstBatch:
    """Wraps a predict function: the first batch waits until ``release`` is
    set, so the requests submitted meanwhile queue up behind it.  The
    worker never waits for arrivals, so this is how a test builds the
    backlog batches form from."""

    def __init__(self, predict):
        self.predict = predict
        self.entered, self.release = threading.Event(), threading.Event()

    def __call__(self, batch):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(timeout=10.0)
        return self.predict(batch)

    def backlog(self, batcher, requests):
        """Submit ``requests[0]``, hold its batch, queue the other requests
        (each ``(n, *sample_shape)``) behind it, then let the worker go;
        returns the futures in submission order."""
        futures = [batcher.submit_batch(requests[0])]
        assert self.entered.wait(timeout=10.0)
        futures += [batcher.submit_batch(request) for request in requests[1:]]
        self.release.set()
        return futures


class TestPolicy:
    def test_rejects_nonpositive_batch_size(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch_size=0)

    def test_has_no_wait_window(self):
        """A worker dispatches as soon as it is free; there is no window to
        set (DESIGN.md §9.2)."""
        with pytest.raises(TypeError):
            BatchingPolicy(max_wait_ms=1.0)

    def test_rejects_nonpositive_queue(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_queue=0)


class TestCoalescing:
    def test_coalesces_waiting_requests_into_one_batch(self):
        held = _HoldFirstBatch(_echo_predict)
        with DynamicBatcher(held, BatchingPolicy(max_batch_size=8)) as batcher:
            x = get_rng(offset=1).standard_normal((8, 4)).astype(np.float32)
            futures = held.backlog(batcher, x[:, None])
            rows = np.concatenate([f.result(timeout=10.0) for f in futures], axis=0)
            np.testing.assert_array_equal(rows, x)
        stats = batcher.stats()
        assert stats["requests_total"] == 8
        # The held first request ran alone; the seven queued behind it ran
        # as one batch.
        assert stats["batches_total"] == 2
        histogram = stats["batch_size_histogram"]
        assert histogram["<=1"] == 1 and histogram["<=8"] == 1
        assert stats["mean_batch_size"] == 4.0

    def test_backlog_is_cut_at_max_batch_size_in_order(self):
        held = _HoldFirstBatch(_echo_predict)
        with DynamicBatcher(held, BatchingPolicy(max_batch_size=4)) as batcher:
            futures = held.backlog(batcher, [np.full((n, 2), n, np.float32)
                                             for n in (1, 2, 1, 2, 3, 1)])
            for future, n in zip(futures, (1, 2, 1, 2, 3, 1)):
                np.testing.assert_array_equal(future.result(timeout=10.0),
                                              np.full((n, 2), n))
        # [1] held, then [2, 1] (the next 2 would overflow 4 and is carried),
        # [2], [3, 1]: no request is split, reordered or left waiting.
        assert batcher.stats()["batches_total"] == 4
        assert batcher.stats()["samples_total"] == 10

    def test_empty_queue_blocks_without_spinning_and_recovers(self):
        with DynamicBatcher(_echo_predict, BatchingPolicy(max_batch_size=4)) as batcher:
            time.sleep(0.1)                       # worker idles on an empty queue
            assert batcher.stats()["batches_total"] == 0
            out = batcher.submit(np.ones(3, dtype=np.float32)).result(timeout=5.0)
            np.testing.assert_array_equal(out, np.ones((1, 3), dtype=np.float32))

    def test_lone_request_runs_without_waiting_for_companions(self):
        with DynamicBatcher(_echo_predict, BatchingPolicy(max_batch_size=64)) as batcher:
            start = time.perf_counter()
            batcher.submit(np.zeros(2, dtype=np.float32)).result(timeout=5.0)
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0                  # did not wait for 63 companions

    def test_worker_waits_only_for_the_first_request(self, monkeypatch):
        """Work-conserving: a worker blocks for a batch's first request and
        takes companions only if they are already queued."""
        timeouts = []
        with DynamicBatcher(_echo_predict, BatchingPolicy(max_batch_size=8)) as batcher:
            queue = batcher._queue
            get = queue.get

            def spy(timeout=None):
                timeouts.append(timeout)
                return get(timeout)

            monkeypatch.setattr(queue, "get", spy)
            # The worker is already blocked in the unpatched get; this request
            # releases it, and every later wait goes through the spy.
            batcher.submit(np.zeros(2, dtype=np.float32)).result(timeout=5.0)
            for _ in range(3):
                batcher.submit(np.zeros(2, dtype=np.float32)).result(timeout=5.0)
        assert timeouts and all(timeout is None for timeout in timeouts)

    def test_closed_loop_callers_keep_sharing_batches(self):
        """Eight in-process callers in a closed loop: without a yield before
        each batch, the worker takes the one request left over from the last
        cycle alone while the others resubmit, and the loop settles into
        batches of 1 + 7 (mean 4.0 or less)."""

        def forward(batch):
            time.sleep(0.002)      # a forward that releases the interpreter
            return np.asarray(batch, dtype=np.float32)

        with DynamicBatcher(forward, BatchingPolicy(max_batch_size=8)) as batcher:
            def caller():
                for _ in range(20):
                    batcher.submit(np.zeros(2, dtype=np.float32),
                                   timeout=None).result(timeout=10.0)

            threads = [threading.Thread(target=caller, name=f"caller-{i}")
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert batcher.stats()["mean_batch_size"] > 4.5

    def test_request_larger_than_max_batch_is_chunked(self):
        with DynamicBatcher(_echo_predict, BatchingPolicy(max_batch_size=4)) as batcher:
            x = get_rng(offset=2).standard_normal((11, 3)).astype(np.float32)
            out = batcher.submit_batch(x).result(timeout=10.0)
            np.testing.assert_array_equal(out, x)
            hist = batcher.stats()["batch_size_histogram"]
            assert hist[">4"] >= 1                # recorded as one oversized batch

    def test_multi_sample_requests_never_split_across_batches(self):
        with DynamicBatcher(_echo_predict, BatchingPolicy(max_batch_size=4)) as batcher:
            a = batcher.submit_batch(np.full((3, 2), 1.0, dtype=np.float32))
            b = batcher.submit_batch(np.full((3, 2), 2.0, dtype=np.float32))
            np.testing.assert_array_equal(a.result(timeout=5.0), np.full((3, 2), 1.0))
            np.testing.assert_array_equal(b.result(timeout=5.0), np.full((3, 2), 2.0))
        assert batcher.stats()["batches_total"] == 2

    def test_synchronous_call_convenience(self):
        with DynamicBatcher(_echo_predict) as batcher:
            x = np.arange(6, dtype=np.float32).reshape(2, 3)
            np.testing.assert_array_equal(batcher(x), x)


class TestBackpressure:
    def test_queue_full_raises(self):
        release = threading.Event()

        def slow_predict(batch):
            release.wait(timeout=10.0)
            return np.asarray(batch)

        batcher = DynamicBatcher(slow_predict,
                                 BatchingPolicy(max_batch_size=1, max_queue=2))
        try:
            sample = np.zeros(2, dtype=np.float32)
            batcher.submit(sample)                 # taken by the worker, blocks
            time.sleep(0.05)
            batcher.submit(sample)                 # queue slot 1
            batcher.submit(sample)                 # queue slot 2
            with pytest.raises(QueueFullError):
                batcher.submit(sample)             # over capacity
            assert batcher.stats()["errors_total"] >= 1
        finally:
            release.set()
            batcher.close(drain=True)

    def test_submit_with_timeout_waits_for_space(self):
        release = threading.Event()

        def slow_predict(batch):
            release.wait(timeout=10.0)
            return np.asarray(batch)

        batcher = DynamicBatcher(slow_predict,
                                 BatchingPolicy(max_batch_size=1, max_queue=1))
        try:
            sample = np.zeros(2, dtype=np.float32)
            batcher.submit(sample)
            time.sleep(0.05)
            batcher.submit(sample)                 # fills the queue
            threading.Timer(0.1, release.set).start()
            future = batcher.submit(sample, timeout=5.0)   # blocks until space frees
            future.result(timeout=10.0)
        finally:
            release.set()
            batcher.close(drain=True)


class TestShutdown:
    def test_close_drains_in_flight_requests(self):
        batcher = DynamicBatcher(_echo_predict,
                                 BatchingPolicy(max_batch_size=2, max_queue=64))
        x = get_rng(offset=3).standard_normal((16, 3)).astype(np.float32)
        futures = [batcher.submit(x[i]) for i in range(16)]
        batcher.close(drain=True)
        rows = np.concatenate([f.result(timeout=5.0) for f in futures], axis=0)
        np.testing.assert_array_equal(rows, x)

    def test_close_without_drain_fails_pending_futures(self):
        release = threading.Event()

        def slow_predict(batch):
            release.wait(timeout=10.0)
            return np.asarray(batch)

        batcher = DynamicBatcher(slow_predict,
                                 BatchingPolicy(max_batch_size=1, max_queue=16))
        first = batcher.submit(np.zeros(2, dtype=np.float32))
        time.sleep(0.05)                           # worker picks up the first request
        pending = [batcher.submit(np.zeros(2, dtype=np.float32)) for _ in range(4)]
        release.set()
        batcher.close(drain=False)
        first.result(timeout=5.0)                  # in-flight request still completes
        for future in pending:
            with pytest.raises(BatcherClosedError):
                future.result(timeout=5.0)

    def test_submit_after_close_raises(self):
        batcher = DynamicBatcher(_echo_predict)
        batcher.close()
        with pytest.raises(BatcherClosedError):
            batcher.submit(np.zeros(2, dtype=np.float32))

    def test_close_is_idempotent(self):
        batcher = DynamicBatcher(_echo_predict)
        batcher.close()
        batcher.close()


class TestErrorPropagation:
    def test_predictor_exception_reaches_every_caller(self):
        def broken_predict(batch):
            raise RuntimeError("kernel exploded")

        with DynamicBatcher(broken_predict, BatchingPolicy(max_batch_size=4)) as batcher:
            futures = [batcher.submit(np.zeros(2, dtype=np.float32)) for _ in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="kernel exploded"):
                    future.result(timeout=5.0)
            assert batcher.stats()["errors_total"] == 3
        # The worker survives the error and the batcher still shuts down cleanly.


class TestConcurrentProducers:
    def test_many_threads_all_get_their_own_answer(self):
        predictor = _mlp_predictor()
        x = get_rng(offset=4).standard_normal((48, 16)).astype(np.float32)
        # The guarantee under concurrency is bit-parity with one-at-a-time
        # serving (the canonical reference), whatever batches actually form.
        expected = np.concatenate([predictor(x[i:i + 1]) for i in range(48)], axis=0)
        results = [None] * 48
        with DynamicBatcher(predictor, BatchingPolicy(max_batch_size=8)) as batcher:
            def producer(i):
                results[i] = batcher.submit(x[i]).result(timeout=30.0)[0]

            threads = [threading.Thread(target=producer, args=(i,)) for i in range(48)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        np.testing.assert_array_equal(np.stack(results), expected)


class TestBitParity:
    """Batched and one-at-a-time serving must produce identical bits."""

    def test_batched_equals_one_at_a_time_mlp(self):
        predictor = _mlp_predictor()
        x = get_rng(offset=5).standard_normal((24, 16)).astype(np.float32)
        held = _HoldFirstBatch(predictor)
        with DynamicBatcher(held, BatchingPolicy(max_batch_size=16)) as batched:
            futures = held.backlog(batched, x[:, None])
            coalesced = np.concatenate([f.result(timeout=30.0) for f in futures], axis=0)
        # One held request, then the backlog of 23 as batches of 16 and 7.
        assert batched.stats()["batches_total"] == 3
        with DynamicBatcher(predictor, BatchingPolicy(max_batch_size=1)) as single:
            one_at_a_time = np.concatenate(
                [single.submit(x[i]).result(timeout=30.0) for i in range(24)], axis=0)
        np.testing.assert_array_equal(coalesced, one_at_a_time)

    def test_batched_equals_direct_model_call(self):
        predictor = _mlp_predictor()
        x = get_rng(offset=6).standard_normal((16, 16)).astype(np.float32)
        with no_grad():
            direct = predictor.model(x).data
        with DynamicBatcher(predictor, BatchingPolicy(max_batch_size=16)) as batcher:
            out = batcher(x)
        np.testing.assert_array_equal(out, direct)


class TestWorkerObservability:
    def test_stats_report_worker_stall_compute_split(self):
        with DynamicBatcher(_echo_predict, BatchingPolicy(max_batch_size=4)) as batcher:
            x = get_rng(offset=3).standard_normal((6, 4)).astype(np.float32)
            for i in range(6):
                batcher.submit(x[i]).result(timeout=10.0)
            worker = batcher.stats()["worker"]
        assert worker["samples"] == 6
        assert worker["batches"] >= 1
        assert worker["compute_seconds"] >= 0.0
        assert 0.0 <= worker["utilization"] <= 1.0
        assert worker["utilization"] == pytest.approx(1.0 - worker["stall_fraction"])
