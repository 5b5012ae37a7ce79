"""Replicated workers (repro.serve.{batcher,engine,admission}): bit-invariance
across worker counts and modes, admission control, the stats surface, and
fault injection (dead workers must fail loudly and respawn cleanly, and
every fault path releases what it acquired)."""

import json
import multiprocessing
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.models import build_model
from repro.serve import (
    AdmissionPolicy,
    BatchingPolicy,
    DynamicBatcher,
    LoadShedError,
    ModelServer,
    Predictor,
    QueueFullError,
    WorkerDiedError,
)
from repro.serve import batcher as batcher_module
from repro.serve.engine import InlineEngine, ProcessEngine, probe_output_shape
from repro.tensor import use_backend
from repro.utils import seed_everything
from repro.utils.concurrency import blas_thread_counts, fork_available, usable_cores
from repro.utils.shm import active_owned_segments

fork_only = pytest.mark.skipif(not fork_available(),
                               reason="fork start method unavailable")


def _wait_until(condition, timeout=5.0, interval=0.01):
    """Poll until ``condition()`` is true (worker retirement is async: the
    in-flight future fails a moment before the worker thread finishes)."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if condition():
            return True
        time.sleep(interval)
    return condition()


def _mlp_predictor():
    seed_everything(7)
    model = build_model("mlp", in_features=16, hidden_sizes=[32, 32], num_classes=5)
    model.eval()
    return Predictor(model)


def _resnet_predictor(backend=None):
    """The ResNet cell (resnet18 x0.125): convs, BatchNorm and pooling down
    to 2x2 maps on 16x16 inputs."""
    seed_everything(7)
    model = build_model("resnet18", num_classes=10, width_mult=0.125)
    model.eval()
    return Predictor(model, backend=backend)


def _conv_calls(backend):
    """conv2d calls the named backend has counted so far.  Counters belong to
    the backend instance, so they count every thread's forwards."""
    with use_backend(backend) as be:
        count = be.counters().get("conv2d")
    return count.calls if count is not None else 0


def _echo_predict(batch):
    return np.asarray(batch, dtype=np.float32)


def _samples(n=24, dim=16, seed=3):
    return np.random.default_rng(seed).standard_normal((n, dim)).astype(np.float32)


def _images(n=24, seed=3):
    return np.random.default_rng(seed).standard_normal((n, 3, 16, 16)).astype(np.float32)


_MODELS = {"mlp": (_mlp_predictor, _samples), "resnet": (_resnet_predictor, _images)}


# --------------------------------------------------------------------------- #
# Bit-invariance across pool sizes and modes (the tentpole guarantee)
# --------------------------------------------------------------------------- #
class _SteppedEngine:
    """Wraps a worker's engine so that every batch signals ``entered`` and
    then waits for a ``release`` token.  The wrapper runs in the parent, on
    the worker thread, so it steps process-mode workers as well as
    thread-mode ones."""

    def __init__(self, engine, entered, release):
        self._engine, self._entered, self._release = engine, entered, release

    def predict(self, batch):
        self._entered.release()
        assert self._release.acquire(timeout=10.0)
        return self._engine.predict(batch)

    def __getattr__(self, name):
        return getattr(self._engine, name)


class TestPoolBitInvariance:
    MAX_BATCH = 8

    def _outputs(self, workers, mode, model="mlp"):
        """Every sample's output through a pool of ``workers``, computed in
        the same batches at every pool size.

        Each worker first parks on a gate request of its own; then the
        samples queue up, and while any are queued the workers run one at a
        time, so each takes the next full batch.  Which worker computes
        which batch is left to the pool.  The ResNet cell's rows are not
        bit-equal between 4- and 8-row batches (DESIGN.md §16.4), so the
        batches, not the workers, must be fixed for its bits to compare.
        """
        build, inputs = _MODELS[model]
        predictor = build()
        samples = inputs()
        batcher = DynamicBatcher(
            predictor,
            policy=BatchingPolicy(max_batch_size=self.MAX_BATCH),
            name=f"inv-{mode}{workers}", workers=workers, mode=mode,
            input_shape=samples.shape[1:])
        entered, release = threading.Semaphore(0), threading.Semaphore(0)
        for worker in batcher.pool_workers:
            worker.engine = _SteppedEngine(worker.engine, entered, release)
        try:
            for _ in range(workers):
                batcher.submit(np.zeros_like(samples[0]), timeout=None)
                assert entered.acquire(timeout=10.0)
            futures = [batcher.submit(s, timeout=None) for s in samples]
            while batcher.queue_depth:
                release.release()
                assert entered.acquire(timeout=10.0)
            for _ in range(workers):
                release.release()
            outputs = np.concatenate([f.result(timeout=30.0) for f in futures])
            batches = batcher.stats()["batches_total"]
        finally:
            for _ in range(len(samples) + workers):  # unblock a failed run
                release.release()
            batcher.close(drain=True)
        assert batches == workers + len(samples) // self.MAX_BATCH
        return outputs

    @pytest.mark.parametrize("model", sorted(_MODELS))
    def test_thread_pool_sizes_bit_identical(self, model):
        reference = self._outputs(1, "thread", model)
        for workers in (2, 4):
            assert np.array_equal(reference, self._outputs(workers, "thread", model))

    @fork_only
    def test_process_pool_sizes_bit_identical_to_thread_pool1(self):
        reference = self._outputs(1, "thread")
        for workers in (1, 2, 4):
            assert np.array_equal(reference, self._outputs(workers, "process"))

    def test_pool1_matches_direct_predictor_call(self):
        predictor = _mlp_predictor()
        samples = _samples()
        direct = predictor(samples)
        batcher = DynamicBatcher(predictor, name="direct-parity")
        try:
            pooled = batcher.submit_batch(samples, timeout=None).result(timeout=30.0)
        finally:
            batcher.close(drain=True)
        assert np.array_equal(direct, pooled)

    @fork_only
    def test_process_pool_leaves_no_shm_segments(self):
        predictor = _mlp_predictor()
        batcher = DynamicBatcher(predictor, workers=2, mode="process",
                                 input_shape=(16,), name="leakcheck")
        try:
            batcher.submit_batch(_samples(8), timeout=None).result(timeout=30.0)
        finally:
            batcher.close(drain=True)
        assert active_owned_segments() == []

    @fork_only
    def test_process_mode_without_input_shape_fails_loudly(self):
        with pytest.raises(ValueError, match="input_shape"):
            DynamicBatcher(_echo_predict, workers=2, mode="process")

    def test_thread_pool_shares_one_predictor(self):
        predictor = _mlp_predictor()
        batcher = DynamicBatcher(predictor, workers=3, name="shared")
        try:
            engines = [worker.engine for worker in batcher.pool_workers]
            assert len(engines) == 3
            assert all(engine._predict is predictor for engine in engines)
        finally:
            batcher.close(drain=True)

    @pytest.mark.parametrize("backend", ["numpy", "numpy-fast"])
    def test_two_threads_share_one_predictor(self, backend):
        """Thread-mode workers call one predictor concurrently; numpy drops
        the GIL inside every copy and GEMM, so any buffer two forwards share
        gets overwritten mid-use.  Every concurrent output must equal the
        serial one.  The predictor names its backend, as a served artifact's
        does: a worker thread runs on that backend, not on whatever the
        thread that started it had entered with ``use_backend``."""
        calls, workers = 40, 2
        predictor = _resnet_predictor(backend)
        batch = _images(8)
        expected = predictor(batch)
        outputs = [[] for _ in range(workers)]

        def serve(index):
            for _ in range(calls):
                outputs[index].append(predictor(batch))

        threads = [threading.Thread(target=serve, args=(i,), name=f"race-{i}")
                   for i in range(workers)]
        convs_before = _conv_calls(backend)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # The workers ran on the backend under test: each forward is many
        # convs, so even a lost counter update leaves one per forward.
        assert _conv_calls(backend) - convs_before >= calls * workers
        for results in outputs:
            assert len(results) == calls
            wrong = sum(not np.array_equal(out, expected) for out in results)
            assert wrong == 0, f"{wrong} of {calls} concurrent forwards differ"


# --------------------------------------------------------------------------- #
# Engines
# --------------------------------------------------------------------------- #
class TestEngines:
    def test_inline_engine_is_transparent(self):
        engine = InlineEngine(_echo_predict)
        batch = _samples(4)
        assert np.array_equal(engine.predict(batch), batch)
        assert engine.alive and engine.pid is None
        assert engine.respawn() is False

    @fork_only
    def test_process_engine_roundtrip_and_close(self):
        engine = ProcessEngine(_echo_predict, input_shape=(16,),
                               output_shape=(16,), max_rows=8, name="eng")
        try:
            batch = _samples(5)
            assert np.array_equal(engine.predict(batch), batch)
            assert engine.alive and isinstance(engine.pid, int)
        finally:
            engine.close()
        assert not engine.alive
        assert active_owned_segments() == []

    @fork_only
    def test_process_engine_model_error_is_recoverable(self):
        def sometimes_broken(batch):
            if batch.shape[0] == 3:
                raise ValueError("bad rows")
            return batch

        engine = ProcessEngine(sometimes_broken, input_shape=(16,),
                               output_shape=(16,), max_rows=8)
        try:
            with pytest.raises(RuntimeError, match="bad rows"):
                engine.predict(_samples(3))
            # The child survived the exception and keeps serving.
            assert engine.alive
            assert np.array_equal(engine.predict(_samples(4)), _samples(4))
        finally:
            engine.close()

    @fork_only
    def test_process_engine_sigkill_raises_worker_died(self):
        slow = _SlowPredict(0.5)
        engine = ProcessEngine(slow, input_shape=(16,),
                               output_shape=(16,), max_rows=8)
        try:
            pid = engine.pid
            killer = threading.Timer(0.1, os.kill, (pid, signal.SIGKILL))
            killer.start()
            with pytest.raises(WorkerDiedError):
                engine.predict(_samples(4))
            killer.cancel()
            assert not engine.alive
            # Respawn forks a fresh child with fresh handshake state.
            assert engine.respawn() is True
            assert np.array_equal(engine.predict(_samples(4)), _samples(4))
        finally:
            engine.close()

    def test_probe_output_shape_validates_batch_axis(self):
        assert probe_output_shape(_echo_predict, (16,)) == (16,)
        with pytest.raises(ValueError, match="batch axis"):
            probe_output_shape(lambda b: np.float32(1.0), (16,))


class _BlasReport:
    """Echo that first records the BLAS pool sizes of the process running it."""

    def __init__(self, directory):
        self.directory = directory

    def __call__(self, batch):
        with open(os.path.join(self.directory, f"{os.getpid()}.json"), "w") as report:
            json.dump(blas_thread_counts(), report)
        return np.asarray(batch, dtype=np.float32)


class TestBlasBudget:
    @fork_only
    def test_process_engines_cap_each_pool_at_their_share(self, tmp_path):
        before = blas_thread_counts()
        if not before:
            pytest.skip("no OpenBLAS library loaded")
        batcher = DynamicBatcher(_BlasReport(str(tmp_path)), workers=2,
                                 mode="process", input_shape=(16,), name="blas")
        try:
            # The queue is empty, so each worker's engine is idle: drive
            # every child once.
            for worker in batcher.pool_workers:
                worker.engine.predict(_samples(2))
            pids = set(batcher.worker_pids())
        finally:
            batcher.close(drain=True)
        budget = max(1, usable_cores() // 2)
        reports = {int(path.stem): json.loads(path.read_text())
                   for path in tmp_path.glob("*.json")}
        assert len(pids) == 2 and pids <= set(reports)
        for pid in pids:
            assert reports[pid] == {path: min(n, budget) for path, n in before.items()}


class _SlowPredict:
    """Module-level picklable slow echo (fork inherits it either way)."""

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def __call__(self, batch):
        time.sleep(self.delay_s)
        return np.asarray(batch, dtype=np.float32)


class _SlowOnThreeRows(Predictor):
    """A predictor whose 3-row forwards take ``delay_s``; the 4-row probe
    that sizes the output slab stays fast."""

    def __init__(self, model, delay_s):
        super().__init__(model)
        self.delay_s = delay_s

    def __call__(self, batch):
        if len(batch) == 3:
            time.sleep(self.delay_s)
        return super().__call__(batch)


# --------------------------------------------------------------------------- #
# Fault injection through the full batcher stack
# --------------------------------------------------------------------------- #
class TestFaultInjection:
    def test_thread_worker_crash_fails_inflight_and_respawns(self):
        trigger = threading.Event()

        def unstable(batch):
            if trigger.is_set():
                trigger.clear()
                raise KeyboardInterrupt("simulated worker death")
            return np.asarray(batch, dtype=np.float32)

        batcher = DynamicBatcher(unstable, name="crashy",
                                 policy=BatchingPolicy(max_batch_size=4))
        try:
            ok = batcher.submit(_samples(1)[0], timeout=None).result(timeout=10.0)
            assert ok.shape == (1, 16)
            trigger.set()
            with pytest.raises(WorkerDiedError):
                batcher.submit(_samples(1)[0], timeout=None).result(timeout=10.0)
            assert _wait_until(lambda: batcher.alive_workers == 0)
            assert not batcher.worker_alive
            # New work fails loudly instead of hanging on a dead pool.
            with pytest.raises(WorkerDiedError):
                batcher.submit(_samples(1)[0], timeout=None).result(timeout=10.0)
            assert batcher.respawn_workers() == 1
            assert batcher.alive_workers == 1
            again = batcher.submit(_samples(1)[0], timeout=None).result(timeout=10.0)
            assert again.shape == (1, 16)
            assert batcher.stats()["pool"]["respawns_total"] == 1
        finally:
            batcher.close(drain=True)

    @fork_only
    def test_process_worker_sigkill_detected_and_respawned(self):
        batcher = DynamicBatcher(_SlowPredict(0.3), workers=1, mode="process",
                                 input_shape=(16,), name="killpool",
                                 policy=BatchingPolicy(max_batch_size=4))
        try:
            sample = _samples(1)[0]
            assert batcher.submit(sample, timeout=None).result(
                timeout=10.0).shape == (1, 16)
            (pid,) = batcher.worker_pids()
            future = batcher.submit(sample, timeout=None)
            time.sleep(0.1)          # let the worker pick the batch up
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerDiedError):
                future.result(timeout=10.0)
            assert _wait_until(lambda: batcher.alive_workers == 0)
            assert batcher.respawn_workers() == 1
            recovered = batcher.submit(sample, timeout=None).result(timeout=10.0)
            assert recovered.shape == (1, 16)
            new_pid = batcher.worker_pids()[0]
            assert new_pid is not None and new_pid != pid
        finally:
            batcher.close(drain=True)
        assert active_owned_segments() == []

    def test_requests_queued_behind_the_last_dying_worker_fail(self):
        entered, release = threading.Event(), threading.Event()

        def dying(batch):
            entered.set()
            release.wait(timeout=10.0)
            raise KeyboardInterrupt("simulated worker death")

        batcher = DynamicBatcher(dying, name="lastdeath",
                                 policy=BatchingPolicy(max_batch_size=1))
        try:
            sample = _samples(1)[0]
            inflight = batcher.submit(sample, timeout=None)
            assert entered.wait(timeout=5.0)
            queued = [batcher.submit(sample, timeout=None) for _ in range(3)]
            release.set()
            with pytest.raises(WorkerDiedError):
                inflight.result(timeout=5.0)
            # The exiting worker sweeps the queue: it is the last one.
            for future in queued:
                with pytest.raises(WorkerDiedError):
                    future.result(timeout=5.0)
            assert batcher.metrics.gauge("pool_workers_alive").value == 0
        finally:
            batcher.close(drain=False)

    @fork_only
    def test_failed_respawn_leaves_the_counters_alone(self):
        batcher = DynamicBatcher(_echo_predict, workers=1, mode="process",
                                 input_shape=(16,), name="refork")
        try:
            sample = _samples(1)[0]
            batcher.submit(sample, timeout=None).result(timeout=10.0)
            (pid,) = batcher.worker_pids()
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerDiedError):
                batcher.submit(sample, timeout=None).result(timeout=10.0)
            assert _wait_until(lambda: batcher.alive_workers == 0)
            before = batcher.stats()["worker"]
            build = batcher._engine_factory

            def refuse(index):
                raise OSError("fork refused")

            batcher._engine_factory = refuse
            for _ in range(2):
                with pytest.raises(OSError, match="fork refused"):
                    batcher.respawn_workers()
                assert batcher.stats()["worker"] == before
            batcher._engine_factory = build
            assert batcher.respawn_workers() == 1
            assert batcher.stats()["worker"] == before
            assert batcher.submit(sample, timeout=None).result(
                timeout=10.0).shape == (1, 16)
        finally:
            batcher.close(drain=True)
        assert active_owned_segments() == []

    @fork_only
    def test_sigkill_during_respawn_retires_only_that_worker(self):
        # Batches of one on a slow forward: two requests sent together land
        # on two different workers.
        batcher = DynamicBatcher(_SlowPredict(0.3), workers=2, mode="process",
                                 input_shape=(16,), name="midrespawn",
                                 policy=BatchingPolicy(max_batch_size=1))
        try:
            sample = _samples(1)[0]
            for pid in batcher.worker_pids():
                os.kill(pid, signal.SIGKILL)
            # Two requests retire the two workers; the last one to go fails
            # whatever is still queued.
            futures = [batcher.submit(sample, timeout=None) for _ in range(4)]
            for future in futures:
                with pytest.raises(WorkerDiedError):
                    future.result(timeout=10.0)
            assert _wait_until(lambda: batcher.alive_workers == 0)

            build, forked = batcher._engine_factory, []

            def factory(index):
                if forked:  # kill the first new child before the second fork
                    os.kill(forked[0].pid, signal.SIGKILL)
                    assert _wait_until(lambda: not forked[0].alive)
                forked.append(build(index))
                return forked[-1]

            batcher._engine_factory = factory
            assert batcher.respawn_workers() == 2
            assert len(forked) == 2 and forked[1].alive
            outcomes = [batcher.submit(sample, timeout=None) for _ in range(2)]
            errors = [f.exception(timeout=10.0) for f in outcomes]
            assert sum(isinstance(e, WorkerDiedError) for e in errors) == 1
            assert errors.count(None) == 1
            assert _wait_until(lambda: batcher.alive_workers == 1)
            assert batcher.submit(sample, timeout=None).result(
                timeout=10.0).shape == (1, 16)

            batcher._engine_factory = build
            assert batcher.respawn_workers() == 1
            assert batcher.alive_workers == 2
            assert all(pid is not None for pid in batcher.worker_pids())
            results = [batcher.submit(sample, timeout=None) for _ in range(4)]
            assert all(f.result(timeout=10.0).shape == (1, 16) for f in results)
        finally:
            batcher.close(drain=True)
        assert active_owned_segments() == []

    @fork_only
    def test_timed_out_close_still_releases_the_weights(self, leak_ledger):
        predictor = _SlowOnThreeRows(_mlp_predictor().model, delay_s=1.5)
        tensors = list(predictor.model.parameters())
        originals = [t.data for t in tensors]
        batcher = DynamicBatcher(predictor, workers=1, mode="process",
                                 input_shape=(16,), name="slowclose")
        (worker,) = batcher.pool_workers
        future = batcher.submit_batch(_samples(3), timeout=None)
        time.sleep(0.3)              # the worker is inside the slow forward
        with pytest.raises(RuntimeError, match="did not stop"):
            batcher.close(timeout=0.2)
        # The weights are back on the heap and their segment is gone; only
        # the busy engine's slab remains, until its forward returns.
        assert all(t.data is original for t, original in zip(tensors, originals))
        assert active_owned_segments() == [worker.engine._arena.segment.name]
        assert future.result(timeout=10.0).shape == (3, 5)
        worker.join(timeout=10.0)
        assert not worker.alive
        assert active_owned_segments() == []
        assert leak_ledger.leaks() == []


# --------------------------------------------------------------------------- #
# Failed constructors release what they acquired
# --------------------------------------------------------------------------- #
@fork_only
class TestConstructorCleanup:
    def test_failed_output_probe_restores_the_weights(self, leak_ledger):
        predictor = _mlp_predictor()
        tensors = list(predictor.model.parameters())
        tensors += [buf for _, buf in predictor.model.named_buffers()]
        originals = [t.data for t in tensors]
        with pytest.raises(ValueError):
            DynamicBatcher(predictor, workers=2, mode="process", input_shape=(17,))
        assert active_owned_segments() == []
        assert all(t.data is original for t, original in zip(tensors, originals))
        assert leak_ledger.leaks() == []

    def test_failed_engine_factory_closes_the_engines_built_before_it(
            self, monkeypatch, leak_ledger):
        built = []

        def engine(*args, name, **kwargs):
            if name.endswith("engine1"):
                raise RuntimeError("no second engine")
            built.append(ProcessEngine(*args, name=name, **kwargs))
            return built[-1]

        monkeypatch.setattr(batcher_module, "ProcessEngine", engine)
        predictor = _mlp_predictor()
        with pytest.raises(RuntimeError, match="no second engine"):
            DynamicBatcher(predictor, workers=2, mode="process",
                           input_shape=(16,), name="cleanup")
        assert len(built) == 1 and not built[0].alive
        assert active_owned_segments() == []
        assert leak_ledger.leaks() == []

    def test_failed_first_fork_releases_the_slabs(self, monkeypatch, leak_ledger):
        def refuse(proc):
            raise OSError("fork refused")

        monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", refuse)
        with pytest.raises(OSError, match="fork refused"):
            ProcessEngine(_echo_predict, input_shape=(16,), output_shape=(16,),
                          max_rows=8)
        assert active_owned_segments() == []
        assert leak_ledger.leaks() == []


# --------------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------------- #
class TestAdmission:
    def test_policy_validation(self):
        # Waiting for space is submit(..., timeout=None), not a kind.
        for kind in ("nope", "block"):
            with pytest.raises(ValueError):
                AdmissionPolicy(kind=kind)
        with pytest.raises(ValueError):
            AdmissionPolicy(shed_watermark=1.5)

    def _stalled_batcher(self, admission, max_queue=4):
        release = threading.Event()

        def slow(batch):
            release.wait(timeout=10.0)
            return np.asarray(batch, dtype=np.float32)

        batcher = DynamicBatcher(
            slow, name="admit",
            policy=BatchingPolicy(max_batch_size=1, max_queue=max_queue),
            admission=admission)
        return batcher, release

    def test_priority_sheds_low_priority_when_nearly_full(self):
        batcher, release = self._stalled_batcher(
            AdmissionPolicy(kind="priority", shed_watermark=0.5,
                            shed_below_priority=1), max_queue=4)
        try:
            sample = _samples(1)[0]
            futures = [batcher.submit(sample, timeout=None)]  # occupies worker
            time.sleep(0.05)
            futures += [batcher.submit(sample, timeout=None) for _ in range(2)]
            # Queue is at/over the watermark: priority 0 is shed...
            with pytest.raises(LoadShedError):
                batcher.submit(sample, timeout=None, priority=0)
            # ...but priority >= shed_below_priority still gets in.
            futures.append(batcher.submit(sample, timeout=None, priority=1))
            shed = batcher.stats()["admission"]["shed_total"]
            assert shed == 1
        finally:
            release.set()
            batcher.close(drain=True)
        assert all(f.result(timeout=1.0).shape == (1, 16) for f in futures)

    def test_reject_kind_is_default_queue_full_contract(self):
        batcher, release = self._stalled_batcher(AdmissionPolicy(), max_queue=2)
        try:
            sample = _samples(1)[0]
            batcher.submit(sample, timeout=None)
            time.sleep(0.05)
            batcher.submit(sample)
            batcher.submit(sample)
            with pytest.raises(QueueFullError):
                batcher.submit(sample)   # timeout=0.0 -> immediate reject
        finally:
            release.set()
            batcher.close(drain=True)

    def test_load_shed_error_is_a_queue_full_error(self):
        assert issubclass(LoadShedError, QueueFullError)


# --------------------------------------------------------------------------- #
# Stats surface
# --------------------------------------------------------------------------- #
class TestStats:
    def test_pool_sections_present(self):
        batcher = DynamicBatcher(_echo_predict, workers=2, name="statsy")
        try:
            batcher.submit_batch(_samples(4), timeout=None).result(timeout=10.0)
            stats = batcher.stats()
        finally:
            batcher.close(drain=True)
        assert stats["pool"]["size"] == 2
        assert stats["pool"]["mode"] == "thread"
        assert len(stats["workers"]) == 2
        assert {"admitted_total", "rejected_total",
                "shed_total"} <= set(stats["admission"])
        # Legacy keys survive the refactor.
        for key in ("requests_total", "batches_total", "queue_wait_ms",
                    "compute_ms", "worker"):
            assert key in stats

    def test_metrics_carry_every_key_the_benchmark_reads(self):
        """The keys ``perfbench/serve_http.py`` reads from ``GET /metrics``."""
        with ModelServer(_mlp_predictor(), port=0, workers=2) as server:
            status, _ = server.handle_predict({"inputs": _samples(4).tolist()})
            assert status == 200
            status, metrics = server.handle_metrics()
        assert status == 200
        engine = metrics["engine"]
        for key in ("batches_total", "samples_total"):
            assert engine[key] >= 1
        for summary in (engine["queue_wait_ms"], engine["compute_ms"],
                        metrics["e2e_latency_ms"]):
            assert summary["count"] >= 1 and summary["mean"] >= 0.0
        assert {"compute_seconds", "stall_seconds"} <= set(engine["worker"])
        assert {"rejected_total", "shed_total"} <= set(engine["admission"])
