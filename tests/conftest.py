"""Shared fixtures: deterministic seeding, the per-test leak ledger, and
small reusable models/datasets."""

import glob
import multiprocessing
import os
import threading
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.utils import seed_everything
from repro.utils.shm import SEGMENT_PREFIX, active_owned_segments


@pytest.fixture(autouse=True)
def _seed_everything():
    """Every test starts from the same global seed for reproducibility."""
    seed_everything(1234)
    yield


@pytest.fixture(autouse=True, scope="session")
def _resource_tracker():
    """Start multiprocessing's resource tracker once for the session.  The
    first shm segment a process creates starts it and opens a pipe that stays
    open for the life of the process; no test should be charged for it."""
    resource_tracker.ensure_running()
    yield


class LeakLedger:
    """What a test leaves behind: shared-memory segments this process owns
    (registered or on disk), live child processes, live threads and open
    file descriptors."""

    #: How long new threads and children get to finish exiting before they
    #: count as leaked.
    GRACE_S = 2.0

    def __init__(self):
        self.segments = self._segments()
        self.children = set(multiprocessing.active_children())
        self.threads = set(threading.enumerate())
        self.fds = self._fds()

    @staticmethod
    def _fds():
        """Open descriptors of this process and what each one refers to
        (empty where there is no /proc)."""
        try:
            names = os.listdir("/proc/self/fd")
        except OSError:
            return {}
        fds = {}
        for name in names:
            try:
                fds[int(name)] = os.readlink(f"/proc/self/fd/{name}")
            except OSError:  # the listing's own descriptor, closed by now
                pass
        return fds

    @staticmethod
    def _segments():
        on_disk = glob.glob(os.path.join("/dev/shm", f"{SEGMENT_PREFIX}-{os.getpid()}-*"))
        return set(active_owned_segments()) | {os.path.basename(path) for path in on_disk}

    def _live(self):
        children = [child for child in multiprocessing.active_children()
                    if child not in self.children]
        threads = [thread for thread in threading.enumerate()
                   if thread not in self.threads and thread.is_alive()]
        return children, threads

    def leaks(self):
        """One description per resource acquired since construction and
        still held."""
        found = [f"shm segment {name}" for name in sorted(self._segments() - self.segments)]
        deadline = time.monotonic() + self.GRACE_S
        children, threads = self._live()
        while (children or threads) and time.monotonic() < deadline:
            time.sleep(0.02)
            children, threads = self._live()
        found += [f"child process {child.name} (pid {child.pid})" for child in children]
        found += [f"thread {thread.name}" for thread in threads]
        fds = self._fds()
        found += [f"fd {fd} ({fds[fd]})" for fd in sorted(fds.keys() - self.fds.keys())]
        return found


@pytest.fixture(autouse=True)
def leak_ledger():
    """Fail any test that leaks a shm segment, a child process, a thread or
    an open file descriptor."""
    ledger = LeakLedger()
    yield ledger
    leaks = ledger.leaks()
    assert not leaks, f"test leaked: {', '.join(leaks)}"


@pytest.fixture
def sent_requests(monkeypatch):
    """Every request sent through ``http.client`` while the test runs, in
    order, as records with ``method``, ``url`` (the path and query),
    ``headers`` and ``body``: the serve client's wire, as the server sees
    it.  A request sent twice (a re-send on a fresh connection) is recorded
    twice."""
    import http.client
    from types import SimpleNamespace

    sent = []
    original = http.client.HTTPConnection.request

    def spy(self, method, url, body=None, headers={}, **kwargs):  # noqa: B006 - mirrors http.client
        sent.append(SimpleNamespace(method=method, url=url, headers=dict(headers), body=body))
        return original(self, method, url, body, headers, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "request", spy)
    return sent


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def svd_calls(monkeypatch):
    """One ``"svd"`` entry per ``np.linalg.svd`` call made while the test runs.

    It is the package's one SVD: factorization, spectral init and stable
    rank all call it.
    """
    calls = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls.append("svd")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls


def numeric_gradient(fn, array, eps=1e-3):
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``array`` (mutated in place)."""
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        plus = fn()
        array[idx] = original - eps
        minus = fn()
        array[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


@pytest.fixture
def gradcheck():
    return numeric_gradient
