"""Bounded-queue and worker-thread primitives shared across the system.

The serving engine's :class:`~repro.serve.batcher.DynamicBatcher` (HTTP
handler threads feed a pool of inference workers) and the load generator's
closed-loop client fleet share one pattern: a bounded queue between producer
and consumer threads, a shutdown sentinel and a sweep that fails anything
left behind.  ``ClosableQueue`` is that pattern, written once — a bounded
``queue.Queue`` plus a shared ``CLOSED`` sentinel and drain helpers;
``run_worker_threads`` is the start-then-join fan-out used by the load
generator.

It also holds the BLAS thread budget for forked workers:
:func:`cap_blas_threads` shrinks every loaded OpenBLAS thread pool, so N
forked workers do not each run a pool sized for the whole host.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple


class _Closed:
    """Singleton shutdown sentinel (its repr aids queue debugging)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<CLOSED>"


#: Shutdown sentinel shared by every queue user.  Consumers receiving it must
#: stop; it is never a valid payload.
CLOSED = _Closed()


class ClosableQueue:
    """A bounded queue with a shutdown sentinel and a pending-item sweep.

    Thin wrapper over ``queue.Queue`` — it deliberately re-exports the
    blocking semantics (``queue.Full`` / ``queue.Empty``) so callers keep
    precise control over timeouts and backpressure, and adds the two
    operations every producer/consumer pair here needs: ``close`` (enqueue
    the sentinel) and ``drain`` (sweep remaining real items, e.g. to fail
    their futures).
    """

    def __init__(self, maxsize: int = 0):
        self._queue: "queue.Queue" = queue.Queue(maxsize=maxsize)

    # -- producer side -------------------------------------------------- #
    def put(self, item: Any, timeout: Optional[float] = None) -> None:
        """Blocking put; raises ``queue.Full`` on timeout."""
        self._queue.put(item, timeout=timeout)

    def put_nowait(self, item: Any) -> None:
        self._queue.put_nowait(item)

    def close(self) -> None:
        """Enqueue the shutdown sentinel (blocking until there is room)."""
        self._queue.put(CLOSED)

    # -- consumer side -------------------------------------------------- #
    def get(self, timeout: Optional[float] = None) -> Any:
        """Blocking get; raises ``queue.Empty`` on timeout."""
        return self._queue.get(timeout=timeout)

    def get_nowait(self) -> Any:
        return self._queue.get_nowait()

    def drain(self, on_item: Optional[Callable[[Any], None]] = None) -> int:
        """Pop everything queued right now; sentinel items are discarded.

        ``on_item`` sees each real item (used to fail pending futures).
        Returns the number of real items swept.
        """
        swept = 0
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return swept
            if item is CLOSED:
                continue
            swept += 1
            if on_item is not None:
                on_item(item)

    def qsize(self) -> int:
        return self._queue.qsize()


def run_worker_threads(target: Callable[[int], None], count: int,
                       name: str = "worker") -> List[threading.Thread]:
    """Start ``count`` daemon threads running ``target(worker_id)``; join all.

    The fan-out/join used by the closed-loop load generator.  Returns the
    (joined) threads for inspection.
    """
    threads = [
        threading.Thread(target=target, args=(i,), name=f"{name}-{i}", daemon=True)
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return threads


# --------------------------------------------------------------------------- #
# BLAS thread budget
# --------------------------------------------------------------------------- #
#: (get, set) thread-count entry points of the OpenBLAS builds numpy (64-bit
#: integer interface) and scipy bundle.
_OPENBLAS_ENTRY_POINTS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _openblas_pools() -> List[Tuple[str, Callable[[], int], Callable[[int], None]]]:
    """``(path, get, set)`` for every OpenBLAS library mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:  # no procfs: no pools found, none capped
        return []
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_ENTRY_POINTS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_threads = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                pools.append((path, get, set_threads))
                break
    return pools


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — platforms without affinity
        return os.cpu_count() or 1


def blas_thread_counts() -> Dict[str, int]:
    """Thread-pool size of every loaded OpenBLAS library, by path."""
    return {path: get() for path, get, _ in _openblas_pools()}


def cap_blas_threads(limit: int) -> Dict[str, int]:
    """Shrink every loaded OpenBLAS thread pool to at most ``limit`` threads.

    Never grows a pool, so a smaller ``OPENBLAS_NUM_THREADS`` stands.
    Returns the resulting pool sizes by library path.
    """
    counts = {}
    for path, get, set_threads in _openblas_pools():
        if get() > limit:
            set_threads(limit)
        counts[path] = get()
    return counts


__all__ = [
    "CLOSED",
    "ClosableQueue",
    "blas_thread_counts",
    "cap_blas_threads",
    "run_worker_threads",
    "usable_cores",
]
