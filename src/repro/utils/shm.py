"""Shared-memory segment lifecycle + bump-allocated numpy views.

Thin, fork-oriented layer over :mod:`multiprocessing.shared_memory` used by
:class:`repro.distributed.DataParallelTrainer`'s forked replicas and the
process-mode serving engines.

Design rules (they exist because of real footguns):

* **Only the creating process owns a segment.**  On Python <= 3.12 even an
  attach-only ``SharedMemory(name, create=False)`` registers the segment
  with the ``multiprocessing`` resource tracker, so a child that attaches
  and then dies triggers a spurious tracker unlink of a segment the parent
  still uses.  Worker processes therefore never construct ``SharedMemory``
  objects at all: they are forked *after* the parent carves its views, and
  inherit the mapping plus the numpy views for free.
* **Unlink is guaranteed and idempotent.**  Every owned segment is recorded
  in a module registry and unlinked via ``atexit`` if the owner forgets
  (or crashes past its ``finally``).  The registry is keyed by the owner's
  PID, so a forked child that inherits the registry and later exits
  normally will *not* unlink segments out from under the parent.
* **Views, not copies.**  :meth:`SharedSegment.view` and
  :meth:`ShmArena.alloc` return numpy arrays backed directly by the
  mapping; writes are visible to every process sharing the segment without
  any serialization.
"""

from __future__ import annotations

import atexit
import logging
import os
import secrets
import threading
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.logging import get_logger

logger = get_logger("utils.shm")

#: Prefix for every segment this layer creates — leak checks (tests, ops)
#: can scan ``/dev/shm`` for it.
SEGMENT_PREFIX = "repro-shm"

#: Default view alignment.  64 bytes covers every SIMD extension numpy's
#: kernels care about (AVX-512 included) and cacheline-aligns hot blocks.
DEFAULT_ALIGN = 64

_registry_lock = threading.Lock()
#: name -> (segment, owner_pid).  Module-global so ``atexit`` can sweep it.
_owned: Dict[str, Tuple["SharedSegment", int]] = {}
_atexit_installed = False


def _cleanup_owned() -> None:
    """atexit sweep: unlink every segment created *by this process*.

    Runs in forked children too (they inherit the handler), hence the PID
    guard — a child exiting must never unlink the parent's segments.
    """
    pid = os.getpid()
    with _registry_lock:
        entries = list(_owned.items())
    leaked = []
    for name, (segment, owner_pid) in entries:
        if owner_pid != pid:
            continue
        leaked.append(name)
        try:
            segment.unlink()
        except Exception:  # noqa: BLE001 — best-effort teardown
            pass
    # Report only after every unlink, and quietly: by the time atexit runs a
    # handler's stream may be closed already (pytest closes its capture
    # streams first).  With raiseExceptions off, a handler that fails to
    # write drops the record instead of printing a "--- Logging error ---"
    # traceback.
    raise_exceptions, logging.raiseExceptions = logging.raiseExceptions, False
    try:
        for name in leaked:
            logger.warning("shm segment %s leaked past its owner; unlinked at exit", name)
    finally:
        logging.raiseExceptions = raise_exceptions


def _register(segment: "SharedSegment") -> None:
    global _atexit_installed
    with _registry_lock:
        _owned[segment.name] = (segment, os.getpid())
        if not _atexit_installed:
            atexit.register(_cleanup_owned)
            _atexit_installed = True


def _unregister(name: str) -> None:
    with _registry_lock:
        _owned.pop(name, None)


def active_owned_segments() -> List[str]:
    """Names of live segments created by *this process* (leak introspection)."""
    pid = os.getpid()
    with _registry_lock:
        return sorted(name for name, (_, owner) in _owned.items() if owner == pid)


def _unique_name() -> str:
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"


class SharedSegment:
    """One owned ``/dev/shm`` segment with typed numpy views.

    Create in the parent, carve views, fork, and let workers write through
    the inherited views.  :meth:`unlink` (or the context manager, or the
    atexit sweep) removes the backing file exactly once.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"segment size must be >= 1 byte, got {size}")
        self._shm = shared_memory.SharedMemory(
            name=_unique_name(), create=True, size=int(size))
        self._owner_pid = os.getpid()
        self._unlinked = False
        _register(self)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def size(self) -> int:
        return self._shm.size

    def view(self, shape, dtype, *, offset: int = 0) -> np.ndarray:
        """A C-contiguous ndarray over ``[offset, offset + nbytes)``."""
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in np.atleast_1d(shape)) if not np.isscalar(shape) \
            else (int(shape),)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if offset < 0 or offset + nbytes > self.size:
            raise ValueError(
                f"view [{offset}, {offset + nbytes}) exceeds segment size {self.size}")
        return np.ndarray(shape, dtype=dtype, buffer=self._shm.buf, offset=offset)

    def unlink(self) -> None:
        """Remove the backing file (idempotent).  Views die with the mapping
        only when the last process unmaps; the *name* disappears now."""
        if self._unlinked:
            return
        self._unlinked = True
        _unregister(self.name)
        try:
            self._shm.close()
        except Exception:  # noqa: BLE001 — buffer may be exported; unlink anyway
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedSegment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        state = "unlinked" if self._unlinked else "live"
        return f"SharedSegment(name={self.name!r}, size={self.size}, {state})"


def align_up(offset: int, align: int = DEFAULT_ALIGN) -> int:
    return (offset + align - 1) & ~(align - 1)


class ShmArena:
    """Bump allocator carving aligned numpy views out of one segment.

    Built for layouts computed once up front (data-parallel training sizes
    its parameter/gradient/stats blocks before forking).  :meth:`alloc`
    returns ``None`` — instead of raising — when the segment is full, so
    callers can fall back to private heap memory.
    """

    def __init__(self, size: int, *, align: int = DEFAULT_ALIGN):
        # Validate before creating a segment, which a failed constructor would leak.
        if align < 1 or align & (align - 1):
            raise ValueError(f"align must be a positive power of two, got {align}")
        self.segment = SharedSegment(int(size))
        self.align = align
        self._offset = 0

    def alloc(self, shape, dtype) -> Optional[np.ndarray]:
        """An aligned view, or ``None`` if the segment cannot hold it."""
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in np.atleast_1d(shape)) if not np.isscalar(shape) \
            else (int(shape),)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        offset = align_up(self._offset, self.align)
        if offset + nbytes > self.segment.size:
            return None
        self._offset = offset + nbytes
        return self.segment.view(shape, dtype, offset=offset)

    def put(self, array: np.ndarray) -> Optional[np.ndarray]:
        """Allocate a view shaped like ``array`` and copy it in.

        The one-call idiom for publishing read-only data (e.g. a predictor
        pool's model weights) into shared memory; returns ``None`` — like
        :meth:`alloc` — when the segment cannot hold it.
        """
        array = np.asarray(array)
        view = self.alloc(array.shape, array.dtype)
        if view is None:
            return None
        np.copyto(view, array)
        return view

    def close(self) -> None:
        """Unlink the arena's segment."""
        self.segment.unlink()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def arena_bytes_for(specs, *, align: int = DEFAULT_ALIGN) -> int:
    """Segment size that fits ``specs`` (iterable of (shape, dtype)) with
    per-allocation alignment padding."""
    total = 0
    for shape, dtype in specs:
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in np.atleast_1d(shape)) if not np.isscalar(shape) \
            else (int(shape),)
        total = align_up(total, align) + int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    return max(total, 1)


__all__ = [
    "DEFAULT_ALIGN",
    "SEGMENT_PREFIX",
    "SharedSegment",
    "ShmArena",
    "active_owned_segments",
    "align_up",
    "arena_bytes_for",
]
