"""Tests for the shared-memory layer (``repro.utils.shm``).

Covers segment lifecycle (create, view, idempotent unlink, context manager),
the guaranteed-cleanup contract (atexit sweep on normal and exception exit,
PID-guarded registry so forked children never unlink parent segments), the
named-view handoff, the ``ShmArena`` bump allocator (alignment, graceful
exhaustion, ``owns``), and the shared-segment backing hooks in the
numpy-fast backend pool and the collate ring.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.utils.shm import (
    DEFAULT_ALIGN,
    SEGMENT_PREFIX,
    SharedSegment,
    ShmArena,
    active_owned_segments,
    align_up,
    arena_bytes_for,
    attach_view,
    byte_bounds,
)

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def shm_path(name: str) -> str:
    return os.path.join("/dev/shm", name)


def run_py(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


# --------------------------------------------------------------------------- #
# SharedSegment
# --------------------------------------------------------------------------- #
class TestSharedSegment:
    def test_roundtrip_through_view(self):
        with SharedSegment(1024) as seg:
            assert seg.name.startswith(SEGMENT_PREFIX)
            assert seg.size >= 1024
            view = seg.view((16,), np.float32)
            view[:] = np.arange(16, dtype=np.float32)
            again = seg.view((4, 4), np.float32)
            np.testing.assert_array_equal(again.ravel(), np.arange(16))
            assert seg.name in active_owned_segments()
        assert seg.name not in active_owned_segments()

    def test_view_offset_and_bounds(self):
        with SharedSegment(256) as seg:
            view = seg.view((8,), np.float64, offset=64)
            view[:] = 3.0
            assert seg.view((8,), np.float64, offset=64)[0] == 3.0
            with pytest.raises(ValueError, match="exceeds segment size"):
                seg.view((1024,), np.float64)
            with pytest.raises(ValueError, match="exceeds segment size"):
                seg.view((8,), np.float64, offset=256)

    def test_unlink_idempotent_and_removes_backing_file(self):
        seg = SharedSegment(64)
        path = shm_path(seg.name)
        if not os.path.exists(path):
            pytest.skip("/dev/shm not available on this platform")
        seg.unlink()
        assert not os.path.exists(path)
        seg.unlink()  # second call is a no-op, not an error
        assert seg.name not in active_owned_segments()

    def test_invalid_size_raises(self):
        with pytest.raises(ValueError, match="size"):
            SharedSegment(0)

    def test_attach_view_named_handoff(self):
        with SharedSegment(128) as seg:
            seg.view((4,), np.int64)[:] = [7, 8, 9, 10]
            view = attach_view(seg.name, (4,), np.int64)
            np.testing.assert_array_equal(view, [7, 8, 9, 10])
            # The attaching side is not an owner — nothing new registered.
            assert active_owned_segments() == [seg.name]
            # Detach explicitly (and unregister from the resource tracker,
            # which the <= 3.12 attach registered us with) so the interpreter
            # does not warn about a "leaked" segment at exit.
            keepalive = view._repro_shm_keepalive
            del view
            from multiprocessing import resource_tracker

            resource_tracker.unregister(keepalive._name, "shared_memory")
            keepalive.close()


class TestGuaranteedCleanup:
    def test_atexit_sweep_unlinks_forgotten_segment(self):
        # A process that creates a segment and exits without unlinking must
        # not leak it — the atexit sweep is the guarantee.
        proc = run_py(
            "from repro.utils.shm import SharedSegment\n"
            "seg = SharedSegment(64)\n"
            "print(seg.name)\n")
        assert proc.returncode == 0, proc.stderr
        name = proc.stdout.strip().splitlines()[-1]
        assert name.startswith(SEGMENT_PREFIX)
        assert not os.path.exists(shm_path(name))

    def test_atexit_sweep_runs_on_crash(self):
        # Abnormal exit (uncaught exception past any finally) still unlinks.
        proc = run_py(
            "from repro.utils.shm import SharedSegment\n"
            "seg = SharedSegment(64)\n"
            "print(seg.name, flush=True)\n"
            "raise RuntimeError('worker died mid-step')\n")
        assert proc.returncode != 0
        assert "worker died mid-step" in proc.stderr
        name = proc.stdout.strip().splitlines()[-1].split()[0]
        assert not os.path.exists(shm_path(name))

    def test_forked_child_never_unlinks_parent_segments(self):
        # The registry is inherited across fork; the PID guard must keep a
        # child's cleanup sweep away from segments the parent owns.
        proc = run_py(
            "import os\n"
            "from repro.utils import shm\n"
            "seg = shm.SharedSegment(64)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    shm._cleanup_owned()  # the child's atexit sweep\n"
            "    os._exit(0)\n"
            "os.waitpid(pid, 0)\n"
            "print('alive' if os.path.exists(f'/dev/shm/{seg.name}') else 'gone')\n"
            "seg.unlink()\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "alive"


# --------------------------------------------------------------------------- #
# ShmArena
# --------------------------------------------------------------------------- #
class TestShmArena:
    def test_alloc_views_are_aligned_and_disjoint(self):
        with ShmArena(4096) as arena:
            a = arena.alloc((3,), np.float32)  # 12 bytes -> next slot pads
            b = arena.alloc((5,), np.float64)
            a[:] = 1.0
            b[:] = 2.0
            np.testing.assert_array_equal(a, np.ones(3, dtype=np.float32))
            np.testing.assert_array_equal(b, np.full(5, 2.0))
            lo_a, _ = byte_bounds(a)
            lo_b, _ = byte_bounds(b)
            assert lo_a % DEFAULT_ALIGN == 0
            assert lo_b % DEFAULT_ALIGN == 0
            assert lo_b >= lo_a + DEFAULT_ALIGN

    def test_exhaustion_returns_none_not_raise(self):
        with ShmArena(256) as arena:
            assert arena.alloc((16,), np.float64) is not None
            assert arena.alloc((1024,), np.float64) is None
            # A smaller request after a failed big one still succeeds.
            assert arena.alloc((8,), np.float64) is not None

    def test_owns(self):
        with ShmArena(1024) as arena:
            inside = arena.alloc((4,), np.float32)
            assert arena.owns(inside)
            assert arena.owns(inside[1:3])  # sub-views still live inside
            assert not arena.owns(np.empty(4, dtype=np.float32))

    def test_reset_reuses_space(self):
        with ShmArena(256) as arena:
            first = arena.alloc((16,), np.float64)
            assert arena.alloc((16,), np.float64) is not None
            assert arena.alloc((16,), np.float64) is None
            arena.reset()
            again = arena.alloc((16,), np.float64)
            assert byte_bounds(again) == byte_bounds(first)

    def test_close_unlinks_only_owned_segment(self):
        seg = SharedSegment(512)
        arena = ShmArena(seg)
        arena.close()  # wrapped an existing segment: must NOT unlink it
        assert seg.name in active_owned_segments()
        seg.unlink()
        with ShmArena(512) as arena:
            name = arena.segment.name
        assert name not in active_owned_segments()

    def test_invalid_align_raises(self):
        before = set(active_owned_segments())
        with pytest.raises(ValueError, match="power of two"):
            ShmArena(64, align=3)
        assert set(active_owned_segments()) == before  # no segment leaked

    def test_arena_bytes_for_fits_specs(self):
        specs = [((3, 5), np.float32), ((7,), np.float64), ((2, 2), np.uint8)]
        with ShmArena(arena_bytes_for(specs)) as arena:
            for shape, dtype in specs:
                assert arena.alloc(shape, dtype) is not None
            assert arena.remaining < DEFAULT_ALIGN

    def test_align_up(self):
        assert align_up(0) == 0
        assert align_up(1) == DEFAULT_ALIGN
        assert align_up(64) == 64
        assert align_up(65, 32) == 96


# --------------------------------------------------------------------------- #
# Shared-segment backing for the pooled allocators
# --------------------------------------------------------------------------- #
class TestBackendSharedSource:
    def _backend(self):
        from repro.tensor.backend import NumpyFastBackend

        return NumpyFastBackend()

    def test_pool_miss_falls_to_shared_source(self):
        backend = self._backend()
        with ShmArena(4096) as arena:
            backend.set_shared_source(arena)
            buf = backend.take((8, 8), np.float32)
            assert arena.owns(buf)

    def test_give_recycles_shared_views(self):
        backend = self._backend()
        with ShmArena(4096) as arena:
            backend.set_shared_source(arena)
            buf = backend.take((8, 8), np.float32)
            backend.give(buf)  # a view, but from our own segment: poolable
            again = backend.take((8, 8), np.float32)
            assert again is buf

    def test_give_still_rejects_foreign_views(self):
        backend = self._backend()
        with ShmArena(4096) as arena:
            backend.set_shared_source(arena)
            foreign = np.empty((4, 4), dtype=np.float32)[1:3]
            backend.give(foreign)
            assert backend.take((2, 4), np.float32) is not foreign

    def test_exhausted_source_falls_back_to_heap(self):
        backend = self._backend()
        with ShmArena(128) as arena:
            backend.set_shared_source(arena)
            big = backend.take((64, 64), np.float32)
            assert not arena.owns(big)

    def test_take_like_respects_layout_contract(self):
        backend = self._backend()
        with ShmArena(8192) as arena:
            backend.set_shared_source(arena)
            contiguous = np.empty((4, 8), dtype=np.float32)
            assert arena.owns(backend.take_like(contiguous))
            # Segment views are C-contiguous; a permuted-layout prototype
            # must get a private empty_like, never a layout-mangled view.
            permuted = np.empty((8, 4), dtype=np.float32).T
            got = backend.take_like(permuted)
            assert not arena.owns(got)
            assert got.strides == permuted.strides


class TestCollateArenaSharedSource:
    def test_ring_entries_come_from_source(self):
        from repro.data.pipeline import CollateArena

        with ShmArena(1 << 16) as source:
            ring = CollateArena(slots=2, source=source)
            first = ring.take((4, 3, 8, 8), np.float32)
            second = ring.take((4, 3, 8, 8), np.float32)
            assert source.owns(first) and source.owns(second)
            # Ring recycles (slots=2): the third take is the first buffer.
            assert ring.take((4, 3, 8, 8), np.float32) is first

    def test_full_source_falls_back_to_private(self):
        from repro.data.pipeline import CollateArena

        with ShmArena(128) as source:
            ring = CollateArena(slots=2, source=source)
            buf = ring.take((32, 3, 16, 16), np.float32)
            assert not source.owns(buf)
            assert buf.shape == (32, 3, 16, 16)
