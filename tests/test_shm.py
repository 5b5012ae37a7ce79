"""Tests for the shared-memory layer (``repro.utils.shm``).

Covers segment lifecycle (create, view, idempotent unlink, context manager),
the guaranteed-cleanup contract (atexit sweep on normal and exception exit,
PID-guarded registry so forked children never unlink parent segments), the
``ShmArena`` bump allocator (alignment, graceful exhaustion), and the
per-test leak ledger that keeps every test honest about segments, children
and threads.
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
)

try:  # numpy >= 2.0 moved byte_bounds out of the top-level namespace
    from numpy.lib.array_utils import byte_bounds
except ImportError:  # pragma: no cover — numpy 1.x
    byte_bounds = np.byte_bounds

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
        assert f"shm segment {name} leaked past its owner" in proc.stderr

    def test_atexit_sweep_is_quiet_when_the_log_stream_is_closed(self):
        # pytest closes its capture streams before atexit handlers run.  The
        # sweep must still unlink, and its report must not make logging print
        # a "--- Logging error ---" traceback.
        proc = run_py(
            "import io, logging\n"
            "from repro.utils.shm import SharedSegment\n"
            "seg = SharedSegment(64)\n"
            "print(seg.name, flush=True)\n"
            "closed = io.StringIO()\n"
            "closed.close()\n"
            "logging.getLogger('repro').handlers[0].setStream(closed)\n")
        assert proc.returncode == 0, proc.stderr
        name = proc.stdout.strip().splitlines()[-1]
        assert not os.path.exists(shm_path(name))
        assert "Logging error" not in proc.stderr
        assert "Traceback" not in proc.stderr

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

    def test_close_unlinks_the_segment(self):
        with ShmArena(512) as arena:
            name = arena.segment.name
            assert name in active_owned_segments()
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
            assert arena.alloc((1,), np.uint8) is None

    def test_align_up(self):
        assert align_up(0) == 0
        assert align_up(1) == DEFAULT_ALIGN
        assert align_up(64) == 64
        assert align_up(65, 32) == 96


# --------------------------------------------------------------------------- #
# The per-test leak ledger (tests/conftest.py)
# --------------------------------------------------------------------------- #
class TestLeakLedger:
    def test_reports_a_leaked_segment(self, leak_ledger):
        segment = SharedSegment(64)
        try:
            assert f"shm segment {segment.name}" in leak_ledger.leaks()
        finally:
            segment.unlink()
        assert leak_ledger.leaks() == []

    def test_reports_a_leaked_pipe(self, leak_ledger):
        read_end, write_end = os.pipe()
        try:
            leaks = leak_ledger.leaks()
            for fd in (read_end, write_end):
                assert any(leak.startswith(f"fd {fd} (pipe:") for leak in leaks), leaks
        finally:
            os.close(read_end)
            os.close(write_end)
        assert leak_ledger.leaks() == []
