"""Small shared utilities: seeding, logging, checkpointing, numeric helpers."""

from repro.utils.seed import (
    counter_bits,
    counter_integers,
    counter_uniforms,
    get_epoch_rng,
    get_rng,
    root_seed,
    sample_integers,
    sample_uniforms,
    seed_everything,
)
from repro.utils.logging import get_logger
from repro.utils.concurrency import (
    CLOSED,
    ClosableQueue,
    run_worker_threads,
)
from repro.utils.shm import (
    SEGMENT_PREFIX,
    SharedSegment,
    ShmArena,
    active_owned_segments,
    arena_bytes_for,
)
from repro.utils.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    load_checkpoint,
    read_checkpoint_meta,
    restore_model,
    save_checkpoint,
)

__all__ = [
    "seed_everything",
    "get_rng",
    "get_epoch_rng",
    "root_seed",
    "counter_bits",
    "counter_integers",
    "counter_uniforms",
    "sample_integers",
    "sample_uniforms",
    "CLOSED",
    "ClosableQueue",
    "run_worker_threads",
    "get_logger",
    "SEGMENT_PREFIX",
    "SharedSegment",
    "ShmArena",
    "active_owned_segments",
    "arena_bytes_for",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
    "restore_model",
]
