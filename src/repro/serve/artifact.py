"""Versioned model artifacts: the unit of deployment for ``repro.serve``.

An artifact is one ``.npz`` file holding

* every weight and buffer of a trained model (``state/<path>`` arrays), and
* a JSON **manifest** (embedded as a uint8 array) describing how to rebuild
  the model without the training stack: the model-registry spec
  (``build_model`` name + kwargs), the per-layer factorization ranks of any
  Cuttlefish/Pufferfish low-rank layers and the extra-BatchNorm flag.

The loader reads nothing else.  Artifacts from older builds also carry an
``inference_plan`` manifest key and ``plan/const/*`` arrays, or a
``fused_activations`` key; all are ignored, so those files keep loading
and predict the same bits.

Low-rank layers are exported **factorized**: the U/Vᵀ factor pair stays
separate so the served model keeps the compressed FLOP path the paper trains
for — loading never re-composes (and never re-SVDs) the dense weight.  The
dense comparison point is produced explicitly via
:func:`repro.core.merge_factorized` before export.

Loading goes through :func:`load_artifact`, which returns a :class:`Predictor`
— a thin callable wrapper running the model graph-free (``no_grad``) on a
chosen backend.  The predictor **canonicalizes batch geometry**: every batch
is padded (by repeating its first sample) up to the next multiple of four
rows, with a floor of four.  BLAS picks its sgemm micro-kernel and k-blocking
from the matrix shape, so the same sample can produce last-ulp-different
results depending on how many other samples share its batch (single rows take
a gemv path; small odd row counts take tail kernels).  Pinning the row count
to the {4, 8, 12, …} lattice keeps every GEMM the serving-scale models emit
on one kernel path, making predictions a pure function of the sample — the
property the dynamic batcher's bit-parity guarantee is built on.  Because the
stability surface is ultimately a BLAS implementation detail,
:func:`check_batch_invariance` verifies it empirically and the result is
recorded in the manifest when an example input is supplied at export time
(DESIGN.md §9).
"""

from __future__ import annotations

import json
import os
import time
import zipfile
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.core.factorize import materialize_low_rank
from repro.core.low_rank_layers import is_low_rank
from repro.models.registry import build_model
from repro.tensor import Tensor, no_grad, use_backend

ARTIFACT_FORMAT_VERSION = 1

_MANIFEST_KEY = "__artifact_manifest__"
_STATE_PREFIX = "state/"
#: Every batch is padded to a multiple of this many rows (see the module
#: docstring), so a single sample runs as a 4-row forward.
PAD_ROWS = 4


class ArtifactError(RuntimeError):
    """A serving artifact is malformed, incompatible, or from another version."""


def _model_ranks(model: nn.Module) -> Dict[str, int]:
    return {path: int(module.rank) for path, module in model.named_modules()
            if path and is_low_rank(module)}


def _extra_bn_paths(model: nn.Module) -> list:
    """Paths of low-rank layers using the extra-BatchNorm variant.

    Recorded per path — a model can legitimately mix variants (e.g. staged
    ``factorize_model`` calls), and a single model-wide flag would rebuild
    the wrong structure for half its layers.
    """
    return [path for path, module in model.named_modules()
            if path and is_low_rank(module) and getattr(module, "extra_bn", False)]


def export_artifact(
    path: str,
    model: nn.Module,
    model_spec: Optional[Dict[str, Any]] = None,
    input_shape: Optional[Sequence[int]] = None,
    metadata: Optional[Dict[str, Any]] = None,
    example_batch: Optional[np.ndarray] = None,
) -> Dict[str, Any]:
    """Write ``model`` to a self-describing serving artifact at ``path``.

    Parameters
    ----------
    path:
        Destination ``.npz`` file; parent directories are created.
    model:
        A trained model — full-rank, factorized, or any mix.
    model_spec:
        ``{"name": <registry name>, "kwargs": {...}}`` describing how to
        rebuild the architecture via :func:`repro.models.build_model`.  The
        kwargs must be JSON-serialisable (no rng).  When omitted, the
        artifact can only be loaded into a caller-supplied skeleton.
    input_shape:
        Per-sample input shape (without the batch axis), recorded for request
        validation by the server.
    metadata:
        Free-form JSON-serialisable dict (accuracy, switch epoch, …).
    example_batch:
        Optional ``(n, *input_shape)`` array (n ≥ 4 recommended).  When
        given, :func:`check_batch_invariance` runs at export time and the
        measured answer is stored under the manifest key ``batch_invariant``.

    Returns the manifest that was embedded in the file.
    """
    state = model.state_dict()
    extra_bn_paths = _extra_bn_paths(model)
    manifest: Dict[str, Any] = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "created_unix": time.time(),
        "model": model_spec,
        "ranks": _model_ranks(model),
        "extra_bn": bool(extra_bn_paths),
        "extra_bn_paths": extra_bn_paths,
        "input_shape": list(input_shape) if input_shape is not None else None,
        "num_parameters": int(model.num_parameters()),
        "state_keys": {key: {"shape": list(value.shape), "dtype": str(value.dtype)}
                       for key, value in state.items()},
        "metadata": metadata or {},
    }
    # Validate serialisability up front — before the (comparatively costly)
    # batch-invariance check — and name the offending part of the manifest.
    for label, part in (("model_spec", model_spec), ("metadata", metadata)):
        try:
            json.dumps(part)
        except TypeError as error:
            raise ArtifactError(
                f"{label} must be JSON-serialisable to be stored in the manifest "
                f"(convert numpy scalars with float()/int()); got {part!r} ({error})"
            ) from None
    if example_batch is not None:
        was_training = model.training
        manifest["batch_invariant"] = check_batch_invariance(Predictor(model), example_batch)
        manifest["batch_invariance_checked_up_to"] = int(min(32, np.asarray(example_batch).shape[0]))
        model.train(was_training)
    arrays = {_STATE_PREFIX + key: value for key, value in state.items()}
    arrays[_MANIFEST_KEY] = np.frombuffer(json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **arrays)
    return manifest


def read_manifest(path: str) -> Dict[str, Any]:
    """Return the manifest of an artifact without loading any weights.

    Raises :class:`ArtifactError` if the file is not an artifact or was
    written by an unsupported format version.
    """
    try:
        with np.load(path) as archive:
            if _MANIFEST_KEY not in archive.files:
                raise ArtifactError(
                    f"{path!r} has no embedded manifest — it is not a serving artifact "
                    f"(checkpoints are a different format; export one with "
                    f"repro.serve.export_artifact or `repro-cuttlefish export`)"
                )
            raw = archive[_MANIFEST_KEY].tobytes().decode("utf-8")
        manifest = json.loads(raw)
    except ArtifactError:
        raise
    except (OSError, ValueError, zipfile.BadZipFile) as error:
        # ValueError covers json.JSONDecodeError (truncated/garbled manifest).
        raise ArtifactError(f"cannot read artifact {path!r}: {error}") from error
    version = manifest.get("format_version")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(
            f"artifact {path!r} uses format version {version!r}, but this build reads "
            f"version {ARTIFACT_FORMAT_VERSION}; re-export the model with the current code"
        )
    return manifest


def _rebuild_model(manifest: Dict[str, Any]) -> nn.Module:
    spec = manifest.get("model")
    if not spec or "name" not in spec:
        raise ArtifactError(
            "artifact has no model spec, so the architecture cannot be rebuilt; "
            "pass model=<skeleton> to load_artifact, or re-export with "
            "model_spec={'name': ..., 'kwargs': {...}}"
        )
    # Weight-free: every parameter and buffer is overwritten from the archive,
    # and load_artifact refuses an archive that lacks one (DESIGN.md §9.1).
    with nn.init.shapes_only() as no_draws:
        model = build_model(spec["name"], rng=no_draws, **spec.get("kwargs", {}))
    ranks = {key: int(value) for key, value in (manifest.get("ranks") or {}).items()}
    if ranks:
        bn_paths = set(manifest.get("extra_bn_paths")
                       or (ranks if manifest.get("extra_bn") else ()))
        plain = {path: rank for path, rank in ranks.items() if path not in bn_paths}
        with_bn = {path: rank for path, rank in ranks.items() if path in bn_paths}
        if plain:
            materialize_low_rank(model, plain, extra_bn=False)
        if with_bn:
            materialize_low_rank(model, with_bn, extra_bn=True)
    return model


def load_artifact(
    path: str,
    model: Optional[nn.Module] = None,
    backend: Optional[str] = None,
) -> "Predictor":
    """Load an artifact and return a ready-to-serve :class:`Predictor`.

    When ``model`` is omitted the architecture is rebuilt weight-free from
    the embedded spec (model registry + stored ranks); a caller-supplied
    skeleton must already match the stored structure.  Weight names and
    shapes are validated against the manifest with loud errors, and a
    weight the archive lacks is an error, so no skeleton value is served.
    """
    manifest = read_manifest(path)
    if model is None:
        model = _rebuild_model(manifest)
    with np.load(path) as archive:
        state = {key[len(_STATE_PREFIX):]: archive[key]
                 for key in archive.files if key.startswith(_STATE_PREFIX)}

    expected = set(manifest.get("state_keys", state))
    if set(state) != expected:
        raise ArtifactError(
            f"artifact {path!r} is internally inconsistent: manifest lists "
            f"{sorted(expected)[:5]}… but the archive holds {sorted(state)[:5]}…"
        )
    missing, unexpected = model.load_state_dict(state, strict=False)
    if missing or unexpected:
        raise ArtifactError(
            f"artifact {path!r} does not fit the model: missing weights "
            f"{sorted(missing)}, unexpected weights {sorted(unexpected)}. "
            f"(Was the skeleton factorized the same way as the export?)"
        )
    model.eval()
    return Predictor(model, manifest=manifest, backend=backend)


class Predictor:
    """Graph-free inference wrapper with batch-composition-independent output.

    Calls run under ``no_grad`` on the configured backend.  Every batch is
    padded up to the next multiple of :data:`PAD_ROWS` rows before the
    forward pass and the pad rows are discarded afterwards, so
    ``predictor(x)[i]`` is bit-identical for every way of batching the same
    samples — see the module docstring.  A predictor holds no per-call
    state: grad mode and the backend override are per thread, and every
    forward takes its buffers per call, so any number of threads may call
    one predictor at once.
    """

    def __init__(self, model: nn.Module, manifest: Optional[Dict[str, Any]] = None,
                 backend: Optional[str] = None):
        self.model = model
        self.manifest = manifest or {}
        self.backend = backend
        self.model.eval()

    @property
    def input_shape(self) -> Optional[Tuple[int, ...]]:
        shape = self.manifest.get("input_shape")
        return tuple(shape) if shape else None

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        """Predict a batch of shape ``(n, *input_shape)``; returns ``(n, ...)``."""
        batch = np.ascontiguousarray(inputs, dtype=np.float32)
        if self.input_shape is not None and tuple(batch.shape[1:]) != self.input_shape:
            raise ValueError(
                f"input batch has per-sample shape {tuple(batch.shape[1:])}, "
                f"artifact expects {self.input_shape}"
            )
        n = batch.shape[0]
        if n == 0:
            raise ValueError(f"expected a batch of at least one sample, got an "
                             f"array of shape {batch.shape}")
        target = -(-n // PAD_ROWS) * PAD_ROWS
        if target != n:
            pad = np.broadcast_to(batch[:1], (target - n,) + batch.shape[1:])
            # ascontiguousarray matters: concatenating a broadcast view can
            # yield a non-C-contiguous result, and BLAS takes a different
            # (differently-rounding) kernel path for transposed layouts.
            batch = np.ascontiguousarray(np.concatenate([batch, pad], axis=0))
        with no_grad():
            if self.backend is not None:
                with use_backend(self.backend):
                    out = self.model(batch)
            else:
                out = self.model(batch)
        data = out.data if isinstance(out, Tensor) else np.asarray(out)
        return data[:n].copy() if target != n else data


def check_batch_invariance(
    predictor: Predictor,
    example_batch: np.ndarray,
    max_batch_size: int = 32,
    compositions: Optional[Sequence[int]] = None,
) -> bool:
    """Empirically verify that predictions do not depend on batch grouping.

    The reference is the one-at-a-time prediction of every sample (the
    canonical minimum-geometry forward); the batch is then re-run split into
    chunks of each size in ``compositions`` — by default 2, 3 and every
    multiple of 4 up to ``min(max_batch_size, len(example_batch))`` — and
    every per-sample output must be bit-identical.  Batch canonicalization
    makes this hold for the model shapes this repo serves up to the batch
    sizes its policies use, but it is ultimately a property of the
    underlying BLAS (whose kernel blocking can change with GEMM geometry) —
    so artifacts record the *measured* answer and the batch-size range it
    was measured over, rather than assuming it.
    """
    example_batch = np.ascontiguousarray(example_batch, dtype=np.float32)
    n = example_batch.shape[0]
    limit = min(int(max_batch_size), n)
    if compositions is None:
        compositions = sorted({2, 3} | {c for c in range(4, limit + 1, 4)})
    reference = np.concatenate(
        [predictor(example_batch[i:i + 1]) for i in range(n)], axis=0)
    for chunk in compositions:
        if chunk > n:
            continue
        pieces = [predictor(example_batch[i:i + chunk]) for i in range(0, n, chunk)]
        if not np.array_equal(np.concatenate(pieces, axis=0), reference):
            return False
    return True


def artifact_size_bytes(path: str) -> int:
    """On-disk size of an artifact — the number the compression claims cite."""
    return os.path.getsize(path)


__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactError",
    "PAD_ROWS",
    "Predictor",
    "artifact_size_bytes",
    "check_batch_invariance",
    "export_artifact",
    "load_artifact",
    "read_manifest",
]
