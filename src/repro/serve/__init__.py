"""Model serving: artifact export/load, a micro-batching engine, HTTP frontend.

The deployment path for trained (and factorized) models:

1. :func:`export_artifact` writes a versioned, self-describing ``.npz``
   artifact — low-rank factors stay factorized for the compressed FLOP path.
2. :func:`load_artifact` rebuilds the model without the training stack and
   returns a :class:`Predictor` (graph-free ``no_grad`` inference).
3. :class:`DynamicBatcher` coalesces single-sample requests into micro
   batches under a max-batch-size / max-wait-ms policy and runs them on N
   workers, each owning an execution engine (same-thread
   :class:`InlineEngine` or forked :class:`ProcessEngine` with
   shared-memory weights), behind an admission policy
   (:class:`AdmissionPolicy`: reject when full, or shed low priority).
4. :class:`ModelServer` exposes ``/predict``, ``/healthz``, ``/metrics``
   and ``/respawn`` over a stdlib ``ThreadingHTTPServer``.  ``/predict``
   speaks JSON to any HTTP client and, when the headers ask for it, binary
   ``.npy`` tensors (:mod:`repro.serve.wire`); :class:`ServeClient` switches
   to the binary wire once the server answers in it, and retries with
   jittered backoff.
5. :mod:`repro.serve.loadgen` drives closed-loop load for benchmarking
   and builds bit-reproducible Poisson arrival schedules
   (:class:`TrafficShape` / :func:`arrival_times`) for open-loop drivers.

See DESIGN.md §9 for the artifact format, the determinism guarantee
(predictions independent of batch composition) and the HTTP wire, and §16
for the workers, their lifecycle and the admission policy.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    LoadShedError,
    QueueFullError,
)
from repro.serve.artifact import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    Predictor,
    artifact_size_bytes,
    check_batch_invariance,
    export_artifact,
    load_artifact,
    read_manifest,
)
from repro.serve.batcher import (
    BatcherClosedError,
    BatchingPolicy,
    DynamicBatcher,
)
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.engine import (
    InlineEngine,
    ProcessEngine,
    SharedModelWeights,
    WorkerDiedError,
)
from repro.serve.loadgen import (
    LoadgenResult,
    TrafficShape,
    arrival_times,
    bench_artifact,
    bench_engine,
    bench_http,
    run_closed_loop,
)
from repro.serve.server import ModelServer

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "AdmissionController",
    "AdmissionPolicy",
    "ArtifactError",
    "Predictor",
    "artifact_size_bytes",
    "check_batch_invariance",
    "export_artifact",
    "load_artifact",
    "read_manifest",
    "BatcherClosedError",
    "BatchingPolicy",
    "DynamicBatcher",
    "InlineEngine",
    "LoadShedError",
    "ProcessEngine",
    "QueueFullError",
    "ServeClient",
    "ServeClientError",
    "SharedModelWeights",
    "WorkerDiedError",
    "LoadgenResult",
    "TrafficShape",
    "arrival_times",
    "bench_artifact",
    "bench_engine",
    "bench_http",
    "run_closed_loop",
    "ModelServer",
]
