"""Model serving: artifact export/load, a micro-batching engine, HTTP frontend.

The deployment path for trained (and factorized) models:

1. :func:`export_artifact` writes a versioned, self-describing ``.npz``
   artifact — low-rank factors stay factorized for the compressed FLOP path.
2. :func:`load_artifact` rebuilds the model without the training stack and
   returns a :class:`Predictor` (graph-free ``no_grad`` inference).  Public
   names load on first access, so a server imports neither the client nor
   the load generator (DESIGN.md §2).
3. :class:`DynamicBatcher` coalesces the requests queued when a worker
   frees up into micro batches of at most ``max_batch_size`` samples, never
   waiting for more, and runs them on N workers, each owning an execution
   engine (same-thread
   :class:`InlineEngine` or forked :class:`ProcessEngine` with
   shared-memory weights), behind an admission policy
   (:class:`AdmissionPolicy`: reject when full, or shed low priority).
4. :class:`ModelServer` exposes ``/predict``, ``/healthz``, ``/metrics``
   and ``/respawn`` over a stdlib ``ThreadingHTTPServer``.  ``/predict``
   speaks JSON to any HTTP client and, when the headers ask for it, binary
   ``.npy`` tensors (:mod:`repro.serve.wire`); :class:`ServeClient` keeps
   one connection open, switches to the binary wire once the server
   answers in it, and retries with jittered backoff.
5. :mod:`repro.serve.loadgen` drives closed-loop load for benchmarking
   and builds bit-reproducible Poisson arrival schedules
   (:class:`TrafficShape` / :func:`arrival_times`) for open-loop drivers.

See DESIGN.md §9 for the artifact format, the determinism guarantee
(predictions independent of batch composition) and the HTTP wire, and §16
for the workers, their lifecycle and the admission policy.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "admission": ["AdmissionController", "AdmissionPolicy", "LoadShedError", "QueueFullError"],
    "artifact": ["ARTIFACT_FORMAT_VERSION", "ArtifactError", "Predictor", "artifact_size_bytes",
                 "check_batch_invariance", "export_artifact", "load_artifact", "read_manifest"],
    "batcher": ["BatcherClosedError", "BatchingPolicy", "DynamicBatcher"],
    "client": ["ServeClient", "ServeClientError"],
    "engine": ["InlineEngine", "ProcessEngine", "SharedModelWeights", "WorkerDiedError"],
    "loadgen": ["LoadgenResult", "TrafficShape", "arrival_times", "bench_artifact",
                "bench_engine", "bench_http", "run_closed_loop"],
    "server": ["ModelServer"],
})
