"""Persistent alignment artifacts and the high-throughput query service.

Computing an alignment is expensive (orbit counting, multi-orbit training,
fine-tuning); *using* one should not be.  This package turns the in-memory
:class:`~repro.core.result.AlignmentResult` produced by the pipeline into a
servable asset, in three layers:

* :mod:`repro.serve.artifacts` — a versioned, content-hash-addressed on-disk
  store (``arrays.npz`` + ``manifest.json`` per artifact) with per-array
  integrity hashes and forward-compatible loading; its manifests are the
  only record of what it holds, listed afresh by ``find_artifacts``,
* :mod:`repro.serve.index` — a sparse top-``k`` index holding only the best
  ``k`` scores/indices per source row (plus the reverse target→source view),
  ``O(n·k)`` memory instead of ``O(n_s·n_t)`` while answering every
  ``match`` / ``top_k(k' <= k)`` query bit-identically to the dense matrix,
* :mod:`repro.serve.service` — a thread-safe :class:`AlignmentService`
  hosting many artifacts at once, with batched query APIs and per-op
  query/latency counters.

The CLI exposes the stack as ``export-artifact`` / ``query`` /
``serve-stats``, and ``run-suite --emit-artifacts`` makes every suite job
publish its alignment as an artifact.
"""

from repro.serve.artifacts import (
    ArtifactIntegrityError,
    ArtifactNotFoundError,
    ArtifactSchemaError,
    SCHEMA_VERSION,
    export_result,
    list_artifacts,
    load_artifact,
    save_artifact,
    save_index_artifact,
)
from repro.serve.index import (
    SparseTopKIndex,
    build_index,
    build_index_from_embeddings,
)
from repro.serve.service import AlignmentService, check_runtime_schema

__all__ = [
    "SCHEMA_VERSION",
    "check_runtime_schema",
    "ArtifactIntegrityError",
    "ArtifactNotFoundError",
    "ArtifactSchemaError",
    "save_artifact",
    "save_index_artifact",
    "export_result",
    "load_artifact",
    "list_artifacts",
    "SparseTopKIndex",
    "build_index",
    "build_index_from_embeddings",
    "AlignmentService",
]
