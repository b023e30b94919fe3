"""Thread-safe, multi-artifact alignment query service.

:class:`AlignmentService` hosts any number of loaded artifacts (keyed by
artifact id) and answers batched ``match`` / ``top_k`` / ``reverse_match``
queries from their sparse indexes — ``O(k)`` per query, no dense matrix in
memory — and per-op query/latency series expose the service's health.

Every query — the in-process convenience methods, the CLI ``query`` command
and the HTTP endpoints (:mod:`repro.api`) — routes through one shared entry
point, :meth:`AlignmentService.query`, which takes a typed
:class:`~repro.api.models.QueryRequest` and returns a versioned
:class:`~repro.api.models.QueryResponse`.  One validation path, one stats
path: the legacy per-op methods are thin wrappers that unwrap the response
array, so their answers are bit-identical to what an HTTP client receives.

All public methods are safe to call from many threads: the registry of
hosted artifacts is guarded by one lock, the index arrays themselves are
immutable and read without locking, and the stats live in a per-service
:class:`~repro.obs.metrics.MetricsRegistry` whose metrics carry their own
locks — recording a query never serializes against query execution.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from repro.api.models import (
    API_SCHEMA_VERSION,
    ENGINE_VERSION,
    QUERY_OPS,
    TOP_K_OPS,
    QueryRequest,
    QueryResponse,
    make_query_request,
    make_query_response,
    parse_query_request,
)
from repro.serve.artifacts import (
    SCHEMA_VERSION,
    Artifact,
    ArtifactSchemaError,
    load_artifact,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.index import SparseTopKIndex


class _OpMetrics:
    """The metric handles of one op, resolved once and then lock-free."""

    __slots__ = ("queries", "batches", "batch_seconds")

    def __init__(self, registry: MetricsRegistry, op: str) -> None:
        self.queries = registry.counter("serve_queries_total", op=op)
        self.batches = registry.counter("serve_batches_total", op=op)
        self.batch_seconds = registry.histogram("serve_batch_seconds", op=op)


def check_runtime_schema(manifest: Mapping) -> None:
    """Runtime-mode guard: refuse artifacts this engine cannot serve.

    Raises :class:`~repro.serve.artifacts.ArtifactSchemaError` naming both
    the artifact's manifest schema version and the engine's supported one,
    so a mixed-version fleet fails loudly at load time instead of serving
    silently wrong payloads.
    """
    version = manifest.get("schema_version")
    if not isinstance(version, (list, tuple)) or not version:
        raise ArtifactSchemaError(
            f"artifact {manifest.get('artifact_id', '?')!r} has a malformed "
            f"manifest schema_version ({version!r}); this engine "
            f"(repro {ENGINE_VERSION}) serves schema {SCHEMA_VERSION}"
        )
    if int(version[0]) > SCHEMA_VERSION[0]:
        raise ArtifactSchemaError(
            f"artifact {manifest.get('artifact_id', '?')!r} was written by "
            f"manifest schema {list(version)}, which this engine "
            f"(repro {ENGINE_VERSION}, supports schema <= {SCHEMA_VERSION}) "
            "cannot serve; upgrade repro or re-export the artifact"
        )


class AlignmentService:
    """Serves matching queries for one or more persisted alignments.

    Examples
    --------
    >>> service = AlignmentService()
    >>> aid = service.load("artifacts", "douban-ab12cd34ef56")  # doctest: +SKIP
    >>> service.match(aid, [0, 1, 2])                           # doctest: +SKIP
    array([17, 4, 9])
    """

    def __init__(self) -> None:
        self._indexes: Dict[str, SparseTopKIndex] = {}
        self._artifacts: Dict[str, Artifact] = {}
        #: str(index.score_dtype) per artifact — numpy dtype stringification
        #: is measurable on the per-call hot path, so it happens once here.
        self._score_dtypes: Dict[str, str] = {}
        self._lock = threading.RLock()
        #: Per-service metrics.  Every metric carries its own lock, so the
        #: service-wide ``_lock`` (which guards index access) is never
        #: taken to record stats; ``_stats_lock`` only guards creation of
        #: the per-op handle bundles.
        self.metrics = MetricsRegistry("serve")
        self._stats_lock = threading.Lock()
        self._op_metrics: Dict[str, _OpMetrics] = {}

    # ------------------------------------------------------------------
    # artifact hosting
    # ------------------------------------------------------------------
    def load(
        self,
        root: Union[str, Path],
        artifact_id: str,
        *,
        mode: str = "serve",
        verify: bool = True,
    ) -> str:
        """Load an artifact from a store and host it; returns its id."""
        artifact = load_artifact(root, artifact_id, mode=mode, verify=verify)
        return self.add(artifact)

    def add(self, artifact: Artifact) -> str:
        """Host an already-loaded artifact (replaces a same-id artifact).

        The runtime-mode guard runs here (the choke point of every hosting
        path): an artifact whose manifest schema this engine does not
        support is refused with an error naming both versions.
        """
        check_runtime_schema(artifact.manifest)
        with self._lock:
            self._artifacts[artifact.artifact_id] = artifact
            self._indexes[artifact.artifact_id] = artifact.index
            self._score_dtypes[artifact.artifact_id] = str(
                artifact.index.score_dtype
            )
        return artifact.artifact_id

    def add_index(self, artifact_id: str, index: SparseTopKIndex) -> str:
        """Host a bare index under ``artifact_id`` (no manifest attached)."""
        with self._lock:
            self._artifacts.pop(artifact_id, None)
            self._indexes[artifact_id] = index
            self._score_dtypes[artifact_id] = str(index.score_dtype)
        return artifact_id

    def unload(self, artifact_id: str) -> None:
        """Stop hosting an artifact."""
        with self._lock:
            self._indexes.pop(artifact_id, None)
            self._artifacts.pop(artifact_id, None)
            self._score_dtypes.pop(artifact_id, None)

    def artifact_ids(self) -> List[str]:
        """Ids currently hosted, sorted."""
        with self._lock:
            return sorted(self._indexes)

    def describe(self, artifact_id: str) -> Dict[str, object]:
        """Shape/index/manifest summary of one hosted artifact."""
        with self._lock:
            index = self._get_index(artifact_id)
            artifact = self._artifacts.get(artifact_id)
        info: Dict[str, object] = {
            "artifact_id": artifact_id,
            "schema_version": API_SCHEMA_VERSION,
            "engine_version": ENGINE_VERSION,
            "score_dtype": str(index.score_dtype),
            "shape": [int(index.shape[0]), int(index.shape[1])],
            "index_k": int(index.k),
            "reverse_k": int(index.reverse_k),
            "index_bytes": index.nbytes,
            "dense_bytes": index.dense_nbytes,
            "compression_ratio": round(index.compression_ratio, 2),
        }
        if artifact is not None:
            info["metadata"] = dict(artifact.metadata)
            info["name"] = artifact.manifest.get("name")
            info["artifact_schema_version"] = artifact.manifest.get(
                "schema_version"
            )
        return info

    def _get_index(self, artifact_id: str) -> SparseTopKIndex:
        try:
            return self._indexes[artifact_id]
        except KeyError:
            raise KeyError(
                f"artifact {artifact_id!r} is not hosted; "
                f"loaded: {sorted(self._indexes)}"
            ) from None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self, request: Union[QueryRequest, Mapping]
    ) -> QueryResponse:
        """Answer one typed request — the single shared query entry point.

        Accepts a :class:`~repro.api.models.QueryRequest` (trusted,
        in-process construction) or a raw mapping, which is put through the
        same wire validator the HTTP layer uses
        (:func:`~repro.api.models.parse_query_request`).  Semantic failures
        keep their long-standing exception types so existing callers are
        unchanged: unknown artifact → ``KeyError``, node ids out of range →
        ``IndexError``, non-integer node ids (floats, bools) and bad
        ``op``/``k`` → ``ValueError``.  The response's
        ``results`` stays an ndarray (bit-identical to the wrapper methods);
        :func:`~repro.api.models.response_payload` renders the wire dict.
        """
        if isinstance(request, Mapping):
            request = parse_query_request(request)
        op = request.op
        if op not in QUERY_OPS:
            raise ValueError(f"unknown op {op!r}; expected one of {QUERY_OPS}")
        k: Optional[int] = None
        if op in TOP_K_OPS:
            if request.k is None:
                raise ValueError(f"op {op!r} requires k")
            k = int(request.k)
        answers = self._query(request.artifact_id, op, request.nodes, k)
        # _query just resolved the index; a plain dict read (GIL-atomic) is
        # enough for the dtype tag even if a concurrent unload races us.
        score_dtype = self._score_dtypes.get(request.artifact_id, "unknown")
        return make_query_response(request, answers, score_dtype)

    def match(self, artifact_id: str, source_nodes) -> np.ndarray:
        """Best target per source node (batched argmax)."""
        return self.query(
            make_query_request(artifact_id, "match", source_nodes)
        ).results

    def top_k(self, artifact_id: str, source_nodes, k: int) -> np.ndarray:
        """Top-``k`` targets per source node, best first."""
        return self.query(
            make_query_request(artifact_id, "top_k", source_nodes, int(k))
        ).results

    def reverse_match(self, artifact_id: str, target_nodes) -> np.ndarray:
        """Best source per target node (argmax over columns)."""
        return self.query(
            make_query_request(artifact_id, "reverse_match", target_nodes)
        ).results

    def reverse_top_k(self, artifact_id: str, target_nodes, k: int) -> np.ndarray:
        """Top-``k`` sources per target node, best first."""
        return self.query(
            make_query_request(artifact_id, "reverse_top_k", target_nodes, int(k))
        ).results

    def _run_op(
        self, index: SparseTopKIndex, op: str, nodes, k: Optional[int]
    ) -> np.ndarray:
        if op == "match":
            return index.match(nodes)
        if op == "top_k":
            return index.top_k(nodes, k)
        if op == "reverse_match":
            return index.reverse_match(nodes)
        if op == "reverse_top_k":
            return index.reverse_top_k(nodes, k)
        raise ValueError(f"unknown op {op!r}")  # pragma: no cover

    def _query(
        self, artifact_id: str, op: str, nodes, k: Optional[int]
    ) -> np.ndarray:
        started = time.perf_counter()
        with self._lock:
            index = self._get_index(artifact_id)
        # The index validates the ids (integers only, in range).
        answers = self._run_op(index, op, nodes, k)
        self._note(op, answers.shape[0], started)
        return answers

    def _op_handles(self, op: str) -> _OpMetrics:
        handles = self._op_metrics.get(op)  # GIL-atomic read, no lock
        if handles is None:
            with self._stats_lock:
                handles = self._op_metrics.get(op)
                if handles is None:
                    handles = _OpMetrics(self.metrics, op)
                    self._op_metrics[op] = handles
        return handles

    def _note(self, op: str, n_nodes: int, started: float) -> None:
        """Record one answered batch.  Never takes the service-wide lock."""
        handles = self._op_handles(op)
        handles.queries.inc(n_nodes)
        handles.batches.inc()
        handles.batch_seconds.observe(time.perf_counter() - started)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Counters snapshot: queries, latency, hosted artifacts.

        The flat keys (``queries``, ``total_latency_s``, ``per_op``, ...) are
        derived from the per-op metric series, and ``latency`` holds each
        op's batch histogram summary (count/sum/min/max and p50/p95/p99
        upper bounds).
        """
        with self._lock:
            hosted = sorted(self._indexes)
        with self._stats_lock:
            op_handles = dict(self._op_metrics)
        queries = 0
        batches = 0
        total_latency = 0.0
        per_op: Dict[str, int] = {}
        latency: Dict[str, object] = {}
        for op in sorted(op_handles):
            handles = op_handles[op]
            op_queries = int(handles.queries.value)
            if op_queries == 0 and handles.batches.value == 0:
                continue  # reset since last use; hide the zeroed series
            queries += op_queries
            batches += int(handles.batches.value)
            total_latency += handles.batch_seconds.sum
            per_op[op] = op_queries
            latency[op] = {"batch": handles.batch_seconds.summary()}
        return {
            "schema_version": API_SCHEMA_VERSION,
            "engine_version": ENGINE_VERSION,
            "artifacts": hosted,
            "queries": queries,
            "batches": batches,
            "total_latency_s": total_latency,
            "avg_batch_latency_ms": (
                1000.0 * total_latency / batches if batches else 0.0
            ),
            "queries_per_second": (
                queries / total_latency if total_latency > 0 else 0.0
            ),
            "per_op": per_op,
            "latency": latency,
        }

    def reset_stats(self) -> None:
        """Zero every stats series — counters, histograms and recorded
        spans alike (hosted artifacts are kept)."""
        self.metrics.reset()

    def __repr__(self) -> str:
        with self._lock:
            hosted = len(self._indexes)
        return f"AlignmentService(artifacts={hosted})"


__all__ = ["AlignmentService", "check_runtime_schema"]
