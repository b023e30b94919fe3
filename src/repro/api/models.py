"""Typed request/response models of the alignment query surface.

One schema for every caller.  The HTTP endpoints (:mod:`repro.api.http`),
the CLI ``query`` command and direct in-process callers all speak the
payload shapes defined here, and every wire payload goes through the *same*
validator (:func:`parse_query_request`) — so a request that is invalid over
HTTP is invalid everywhere, with the same structured error body.

Every response carries ``schema_version`` (this payload schema),
``engine_version`` (the serving :mod:`repro` build), ``artifact_id`` and
``score_dtype``, so clients can pin what they are talking to.

The models are plain dataclasses.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro import __version__ as ENGINE_VERSION

#: Version of the request/response payload schema (bump on breaking change).
#: 1.1: ``/stats`` grew the ``latency`` histogram-summary key and the
#: ``/metrics`` exposition endpoint appeared (additive, same major).
#: 1.2: the backend-listing endpoint appeared; ``/artifacts`` gained
#: ``limit``/``offset`` pagination with a ``total`` count and stable ordering;
#: query responses and ``/stats`` gained ``orbit_backend`` provenance
#: (additive, same major).
#: 2.0: ``/stats`` lost its query-cache fields and ``latency.<op>.stages``.
#: 3.0: the backend-listing endpoint was removed (its path now returns the
#: structured 404).
#: 4.0: ``/artifacts`` lists the manifests on disk, so its ``source`` is
#: ``"store"`` (was ``"catalog"``), and ``/artifacts/<id>`` of a removed
#: artifact directory is a 404 unless the artifact is hosted.
#: 5.0: query responses, ``/stats`` and ``/artifacts/<id>`` lost the
#: ``orbit_backend`` provenance key (there is one orbit counter).
API_SCHEMA_VERSION = "5.0"

#: Query operations, mirroring :class:`~repro.serve.service.AlignmentService`.
QUERY_OPS = ("match", "top_k", "reverse_match", "reverse_top_k")

#: Ops that require (and are the only ones that accept) a ``k``.
TOP_K_OPS = ("top_k", "reverse_top_k")

_REQUEST_FIELDS = ("artifact_id", "op", "nodes", "k")


# ----------------------------------------------------------------------
# structured errors (the HTTP layer maps them to status codes)
# ----------------------------------------------------------------------
class ApiError(Exception):
    """A request failure with a structured, versioned JSON body."""

    status = 400
    code = "bad_request"

    def __init__(self, message: str, detail: Optional[List[Dict[str, object]]] = None):
        super().__init__(message)
        self.message = message
        self.detail = list(detail or [])

    def body(self) -> Dict[str, object]:
        """The JSON error body of a failed request."""
        return {
            "schema_version": API_SCHEMA_VERSION,
            "engine_version": ENGINE_VERSION,
            "error": {
                "code": self.code,
                "message": self.message,
                "detail": self.detail,
            },
        }


class ApiValidationError(ApiError):
    """The request payload does not match the schema (HTTP 422)."""

    status = 422
    code = "validation_error"


class ApiBadRequestError(ApiError):
    """A well-formed request that cannot be answered (HTTP 400)."""

    status = 400
    code = "bad_request"


class ApiNotFoundError(ApiError):
    """The requested artifact/route does not exist (HTTP 404)."""

    status = 404
    code = "not_found"


# ----------------------------------------------------------------------
# model classes
# ----------------------------------------------------------------------
@dataclasses.dataclass
class QueryRequest:
    """One batched query against one hosted artifact."""

    artifact_id: str
    op: str
    #: Node ids — a list on the wire; in-process callers may pass the
    #: ndarray straight through (validated by :func:`parse_query_request`
    #: for wire payloads, trusted for direct construction).
    nodes: Any
    k: Optional[int] = None


@dataclasses.dataclass
class QueryResponse:
    """The versioned answer to one :class:`QueryRequest`."""

    schema_version: str
    engine_version: str
    artifact_id: str
    op: str
    k: Optional[int]
    score_dtype: str
    n_nodes: int
    #: ``np.ndarray`` internally; :func:`response_payload` serialises.
    results: Any


def make_query_request(
    artifact_id: str, op: str, nodes: Any, k: Optional[int] = None
) -> QueryRequest:
    """Trusted constructor for in-process callers (no re-validation)."""
    return QueryRequest(artifact_id, op, nodes, k)


def make_query_response(
    request: QueryRequest,
    results: np.ndarray,
    score_dtype: str,
) -> QueryResponse:
    """Build the response for a served request (results stay an ndarray)."""
    return QueryResponse(
        schema_version=API_SCHEMA_VERSION,
        engine_version=ENGINE_VERSION,
        artifact_id=request.artifact_id,
        op=request.op,
        k=request.k if request.op in TOP_K_OPS else None,
        score_dtype=score_dtype,
        n_nodes=(
            int(results.shape[0])
            if isinstance(results, np.ndarray)
            else len(results)
        ),
        results=results,
    )


# ----------------------------------------------------------------------
# the one wire validator
# ----------------------------------------------------------------------
def _fail(errors: List[Dict[str, object]]) -> None:
    raise ApiValidationError(
        "; ".join(f"{'.'.join(map(str, e['loc']))}: {e['msg']}" for e in errors),
        detail=errors,
    )


def parse_query_request(
    payload: Mapping, *, force_op: Optional[str] = None
) -> QueryRequest:
    """Validate one wire payload into a :class:`QueryRequest`.

    This is the single validation path shared by every caller.  Raises
    :class:`ApiValidationError` carrying ``[{loc, msg}, ...]`` entries on any
    schema violation: missing/unknown fields, a wrong-typed ``artifact_id``,
    an unknown ``op``, node ids that are not a flat integer sequence (floats,
    bools and strings are all "wrong dtype"), or a missing/invalid ``k`` for
    the top-k operations (``k`` on a non-top-k op is rejected too).

    ``force_op`` pins the operation (the ``/match``-style routes); a
    conflicting ``op`` field in the payload is then rejected.
    """
    if not isinstance(payload, Mapping):
        _fail([{"loc": [], "msg": "request body must be a JSON object"}])
    errors: List[Dict[str, object]] = []

    unknown = sorted(set(payload) - set(_REQUEST_FIELDS))
    for name in unknown:
        errors.append({"loc": [name], "msg": "unknown field"})

    artifact_id = payload.get("artifact_id")
    if not isinstance(artifact_id, str) or not artifact_id:
        errors.append(
            {"loc": ["artifact_id"], "msg": "a non-empty string is required"}
        )

    op = payload.get("op", force_op)
    if force_op is not None and payload.get("op") not in (None, force_op):
        errors.append(
            {"loc": ["op"], "msg": f"this endpoint only serves op={force_op!r}"}
        )
        op = force_op
    if op not in QUERY_OPS:
        errors.append(
            {"loc": ["op"], "msg": f"op must be one of {list(QUERY_OPS)}, got {op!r}"}
        )

    nodes = payload.get("nodes")
    node_array: Optional[np.ndarray] = None
    if isinstance(nodes, np.ndarray):
        node_array = nodes
    elif isinstance(nodes, (list, tuple)):
        node_array = np.asarray(nodes)
    else:
        errors.append({"loc": ["nodes"], "msg": "a list of node ids is required"})
    if node_array is not None:
        if node_array.ndim != 1:
            errors.append({"loc": ["nodes"], "msg": "node ids must be a flat list"})
            node_array = None
        elif node_array.size == 0:
            node_array = np.empty(0, dtype=np.intp)
        elif node_array.dtype.kind not in "iu":
            errors.append(
                {
                    "loc": ["nodes"],
                    "msg": "node ids must be integers, got "
                    f"dtype {node_array.dtype}",
                }
            )
            node_array = None
        else:
            node_array = node_array.astype(np.intp, copy=False)

    k = payload.get("k")
    if op in TOP_K_OPS:
        if isinstance(k, bool) or not isinstance(k, int):
            errors.append(
                {"loc": ["k"], "msg": f"op {op!r} requires an integer k"}
            )
        elif k < 1:
            errors.append({"loc": ["k"], "msg": f"k must be >= 1, got {k}"})
    elif k is not None:
        errors.append(
            {"loc": ["k"], "msg": f"k is only valid for ops {list(TOP_K_OPS)}"}
        )

    if errors:
        _fail(errors)
    return make_query_request(
        str(artifact_id), str(op), node_array, int(k) if k is not None else None
    )


# ----------------------------------------------------------------------
# payload rendering
# ----------------------------------------------------------------------
def response_payload(response: QueryResponse) -> Dict[str, object]:
    """The JSON-safe wire dict of a :class:`QueryResponse`.

    ``results`` is rendered as plain ints — a flat list for ``match`` /
    ``reverse_match``, one row per queried node for the top-k ops — so an
    HTTP client reading this payload sees values bit-identical to what a
    direct :class:`~repro.serve.service.AlignmentService` call returns.
    """
    results = response.results
    if isinstance(results, np.ndarray):
        results = results.tolist()
    return {
        "schema_version": response.schema_version,
        "engine_version": response.engine_version,
        "artifact_id": response.artifact_id,
        "op": response.op,
        "k": response.k,
        "score_dtype": response.score_dtype,
        "n_nodes": response.n_nodes,
        "results": results,
    }


def health_payload(artifact_ids: List[str]) -> Dict[str, object]:
    """The ``GET /health`` body."""
    return {
        "status": "ok",
        "schema_version": API_SCHEMA_VERSION,
        "engine_version": ENGINE_VERSION,
        "n_artifacts": len(artifact_ids),
        "artifacts": list(artifact_ids),
    }


def artifact_list_payload(
    records: List[Dict[str, object]],
    source: str,
    *,
    total: Optional[int] = None,
    limit: Optional[int] = None,
    offset: Optional[int] = None,
) -> Dict[str, object]:
    """The ``GET /artifacts`` body (``source``: ``"store"`` or ``"hosted"``).

    ``records`` is the returned page; ``total`` counts every record matching
    the filters regardless of pagination (defaults to the page length, which
    is only correct when no pagination was requested).  The echoed ``limit``
    and ``offset`` let clients page statelessly.
    """
    return {
        "schema_version": API_SCHEMA_VERSION,
        "engine_version": ENGINE_VERSION,
        "source": source,
        "total": len(records) if total is None else int(total),
        "limit": limit,
        "offset": offset,
        "n_artifacts": len(records),
        "artifacts": records,
    }


__all__ = [
    "API_SCHEMA_VERSION",
    "ENGINE_VERSION",
    "QUERY_OPS",
    "TOP_K_OPS",
    "ApiError",
    "ApiValidationError",
    "ApiBadRequestError",
    "ApiNotFoundError",
    "QueryRequest",
    "QueryResponse",
    "make_query_request",
    "make_query_response",
    "parse_query_request",
    "response_payload",
    "health_payload",
    "artifact_list_payload",
]
