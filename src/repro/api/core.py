"""Request handling for the alignment API.

The stdlib HTTP server (:mod:`repro.api.http`) routes every request into the
handlers here, which in turn route into the one shared
:meth:`~repro.serve.service.AlignmentService.query` entry point.  The server
only moves bytes; validation, artifact resolution and stats all happen once,
in one place, so an HTTP response is byte-for-byte what an in-process
:func:`dispatch` call returns.

Endpoints (all JSON)::

    GET  /health                    liveness + engine/schema versions
    GET  /artifacts                 store listing from the manifests (filters:
                                    dataset, method, dtype, name, kind,
                                    content_hash, config_hash; pagination:
                                    limit, offset; stable newest-first order)
    GET  /artifacts/<artifact_id>   one artifact: manifest record + hosted info
    GET  /stats                     service counters snapshot
    GET  /metrics                   Prometheus text exposition (?format=json
                                    for the JSON snapshot)
    POST /match                     batched argmax        {artifact_id, nodes}
    POST /top_k                     batched top-k         {artifact_id, nodes, k}
    POST /reverse                   reverse match / top-k {artifact_id, nodes[, k]}
    POST /query                     generic op            {artifact_id, op, nodes[, k]}

Errors are structured 4xx bodies (:class:`~repro.api.models.ApiError`):
``{"error": {"code", "message", "detail"}, "schema_version", ...}``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.api.models import (
    ApiBadRequestError,
    ApiError,
    ApiNotFoundError,
    ApiValidationError,
    artifact_list_payload,
    health_payload,
    parse_query_request,
    response_payload,
)
from repro.serve.artifacts import (
    FILTER_FIELDS,
    ArtifactIntegrityError,
    ArtifactNotFoundError,
    ArtifactSchemaError,
    artifact_record,
    find_artifacts,
    list_artifacts,
)
from repro.obs.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    json_snapshot,
    prometheus_text,
)
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.serve.service import AlignmentService


@dataclass
class RawResponse:
    """A non-JSON response body (the ``/metrics`` exposition page).

    The HTTP server sends ``text`` verbatim with ``content_type``, so the
    page over a socket is byte-identical to the in-process one.
    """

    text: str
    content_type: str = PROMETHEUS_CONTENT_TYPE

    def encode(self) -> bytes:
        return self.text.encode("utf-8")


@dataclass
class ApiState:
    """Everything one API deployment serves from.

    Parameters
    ----------
    service:
        The hosting query service (created empty when omitted).
    root:
        Artifact store root.  When set, ``/artifacts`` answers from the
        manifests under it and queries for artifacts that are not hosted
        yet are resolved by loading them from the store on first use
        (``auto_load``).
    auto_load:
        Lazily load store artifacts the first time they are queried.
    metrics:
        Registry receiving the API-layer request series.  Defaults to the
        process-global registry so ``/metrics`` also exposes whatever else
        the process recorded (spans, orbit-cache counters); tests pass a private
        registry for isolation.
    """

    service: AlignmentService = field(default_factory=AlignmentService)
    root: Optional[Path] = None
    auto_load: bool = True
    metrics: MetricsRegistry = field(default_factory=default_registry)

    def __post_init__(self) -> None:
        if self.root is not None:
            self.root = Path(self.root)

    def preload(self) -> int:
        """Host every artifact currently in the store; returns the count."""
        if self.root is None:
            return 0
        loaded = 0
        for manifest in list_artifacts(self.root):
            self.service.load(self.root, str(manifest["artifact_id"]))
            loaded += 1
        return loaded


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------
def handle_health(state: ApiState) -> Dict[str, object]:
    return health_payload(state.service.artifact_ids())


def handle_stats(state: ApiState) -> Dict[str, object]:
    return state.service.stats()


def _metrics_registries(state: ApiState) -> Tuple[MetricsRegistry, ...]:
    """The registries one scrape of ``state`` exposes (deduplicated)."""
    registries = [state.metrics]
    if state.service.metrics is not state.metrics:
        registries.append(state.service.metrics)
    return tuple(registries)


def handle_metrics(
    state: ApiState, params: Optional[Mapping[str, str]] = None
) -> Union[RawResponse, Dict[str, object]]:
    """``GET /metrics``: Prometheus text (default) or ``?format=json``.

    Exposes the API request series plus the service's per-op registry in
    one page.  The scrape itself is deliberately *not* counted in
    ``api_requests_total`` so back-to-back scrapes are identical — the
    socket == in-process parity guarantee extends to this endpoint.
    """
    fmt = (params or {}).get("format", "prometheus")
    if fmt == "json":
        return json_snapshot(*_metrics_registries(state))
    if fmt != "prometheus":
        raise ApiBadRequestError(
            f"unknown metrics format {fmt!r}; expected prometheus or json"
        )
    return RawResponse(prometheus_text(*_metrics_registries(state)))


def _parse_page_param(
    params: Dict[str, str], name: str, errors: list
) -> Optional[int]:
    """Pop and validate one non-negative integer pagination param."""
    raw = params.pop(name, None)
    if raw is None:
        return None
    try:
        value = int(raw)
    except (TypeError, ValueError):
        errors.append(
            {"loc": [name], "msg": f"must be a non-negative integer, got {raw!r}"}
        )
        return None
    if value < 0:
        errors.append({"loc": [name], "msg": f"must be >= 0, got {value}"})
        return None
    return value


def handle_artifacts(
    state: ApiState, params: Optional[Mapping[str, str]] = None
) -> Dict[str, object]:
    """Artifact listing, read from the store's manifests on every call.

    Pagination: ``limit``/``offset`` over the stable
    ``(created_unix DESC, artifact_id ASC)`` ordering, with ``total``
    counting every match regardless of the page.  Bad filter or pagination
    params are a 422 with structured ``[{loc, msg}]`` detail entries (same
    error shape as the query-payload validator).
    """
    params = dict(params or {})
    errors: list = []
    limit = _parse_page_param(params, "limit", errors)
    offset = _parse_page_param(params, "offset", errors)
    for name in sorted(set(params) - set(FILTER_FIELDS)):
        errors.append(
            {
                "loc": [name],
                "msg": f"unknown filter; expected any of {list(FILTER_FIELDS)}",
            }
        )
    if errors:
        raise ApiValidationError(
            "; ".join(
                f"{'.'.join(map(str, e['loc']))}: {e['msg']}" for e in errors
            ),
            detail=errors,
        )
    if state.root is not None:
        records = find_artifacts(state.root, **params)
        source = "store"
    elif params:
        raise ApiBadRequestError(
            "filters require an artifact store (the service was started "
            "without --artifact-root)"
        )
    else:
        # No store root: describe what is hosted in memory.
        records = [
            state.service.describe(artifact_id)
            for artifact_id in state.service.artifact_ids()
        ]
        source = "hosted"
    start = offset or 0
    stop = None if limit is None else start + limit
    return artifact_list_payload(
        records[start:stop],
        source=source,
        total=len(records),
        limit=limit,
        offset=offset,
    )


def handle_artifact_get(state: ApiState, artifact_id: str) -> Dict[str, object]:
    """One artifact: its manifest record plus hosted-index details (if any).

    The record is read from ``<root>/<artifact_id>/manifest.json`` alone; an
    id the listing would not show (no such directory, an unreadable
    manifest, or an id that leaves the root) has no record.
    """
    record = None
    if state.root is not None:
        try:
            record = artifact_record(state.root, artifact_id)
        except (ArtifactNotFoundError, ArtifactIntegrityError, ArtifactSchemaError):
            pass  # not listed, so unknown unless hosted
    hosted = artifact_id in state.service.artifact_ids()
    if record is None and not hosted:
        raise ApiNotFoundError(f"unknown artifact {artifact_id!r}")
    payload: Dict[str, object] = {"hosted": hosted}
    if record is not None:
        payload.update(record)
    if hosted:
        payload.update(state.service.describe(artifact_id))
    return payload


def _ensure_hosted(state: ApiState, artifact_id: str) -> None:
    """Auto-load a store artifact on first query (idempotent, races benign)."""
    if not state.auto_load or state.root is None:
        return
    if artifact_id in state.service.artifact_ids():
        return
    try:
        state.service.load(state.root, artifact_id)
    except ArtifactNotFoundError:
        pass  # the query below reports the standard unknown-artifact 404
    except (ArtifactSchemaError, ArtifactIntegrityError) as error:
        raise ApiBadRequestError(
            f"artifact {artifact_id!r} exists but cannot be served: {error}"
        )


def handle_query(
    state: ApiState,
    payload: Mapping,
    *,
    force_op: Optional[str] = None,
) -> Dict[str, object]:
    """Validate, route through ``service.query`` and render the wire body.

    ``force_op`` pins the op for the ``/match``-style routes.  The
    ``/reverse`` route passes ``force_op="reverse_match"`` or
    ``"reverse_top_k"`` depending on whether the payload carries ``k``.
    """
    request = parse_query_request(payload, force_op=force_op)
    _ensure_hosted(state, request.artifact_id)
    try:
        response = state.service.query(request)
    except KeyError:
        raise ApiNotFoundError(
            f"unknown artifact {request.artifact_id!r}; "
            f"hosted: {state.service.artifact_ids()}"
        )
    except (IndexError, ValueError) as error:
        raise ApiBadRequestError(str(error))
    return response_payload(response)


def _reverse_force_op(payload: Mapping) -> str:
    return "reverse_top_k" if isinstance(payload, Mapping) and (
        payload.get("k") is not None
    ) else "reverse_match"


#: POST routes and the op they pin (None = op comes from the body).
POST_ROUTES = {
    "/match": "match",
    "/top_k": "top_k",
    "/reverse": None,  # resolved by _reverse_force_op
    "/query": None,
}


def _endpoint_label(method: str, path: str) -> str:
    """Bounded-cardinality ``endpoint`` label of one request path."""
    if method == "GET":
        if path in ("/health", "/stats", "/artifacts", "/metrics"):
            return path
        if path.startswith("/artifacts/"):
            return "/artifacts/{id}"
    elif method == "POST" and path in POST_ROUTES:
        return path
    return "other"


def _route(
    state: ApiState,
    method: str,
    path: str,
    params: Optional[Mapping[str, str]],
    body: Optional[Mapping],
) -> Tuple[int, Union[Dict[str, object], RawResponse]]:
    try:
        if method == "GET":
            if path == "/health":
                return 200, handle_health(state)
            if path == "/stats":
                return 200, handle_stats(state)
            if path == "/metrics":
                return 200, handle_metrics(state, params)
            if path == "/artifacts":
                return 200, handle_artifacts(state, params)
            if path.startswith("/artifacts/"):
                artifact_id = path[len("/artifacts/") :]
                if artifact_id and "/" not in artifact_id:
                    return 200, handle_artifact_get(state, artifact_id)
        elif method == "POST":
            if path == "/reverse":
                force_op: Optional[str] = _reverse_force_op(body or {})
            elif path in POST_ROUTES:
                force_op = POST_ROUTES[path]
            else:
                force_op = None
            if path in POST_ROUTES:
                return 200, handle_query(state, body or {}, force_op=force_op)
        raise ApiNotFoundError(f"no route for {method} {path}")
    except ApiError as error:
        return error.status, error.body()


def dispatch(
    state: ApiState,
    method: str,
    path: str,
    params: Optional[Mapping[str, str]] = None,
    body: Optional[Mapping] = None,
) -> Tuple[int, Union[Dict[str, object], RawResponse]]:
    """Route one request; returns ``(status, json_body)`` and never raises.

    This is the whole HTTP surface in one function — the stdlib server
    calls it, and tests can drive it directly without opening a socket.
    Every request except ``/metrics`` scrapes is recorded into the state's
    registry as ``api_requests_total{endpoint,status}`` (status classes:
    2xx/4xx/...) and an ``api_request_seconds{endpoint}`` histogram.
    """
    if method == "GET" and path == "/metrics":
        # Scrapes are served un-instrumented so consecutive scrapes return
        # identical bytes.
        return _route(state, method, path, params, body)
    started = time.perf_counter()
    status, payload = _route(state, method, path, params, body)
    elapsed = time.perf_counter() - started
    endpoint = _endpoint_label(method, path)
    state.metrics.counter(
        "api_requests_total", endpoint=endpoint, status=f"{status // 100}xx"
    ).inc()
    state.metrics.histogram("api_request_seconds", endpoint=endpoint).observe(
        elapsed
    )
    return status, payload


__all__ = [
    "ApiState",
    "POST_ROUTES",
    "RawResponse",
    "dispatch",
    "handle_artifact_get",
    "handle_artifacts",
    "handle_health",
    "handle_metrics",
    "handle_query",
    "handle_stats",
]
