"""Network-facing alignment API: one typed query surface, one transport.

This package makes the :mod:`repro.serve` stack reachable over the network
without changing what a query *means* anywhere:

* :mod:`repro.api.models` — versioned request/response dataclasses and the
  single wire validator,
* :mod:`repro.api.core` — routing into the one shared
  :meth:`~repro.serve.service.AlignmentService.query` entry point, plus the
  ``/artifacts`` listing read from the store's manifests,
* :mod:`repro.api.http` — a dependency-free threaded server built on the
  standard library's :mod:`http.server`.

The CLI front door is ``repro.cli serve``; in-process callers can skip HTTP
entirely and call ``AlignmentService.query`` with the same typed models.

Only :mod:`repro.api.models` is imported eagerly — the transport modules
load on first attribute access (PEP 562), which keeps
``repro.serve.service`` → ``repro.api.models`` free of an import cycle.
"""

import importlib

from repro.api.models import (
    API_SCHEMA_VERSION,
    ApiBadRequestError,
    ApiError,
    ApiNotFoundError,
    ApiValidationError,
    QueryRequest,
    QueryResponse,
    make_query_request,
    parse_query_request,
    response_payload,
)

#: Lazily resolved exports → the submodule that defines them.
_LAZY = {
    "ApiState": "repro.api.core",
    "RawResponse": "repro.api.core",
    "dispatch": "repro.api.core",
    "ApiHTTPServer": "repro.api.http",
    "BackgroundServer": "repro.api.http",
    "make_server": "repro.api.http",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "API_SCHEMA_VERSION",
    "ApiBadRequestError",
    "ApiError",
    "ApiHTTPServer",
    "ApiNotFoundError",
    "ApiState",
    "ApiValidationError",
    "BackgroundServer",
    "QueryRequest",
    "QueryResponse",
    "RawResponse",
    "dispatch",
    "make_query_request",
    "make_server",
    "parse_query_request",
    "response_payload",
]
