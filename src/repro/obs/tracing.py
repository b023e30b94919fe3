"""Wall-time spans: the one stage timer, with opt-in nested tracing.

A span times one named phase of a pipeline::

    stage_times = {}
    with span("stitch", into=stage_times):
        with span("stitch.merge"):
            ...

Given ``into``, a span always adds its body's seconds to ``into[name]``,
accumulating over re-entries and also when the body raises; this is how
``AlignmentResult.stage_times`` (the paper's Fig. 8 breakdown) and
``StitchedAlignment.stage_times`` are measured.

While tracing is on, every exited span also records its duration into a
``span_seconds`` histogram labelled with its *path* — nested spans join
their names with ``/`` (``stitch/stitch.merge`` above) so attribution
survives aggregation — and bumps a ``span_total`` counter.  A span records
into the registry it is given, else into its enclosing span's, else into
the process-global default registry; so everything nested in the runner's
per-job span lands in that job's registry.  Nesting is tracked per thread.

Tracing is **opt-in**, and with tracing off a span without ``into`` is a
no-op: ``span()`` returns a shared singleton context manager that touches
no locks, takes no timestamps and allocates nothing.  Enable tracing
programmatically with :func:`enable_tracing` or by exporting
``REPRO_TRACE=1`` before the process starts (any value other than
``""``/``"0"`` enables).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry, default_registry

#: Environment switch honoured at import time; see :func:`enable_tracing`.
TRACE_ENV_VAR = "REPRO_TRACE"

_enabled = os.environ.get(TRACE_ENV_VAR, "") not in ("", "0")
_stack = threading.local()


def tracing_enabled() -> bool:
    """Whether :func:`span` records anything right now."""
    return _enabled


def enable_tracing(on: bool = True) -> None:
    """Turn span recording on (or off) for the whole process."""
    global _enabled
    _enabled = bool(on)


class _NullSpan:
    """The disabled path: one shared, stateless, no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: adds to ``into`` and, if traced, records its path."""

    __slots__ = ("name", "registry", "into", "path", "_traced", "_started")

    def __init__(
        self,
        name: str,
        registry: Optional[MetricsRegistry],
        into: Optional[Dict[str, float]],
    ) -> None:
        self.name = name
        self.registry = registry
        self.into = into
        self.path = name
        self._traced = False
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._traced = _enabled
        if self._traced:
            stack = _span_stack()
            if stack:
                parent = stack[-1]
                self.path = f"{parent.path}/{self.name}"
                if self.registry is None:
                    self.registry = parent.registry
            elif self.registry is None:
                self.registry = default_registry()
            stack.append(self)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._started
        if self.into is not None:
            self.into[self.name] = self.into.get(self.name, 0.0) + elapsed
        if self._traced:
            stack = _span_stack()
            if stack and stack[-1] is self:
                stack.pop()
            self.registry.histogram("span_seconds", span=self.path).observe(elapsed)
            self.registry.counter("span_total", span=self.path).inc()


def _span_stack() -> List[_Span]:
    stack = getattr(_stack, "spans", None)
    if stack is None:
        stack = _stack.spans = []
    return stack


def span(
    name: str,
    registry: Optional[MetricsRegistry] = None,
    *,
    into: Optional[Dict[str, float]] = None,
):
    """Context manager timing one named phase.

    ``into`` is a dict the span adds its seconds to under ``name``, whether
    or not tracing is on.  ``registry`` is where a traced span records; it
    defaults to the enclosing span's registry, else the default registry.
    Pass a private one (as the runner's per-job span does) to keep a unit
    of work's spans separable for cross-process merging.  With tracing off
    and no ``into`` this returns the shared no-op span.
    """
    if into is None and not _enabled:
        return _NULL_SPAN
    return _Span(name, registry, into)


__all__ = [
    "TRACE_ENV_VAR",
    "enable_tracing",
    "span",
    "tracing_enabled",
]
