"""Spans recorded from outside the program, plus peak-memory probes.

The benchmark never edits the program: a :class:`Probe` names a public
function or method by import path, and :func:`installed` swaps it for a
wrapper that records a span around every call, then puts the original back.
A probe whose target no longer exists (renamed or deleted) is reported as
absent with the reason, and the run goes on without it.

Spans live in memory (one list per :class:`Tracer`) and are written out
when the run ends.  The tracer keeps one stack, so it is meant for the
single-threaded code paths the benchmark traces.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from measure import self_times

CLEAR_REFS = "/proc/{pid}/clear_refs"
STATUS = "/proc/{pid}/status"


def reset_peak(pid: str = "self") -> bool:
    """Reset the VmHWM high-water mark to the current RSS (Linux only).

    Writing ``5`` to ``clear_refs`` does this; it keeps one measured call's
    peak out of the next.  Returns ``False`` where that is not possible.
    """
    try:
        with open(CLEAR_REFS.format(pid=pid), "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_mb(pid: str = "self") -> Optional[float]:
    """VmHWM of process ``pid`` in MB, or ``None`` if unreadable."""
    try:
        with open(STATUS.format(pid=pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


class Tracer:
    """Collects spans: ``{id, name, start, end, parent, attrs}``."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, memory: bool = False, **attrs: Any) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "attrs": dict(attrs),
        }
        self.spans.append(record)
        self._stack.append(record)
        memory = memory and reset_peak()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            if memory:
                record["attrs"]["peak_mb"] = peak_mb()
            self._stack.pop()

    def named(self, name: str) -> List[dict]:
        return [span for span in self.spans if span["name"] == name]

    def under(self, name: str, ancestor: str) -> List[dict]:
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        by_id = {span["id"]: span for span in self.spans}
        found = []
        for span in self.named(name):
            parent = by_id.get(span["parent"])
            while parent is not None and parent["name"] != ancestor:
                parent = by_id.get(parent["parent"])
            if parent is not None:
                found.append(span)
        return found

    def total(self, name: str, ancestor: Optional[str] = None) -> float:
        spans = self.under(name, ancestor) if ancestor else self.named(name)
        return sum(span["end"] - span["start"] for span in spans)

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def summary(self) -> Dict[str, List[float]]:
        """``{name: [calls, total seconds, self seconds]}`` over all spans."""
        own = self_times(self.spans)
        table: Dict[str, List[float]] = {}
        for span in self.spans:
            row = table.setdefault(span["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span["end"] - span["start"]
            row[2] += own[span["id"]]
        return table


@dataclass(frozen=True)
class Probe:
    """Wrap ``module:attr.path`` so every call records a span ``name``.

    ``annotate(span, args, kwargs, result)`` may add attributes (shapes,
    counts) to the span after the call returns.  ``memory`` resets and
    reads the peak-RSS mark around the call.
    """

    name: str
    target: str
    annotate: Optional[Callable[[dict, tuple, dict, Any], None]] = None
    memory: bool = False


def _resolve(target: str):
    module_name, _, attr_path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _wrap(tracer: Tracer, probe: Probe, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(probe.name, memory=probe.memory) as record:
            result = original(*args, **kwargs)
            if probe.annotate is not None:
                probe.annotate(record, args, kwargs, result)
            return result

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, probes: Sequence[Probe]) -> Iterator[Dict[str, str]]:
    """Install ``probes`` for the duration; yields ``{probe name: why absent}``."""
    absent: Dict[str, str] = {}
    restore = []
    try:
        for probe in probes:
            try:
                owner, attr, original = _resolve(probe.target)
            except (ImportError, AttributeError) as error:
                absent[probe.name] = f"{probe.target} not found ({error})"
                continue
            # Look the attribute up in the owner's own dict so a method
            # inherited from a base class is restored by deletion, not by
            # pinning the base's function onto the subclass.
            had_own = attr in getattr(owner, "__dict__", {})
            setattr(owner, attr, _wrap(tracer, probe, original))
            restore.append((owner, attr, original, had_own))
        yield absent
    finally:
        for owner, attr, original, had_own in reversed(restore):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
