"""Thread-safe named metrics: counters, gauges and mergeable histograms.

The observability core keeps one process-global default registry
(:func:`default_registry`), metric instances created on demand by name +
labels, and everything dependency-free so the off path costs nothing to
import.  Three metric kinds cover the serve/runner/shard hot paths:

* :class:`Counter` — monotone float/int accumulator (``inc``);
* :class:`Gauge` — last-write-wins value (``set`` / ``inc``);
* :class:`Histogram` — **fixed log-spaced buckets** shared by every
  histogram in the process, so histograms recorded in different worker
  processes :meth:`~Histogram.merge` exactly (bucket-count addition, no
  re-binning error).  Quantiles are *exact upper bounds*: ``quantile(0.99)``
  returns the smallest bucket boundary that is guaranteed ≥ the true p99 of
  everything observed.

Every metric carries its own lock, so recording never serializes on a
registry- or service-wide lock; the registry lock is only taken to create
(or look up) an instance — callers on hot paths should keep the returned
instance instead of re-resolving per event.

Snapshots (:meth:`MetricsRegistry.snapshot`) are stable, JSON-safe dicts;
:meth:`MetricsRegistry.merge_snapshot` folds a snapshot from another
process (a runner worker, a shard job) into this registry — the
cross-process aggregation path used by the suite manifest.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

#: Version of the snapshot payload schema (bump on breaking change).
OBS_SCHEMA_VERSION = "1.0"

#: Default histogram bucket upper bounds in seconds: log-spaced, four per
#: decade from 10 µs to 100 s (29 finite buckets + overflow).  One global
#: scheme means every histogram merges exactly across processes.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** (-5.0 + index / 4.0) for index in range(29)
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelItems:
    """Canonical (sorted, stringified) label identity of one series."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotone accumulator; ``inc`` is atomic under the instance lock."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"value": self.value}

    def merge(self, payload: Mapping[str, object]) -> None:
        self.inc(float(payload["value"]))

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """Last-write-wins value (``set``), with ``inc`` for deltas."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"value": self.value}

    def merge(self, payload: Mapping[str, object]) -> None:
        # Merging gauges from workers: keep the extremum-free simple sum —
        # worker gauges are sized quantities (bytes, entries), not levels.
        with self._lock:
            self._value += float(payload["value"])

    def reset(self) -> None:
        self.set(0.0)


class Histogram:
    """Fixed-bucket latency histogram with exact-bound quantiles.

    Parameters
    ----------
    buckets:
        Strictly increasing finite upper bounds; an implicit ``+Inf``
        overflow bucket is always appended.  Defaults to the process-wide
        :data:`DEFAULT_BUCKETS` scheme — keep the default unless the
        histogram measures something other than seconds, because only
        same-bucket histograms can :meth:`merge`.
    """

    kind = "histogram"

    def __init__(self, buckets: Optional[Tuple[float, ...]] = None) -> None:
        bounds = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or not all(math.isfinite(b) for b in bounds):
            raise ValueError(
                "histogram buckets must be strictly increasing finite bounds"
            )
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    # -- reads ----------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Smallest bucket bound guaranteed ≥ the true ``q``-quantile.

        Returns ``nan`` when empty.  Observations in the overflow bucket
        report the histogram's exact observed maximum (the only bound the
        scheme has up there).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return math.nan
            rank = q * self._count
            seen = 0
            for index, bucket_count in enumerate(self._counts):
                seen += bucket_count
                if seen >= rank and bucket_count:
                    if index < len(self.bounds):
                        return self.bounds[index]
                    return self._max
            return self._max

    def summary(self) -> Dict[str, object]:
        """Count/sum/min/max plus the p50/p95/p99 bound estimates."""
        with self._lock:
            count, total = self._count, self._sum
            low = self._min if count else None
            high = self._max if count else None
        return {
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "p50": None if count == 0 else self.quantile(0.50),
            "p95": None if count == 0 else self.quantile(0.95),
            "p99": None if count == 0 else self.quantile(0.99),
        }

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
                "min": None if self._count == 0 else self._min,
                "max": None if self._count == 0 else self._max,
            }

    def merge(self, payload: Mapping[str, object]) -> None:
        """Fold another histogram's snapshot in (same bucket scheme only)."""
        bounds = tuple(float(b) for b in payload["bounds"])
        if bounds != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket schemes "
                f"({len(bounds)} vs {len(self.bounds)} bounds)"
            )
        counts = [int(c) for c in payload["counts"]]
        if len(counts) != len(self._counts):
            raise ValueError("malformed histogram snapshot: count length")
        with self._lock:
            for index, bucket_count in enumerate(counts):
                self._counts[index] += bucket_count
            self._sum += float(payload["sum"])
            self._count += int(payload["count"])
            if payload.get("min") is not None:
                self._min = min(self._min, float(payload["min"]))
            if payload.get("max") is not None:
                self._max = max(self._max, float(payload["max"]))

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0
            self._min = math.inf
            self._max = -math.inf


_METRIC_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named metric series, created on demand, snapshotted as stable JSON.

    A series is identified by ``(name, labels)``; every series of one name
    shares a kind (mixing kinds under one name raises).  Instance creation
    takes the registry lock; recording only takes the per-metric lock, so
    hot paths that cache the returned instance never contend here.
    """

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, LabelItems], object] = {}
        self._kinds: Dict[str, str] = {}

    # -- creation / lookup ---------------------------------------------
    def _get(self, kind: str, name: str, labels: Mapping[str, object], **kwargs):
        if not name:
            raise ValueError("metric name must be non-empty")
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._series.get(key)
            if metric is None:
                registered = self._kinds.get(name)
                if registered is not None and registered != kind:
                    raise ValueError(
                        f"metric {name!r} is already registered as a "
                        f"{registered}, not a {kind}"
                    )
                metric = _METRIC_KINDS[kind](**kwargs)
                self._series[key] = metric
                self._kinds[name] = kind
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{metric.kind}, not a {kind}"
                )
            return metric

    def counter(self, name: str, **labels) -> Counter:
        """The counter series ``name{labels}`` (created on first use)."""
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge series ``name{labels}`` (created on first use)."""
        return self._get("gauge", name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels,
    ) -> Histogram:
        """The histogram series ``name{labels}`` (created on first use)."""
        return self._get("histogram", name, labels, buckets=buckets)

    # -- iteration / reads ---------------------------------------------
    def collect(self) -> Iterator[Tuple[str, LabelItems, object]]:
        """Every series as ``(name, label_items, metric)``, sorted."""
        with self._lock:
            items = sorted(self._series.items())
        for (name, labels), metric in items:
            yield name, labels, metric

    def sum_values(self, name: str) -> float:
        """Sum of a counter/gauge family's values (0.0 when absent)."""
        total = 0.0
        for series_name, _, metric in self.collect():
            if series_name == name and metric.kind in ("counter", "gauge"):
                total += metric.value
        return total

    def family(self, name: str) -> Dict[LabelItems, object]:
        """Every series of one family, keyed by its label identity."""
        return {
            labels: metric
            for series_name, labels, metric in self.collect()
            if series_name == name
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    # -- snapshot / merge / reset --------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Stable JSON-safe dump of every series (sorted, versioned)."""
        metrics: List[Dict[str, object]] = []
        for name, labels, metric in self.collect():
            metrics.append(
                {
                    "name": name,
                    "kind": metric.kind,
                    "labels": dict(labels),
                    **metric.snapshot(),
                }
            )
        return {"schema_version": OBS_SCHEMA_VERSION, "metrics": metrics}

    def merge_snapshot(self, payload: Mapping[str, object]) -> None:
        """Fold a :meth:`snapshot` (possibly from another process) in."""
        version = str(payload.get("schema_version", ""))
        if version.split(".")[0] != OBS_SCHEMA_VERSION.split(".")[0]:
            raise ValueError(
                f"cannot merge an obs snapshot of schema {version!r} into "
                f"schema {OBS_SCHEMA_VERSION}"
            )
        for entry in payload.get("metrics", []):
            kind = str(entry["kind"])
            if kind not in _METRIC_KINDS:
                raise ValueError(f"unknown metric kind {kind!r} in snapshot")
            kwargs = {}
            if kind == "histogram":
                kwargs["buckets"] = tuple(entry["bounds"])
            metric = self._get(
                kind, str(entry["name"]), dict(entry.get("labels", {})), **kwargs
            )
            metric.merge(entry)

    def reset(self) -> None:
        """Zero every series (the series themselves are kept)."""
        for _, _, metric in self.collect():
            metric.reset()

    def __repr__(self) -> str:
        return f"MetricsRegistry({self.name!r}, series={len(self)})"


_DEFAULT_REGISTRY = MetricsRegistry("repro")


def default_registry() -> MetricsRegistry:
    """The process-global registry behind ``/metrics`` and the span API."""
    return _DEFAULT_REGISTRY


__all__ = [
    "OBS_SCHEMA_VERSION",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
]
