"""Render a :class:`~repro.obs.metrics.MetricsRegistry` for scraping.

Two formats, both deterministic (families and series sorted, fixed float
formatting) so the same registry state always renders **byte-identical**
``/metrics`` bodies:

* :func:`prometheus_text` — the Prometheus text exposition format
  (``text/plain; version=0.0.4``): ``# TYPE`` headers, ``_bucket{le=...}``
  cumulative bucket series, ``_sum``/``_count`` per histogram.
* :func:`json_snapshot` — the stable JSON snapshot from
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, for programmatic
  consumers and offline artifacts.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Tuple

from repro.obs.metrics import Histogram, MetricsRegistry

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    name = _NAME_BAD.sub("_", name)
    return f"_{name}" if name[:1].isdigit() else name


def _label_name(name: str) -> str:
    name = _LABEL_BAD.sub("_", name)
    return f"_{name}" if name[:1].isdigit() else name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _format_value(value: float) -> str:
    """Prometheus-style number formatting: integers bare, floats repr'd."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    as_int = int(value)
    return str(as_int) if as_int == value else repr(float(value))


def _render_labels(labels: Iterable[Tuple[str, str]]) -> str:
    parts = [
        f'{_label_name(key)}="{_escape_label_value(value)}"'
        for key, value in labels
    ]
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(*registries: MetricsRegistry) -> str:
    """The Prometheus text exposition of one or more registries.

    Multiple registries render as one page (families merged by name, every
    series kept); the API layer uses this to expose the process-global
    registry alongside the per-service one in a single scrape.
    """
    families: Dict[str, Tuple[str, List[Tuple[Tuple[Tuple[str, str], ...], object]]]] = {}
    for registry in registries:
        for name, labels, metric in registry.collect():
            exp_name = _metric_name(name)
            kind = metric.kind
            if exp_name in families and families[exp_name][0] != kind:
                raise ValueError(
                    f"metric family {exp_name!r} has conflicting kinds across "
                    "registries"
                )
            families.setdefault(exp_name, (kind, []))[1].append((labels, metric))

    lines: List[str] = []
    for exp_name in sorted(families):
        kind, series = families[exp_name]
        lines.append(f"# TYPE {exp_name} {kind}")
        for labels, metric in sorted(series, key=lambda item: item[0]):
            if isinstance(metric, Histogram):
                snap = metric.snapshot()
                cumulative = 0
                for bound, count in zip(snap["bounds"], snap["counts"]):
                    cumulative += count
                    bucket_labels = tuple(labels) + (("le", _format_value(bound)),)
                    lines.append(
                        f"{exp_name}_bucket{_render_labels(bucket_labels)} "
                        f"{cumulative}"
                    )
                cumulative += snap["counts"][-1]
                inf_labels = tuple(labels) + (("le", "+Inf"),)
                lines.append(
                    f"{exp_name}_bucket{_render_labels(inf_labels)} {cumulative}"
                )
                lines.append(
                    f"{exp_name}_sum{_render_labels(labels)} "
                    f"{_format_value(snap['sum'])}"
                )
                lines.append(
                    f"{exp_name}_count{_render_labels(labels)} {snap['count']}"
                )
            else:
                lines.append(
                    f"{exp_name}{_render_labels(labels)} "
                    f"{_format_value(metric.value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def json_snapshot(*registries: MetricsRegistry) -> Dict[str, object]:
    """One merged JSON snapshot of the given registries (stable ordering)."""
    if len(registries) == 1:
        return registries[0].snapshot()
    merged = MetricsRegistry("merged")
    for registry in registries:
        merged.merge_snapshot(registry.snapshot())
    return merged.snapshot()


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, float]]:
    """Parse an exposition page into ``{family: {series_line: value}}``.

    A deliberately small parser for tests and the CI metrics-smoke job —
    enough to assert that required series exist and that counters advance,
    not a general Prometheus client.
    """
    families: Dict[str, Dict[str, float]] = {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            current = line.split()[2]
            families.setdefault(current, {})
            continue
        if line.startswith("#"):
            continue
        series, _, raw_value = line.rpartition(" ")
        value = float(raw_value)
        base = series.split("{", 1)[0]
        family = current if current and base.startswith(current) else base
        families.setdefault(family, {})[series] = value
    return families


__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "json_snapshot",
    "parse_prometheus_text",
    "prometheus_text",
]
