"""The benchmark's own arithmetic: percentiles, spreads, self time, open-loop
lateness and the refinement useful ratio.

Everything here is pure Python on plain lists so it can be unit-tested
without the program under test (see ``test_perfbench.py``).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles tried, highest first, when reporting a tail.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is only reported when at least this many samples lie
#: beyond it; fewer make the value one or two outliers.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def _rank(n: int, q: float) -> int:
    # The small slack keeps float error (99.9 * 10000 / 100 = 9990.000...02)
    # from pushing an exact rank up by one.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q``% at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    return float(sorted(values)[_rank(len(values), q) - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank ``q``-th percentile."""
    return n - _rank(n, q)


def tail_percentile(
    values: Sequence[float], candidates: Sequence[float] = TAIL_CANDIDATES
) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least :data:`MIN_BEYOND` samples beyond it.

    Returns ``(q, value, beyond)`` or ``None`` when even the lowest
    candidate has too few samples beyond it.
    """
    for q in sorted(candidates, reverse=True):
        beyond = samples_beyond(len(values), q)
        if beyond >= MIN_BEYOND:
            return q, percentile(values, q), beyond
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are dicts with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``.  Children are clipped to their parent and their
    overlaps are merged, so concurrent children are not subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            start = max(span["start"], parent["start"])
            end = min(span["end"], parent["end"])
            if end > start:
                children.setdefault(parent["id"], []).append((start, end))
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = -math.inf
        for start, end in sorted(children.get(span["id"], [])):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def schedule(rate: float, count: int, start: float = 0.0) -> List[float]:
    """Send times of an open loop: ``count`` requests, evenly ``1/rate`` apart."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return [start + i / rate for i in range(count)]


def open_loop_times(
    scheduled: Sequence[float], sent: Sequence[float], done: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """Latency from each request's *scheduled* send, and how late it was sent.

    Timing from the schedule rather than the actual send charges a stall to
    every request it delayed, not only to the one in flight.
    """
    latency = [d - s for s, d in zip(scheduled, done)]
    lateness = [max(0.0, t - s) for s, t in zip(scheduled, sent)]
    return latency, lateness


def raised_iterations(trajectory: Sequence[int]) -> int:
    """Refinement iterations that raised the best trusted-pair count.

    ``trajectory`` is the count before refinement followed by the count
    after each iteration.
    """
    raised = 0
    best = None
    for count in trajectory:
        if best is not None and count > best:
            raised += 1
        best = count if best is None else max(best, count)
    return raised


def useful_ratio(trajectories: Sequence[Sequence[int]]) -> Optional[float]:
    """Iterations that raised the trusted count / iterations run (all views)."""
    run = sum(max(0, len(t) - 1) for t in trajectories)
    if run == 0:
        return None
    return sum(raised_iterations(t) for t in trajectories) / run
