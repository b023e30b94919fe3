"""Experiment protocol: run methods on pairs, average over runs, time them.

This module drives the Table II / Fig. 7 comparisons.  Supervised baselines
receive a fresh 10% anchor split per run (the paper's protocol); unsupervised
methods never see ground truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.datasets.pair import GraphPair
from repro.eval.metrics import evaluate_alignment
from repro.utils.random import RandomStateLike, check_random_state


@dataclass
class MethodResult:
    """Aggregated outcome of one method on one dataset pair."""

    method: str
    dataset: str
    metrics: Dict[str, float]
    time_seconds: float
    n_runs: int = 1
    stage_times: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        """Flatten into a table row."""
        row: Dict[str, object] = {"method": self.method, "dataset": self.dataset}
        row.update({k: round(v, 4) for k, v in self.metrics.items()})
        row["time_s"] = round(self.time_seconds, 2)
        return row

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form, round-tripped by the suite runner's
        on-disk artifacts (:mod:`repro.runner`)."""
        return {
            "method": self.method,
            "dataset": self.dataset,
            "metrics": dict(self.metrics),
            "time_seconds": self.time_seconds,
            "n_runs": self.n_runs,
            "stage_times": dict(self.stage_times),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MethodResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            method=str(payload["method"]),
            dataset=str(payload["dataset"]),
            metrics={k: float(v) for k, v in dict(payload["metrics"]).items()},
            time_seconds=float(payload["time_seconds"]),
            n_runs=int(payload.get("n_runs", 1)),
            stage_times={
                k: float(v)
                for k, v in dict(payload.get("stage_times", {})).items()
            },
        )


def _extract_matrix(result) -> np.ndarray:
    """Accept either a raw matrix or an HTC :class:`AlignmentResult`."""
    if hasattr(result, "alignment_matrix"):
        return np.asarray(result.alignment_matrix)
    return np.asarray(result)


def run_method(
    aligner,
    pair: GraphPair,
    train_ratio: float = 0.1,
    n_runs: int = 1,
    precision_ks: Iterable[int] = (1, 10),
    random_state: RandomStateLike = 0,
    on_result: Optional[Callable[[object], None]] = None,
) -> MethodResult:
    """Run ``aligner`` on ``pair`` ``n_runs`` times and average the metrics.

    ``aligner`` needs an ``align(pair, train_anchors=None)`` method and a
    ``name``/``requires_supervision`` attribute (both
    :class:`repro.baselines.BaseAligner` and :class:`repro.core.HTCAligner`
    qualify).  ``on_result`` is invoked with each run's raw ``align`` output
    (an :class:`~repro.core.result.AlignmentResult` or a bare score matrix)
    before it is reduced to metrics — the hook the suite runner uses to
    persist serve artifacts without re-running the method.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    rng = check_random_state(random_state)

    metric_sums: Dict[str, float] = {}
    total_time = 0.0
    stage_times: Dict[str, float] = {}

    for _ in range(n_runs):
        train_anchors = None
        if getattr(aligner, "requires_supervision", False):
            train_anchors, _ = pair.split_anchors(train_ratio, random_state=rng)

        started = time.perf_counter()
        raw_result = aligner.align(pair, train_anchors=train_anchors)
        total_time += time.perf_counter() - started
        if on_result is not None:
            on_result(raw_result)
        matrix = _extract_matrix(raw_result)

        run_metrics = evaluate_alignment(
            matrix, pair.ground_truth, precision_ks=precision_ks
        )
        for key, value in run_metrics.items():
            metric_sums[key] = metric_sums.get(key, 0.0) + value

        if hasattr(raw_result, "stage_times"):
            for stage, seconds in raw_result.stage_times.items():
                stage_times[stage] = stage_times.get(stage, 0.0) + seconds

    metrics = {key: value / n_runs for key, value in metric_sums.items()}
    stage_times = {key: value / n_runs for key, value in stage_times.items()}
    return MethodResult(
        method=getattr(aligner, "name", type(aligner).__name__),
        dataset=pair.name,
        metrics=metrics,
        time_seconds=total_time / n_runs,
        n_runs=n_runs,
        stage_times=stage_times,
    )


def run_comparison(
    aligners: Iterable,
    pairs: Iterable[GraphPair],
    train_ratio: float = 0.1,
    n_runs: int = 1,
    precision_ks: Iterable[int] = (1, 10),
    random_state: RandomStateLike = 0,
) -> List[MethodResult]:
    """Cross product of methods × datasets (the Table II layout)."""
    results: List[MethodResult] = []
    rng = check_random_state(random_state)
    for pair in pairs:
        for aligner in aligners:
            results.append(
                run_method(
                    aligner,
                    pair,
                    train_ratio=train_ratio,
                    n_runs=n_runs,
                    precision_ks=precision_ks,
                    random_state=rng,
                )
            )
    return results


def best_by_metric(
    results: List[MethodResult], metric: str = "p@1"
) -> Optional[MethodResult]:
    """Return the result with the highest value of ``metric`` (ties: first)."""
    candidates = [r for r in results if metric in r.metrics]
    if not candidates:
        return None
    return max(candidates, key=lambda r: r.metrics[metric])


__all__ = ["MethodResult", "run_method", "run_comparison", "best_by_metric"]
