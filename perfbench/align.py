"""Workloads that run the HTC pipeline: align-dense and align-sparse.

The end-to-end runs time whole ``HTCAligner.align`` calls with no wrapper
installed.  The traced runs install :data:`ALIGN_PROBES` around the
pipeline's public functions and derive the per-layer metrics from the spans
(see README.md for which metric should move on which workload).  The traced
align-sparse run also passes the Fig. 9 robustness sweep through
``run_suite`` for the runner-layer metrics.
"""

from __future__ import annotations

import gc
import math
import shutil
import tempfile
import time
from typing import Dict, List, Optional

import numpy as np

from measure import median, useful_ratio
from outcome import Outcome
from spans import Probe, Tracer, installed, peak_mb, reset_peak

#: The paper's settings scaled to a 2-cpu box: all 13 edge orbits, d=32,
#: two GCN layers, Adam lr 0.01, beta=1.1, m=10.
HTC_PARAMS = {
    "embedding_dim": 32,
    "n_layers": 2,
    "learning_rate": 0.01,
    "reinforcement_rate": 1.1,
    "n_neighbors": 10,
}
ALIGN_EPOCHS = 20
SUITE_EPOCHS = 10
SUITE_SCALE = 0.5
EDGE_REMOVAL = (0.1, 0.2, 0.3, 0.4, 0.5)
#: The workload whose traced run also measures the runner layer.
RUNNER_WORKLOAD = "align-sparse"

#: Input generation runs this often before the first call and again after
#: every ``SETUP_EVERY`` timed calls; set-up reports the median.  Samples
#: spread over the run follow its typical cpu speed, not one short burst.
SETUPS = 3
SETUP_EVERY = 2
#: Fewest timed operations per run, however short ``--seconds`` is.
MIN_CALLS = 3
#: Fewest traced calls (each paired with an untraced one) in a traced run.
TRACED_CALLS = 4

#: The traced span sums must match ``AlignmentResult.stage_times`` within
#: this share of the stage plus this many seconds (the program's stage timer
#: also covers glue code between the wrapped calls and the peak-RSS resets).
STAGE_TOLERANCE = (0.05, 0.05)

#: Span name -> the ``stage_times`` key it should account for.
STAGE_OF_SPAN = {
    "count_orbits": "orbit_counting",
    "build_views": "laplacian_construction",
    "train": "multi_orbit_training",
    "refine_view": "trusted_pair_fine_tuning",
    "integrate": "weighted_integration",
}


def _note(**fields):
    """An ``annotate`` callback storing ``fn(args, kwargs, result)`` per field."""

    def annotate(record, args, kwargs, result):
        for key, fn in fields.items():
            record["attrs"][key] = fn(args, kwargs, result)

    return annotate


ALIGN_PROBES = (
    Probe("align", "repro.core.aligner:HTCAligner.align_graphs",
          _note(stage_times=lambda a, k, r: dict(r.stage_times))),
    Probe("count_orbits", "repro.core.aligner:count_orbits_if_needed",
          _note(edges=lambda a, k, r: int(a[0].n_edges))),
    Probe("build_views", "repro.core.aligner:build_topology_views",
          _note(nnz=lambda a, k, r: int(sum(v.nnz for v in r.values())))),
    Probe("train", "repro.core.training:MultiOrbitTrainer.train",
          _note(final_loss=lambda a, k, r: float(r[-1]) if r else math.nan),
          memory=True),
    Probe("forward", "repro.nn.layers:SharedGCNEncoder.forward"),
    Probe("loss", "repro.core.training:frobenius_loss"),
    Probe("backward", "repro.nn.tensor:Tensor.backward"),
    Probe("optim", "repro.nn.optim:Adam.step"),
    Probe("refine_view", "repro.core.refinement:TrustedPairRefiner.refine_view",
          _note(iterations=lambda a, k, r: int(r.iterations),
                trusted=lambda a, k, r: int(r.trusted_pairs)),
          memory=True),
    Probe("lisi", "repro.core.refinement:lisi_matrix",
          _note(cells=lambda a, k, r: int(r.shape[0]) * int(r.shape[1]))),
    Probe("mnn", "repro.core.refinement:mutual_nearest_neighbors",
          _note(matrix=lambda a, k, r: id(a[0] if a else k["score_matrix"]),
                count=lambda a, k, r: len(r))),
    Probe("integrate", "repro.core.aligner:integrate_alignment_matrices",
          memory=True),
)

#: Per-layer metric -> (unit, the probes it is computed from).
ALIGN_LAYER_METRICS = {
    "core.orbit_counting_s": ("s", ("count_orbits",)),
    "orbits.edges_per_s": ("1/s", ("count_orbits",)),
    "core.laplacian_s": ("s", ("build_views",)),
    "graph.view_nnz": ("count", ("build_views",)),
    "core.training_s": ("s", ("train",)),
    "core.training_peak_mb": ("MB", ("train",)),
    "nn.forward_s": ("s", ("forward", "train")),
    "nn.loss_s": ("s", ("loss",)),
    "nn.backward_s": ("s", ("backward",)),
    "nn.optim_s": ("s", ("optim",)),
    "nn.final_loss": ("loss", ("train",)),
    "core.refinement_s": ("s", ("refine_view",)),
    "core.refinement_peak_mb": ("MB", ("refine_view",)),
    "core.refine_iterations": ("count", ("refine_view",)),
    "core.refine_useful_ratio": ("ratio", ("refine_view", "mnn")),
    "core.trusted_pairs": ("count", ("refine_view",)),
    "similarity.lisi_s": ("s", ("lisi",)),
    "similarity.lisi_calls": ("count", ("lisi",)),
    "similarity.scored_cells": ("count", ("lisi",)),
    "similarity.mnn_s": ("s", ("mnn",)),
    "core.integration_s": ("s", ("integrate",)),
    "core.integration_peak_mb": ("MB", ("integrate",)),
}


def dense_pair(seed: int, index: int):
    """Allmovie-Imdb-like: dense power-law cluster source (average degree ~45)."""
    from repro.datasets.synthetic import synthetic_pair
    from repro.graph.generators import powerlaw_cluster_graph

    rng = np.random.default_rng([seed, index])
    source = powerlaw_cluster_graph(
        n_nodes=400, edges_per_node=25, triangle_prob=0.6, n_attributes=14,
        label_fidelity=0.95, random_state=rng, name="dense",
    )
    return synthetic_pair(
        source, edge_removal_ratio=0.05, attribute_flip_ratio=0.02,
        target_node_fraction=0.95, name="align-dense", random_state=rng,
    )


def sparse_pair(seed: int, index: int):
    """The Douban stand-in: 400-node SBM source, target keeps 60% of nodes."""
    from repro.datasets.synthetic import douban

    return douban(scale=1.25, random_state=np.random.default_rng([seed, index]))


#: Workload -> (pair factory, distinct seeded pairs per run).  The pairs are
#: aligned in turn and p@1 is their mean, so one unlucky pair does not move
#: the run's accuracy; the sparse pairs vary more and cost less, so there
#: are more of them.
PAIRS = {"align-dense": (dense_pair, 6), "align-sparse": (sparse_pair, 8)}


def _check_alignment(result, pair) -> Optional[str]:
    matrix = np.asarray(result.alignment_matrix)
    expected = (pair.source.n_nodes, pair.target.n_nodes)
    if matrix.shape != expected:
        return f"alignment matrix has shape {matrix.shape}, expected {expected}"
    if not np.isfinite(matrix).all():
        return "alignment matrix has non-finite entries"
    return None


def _stage_gaps(tracer: Tracer) -> List[str]:
    """Stages whose traced span sum disagrees with the program's stage_times."""
    problems = []
    for align in tracer.named("align"):
        stage_times = align["attrs"].get("stage_times", {})
        sums: Dict[str, float] = {}
        for span in tracer.spans:
            stage = STAGE_OF_SPAN.get(span["name"])
            if stage and span["parent"] == align["id"]:
                sums[stage] = sums.get(stage, 0.0) + span["end"] - span["start"]
        for stage, traced in sums.items():
            if stage not in stage_times:
                continue  # the program stopped reporting this stage
            reported = float(stage_times[stage])
            allowed = STAGE_TOLERANCE[0] * reported + STAGE_TOLERANCE[1]
            if abs(traced - reported) > allowed:
                problems.append(
                    f"stage {stage}: traced {traced:.4f}s vs stage_times "
                    f"{reported:.4f}s (allowed +-{allowed:.4f}s)"
                )
    return problems


def _trajectories(tracer: Tracer) -> List[List[int]]:
    """Trusted-pair count before refinement and after each iteration, per view.

    ``refine_view`` counts pairs on each new score matrix and then again on
    the same matrix when it reinforces; consecutive calls on one matrix are
    one point of the trajectory.
    """
    result = []
    for view in tracer.named("refine_view"):
        counts, last = [], None
        for span in tracer.spans:
            if span["name"] == "mnn" and span["parent"] == view["id"]:
                if span["attrs"]["matrix"] != last:
                    counts.append(span["attrs"]["count"])
                last = span["attrs"]["matrix"]
        result.append(counts)
    return result


def layer_values(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics summed over every align call in ``tracer``."""
    total = tracer.total

    def attrs(name, key):
        return [s["attrs"][key] for s in tracer.named(name) if s["attrs"].get(key) is not None]

    counting = total("count_orbits")
    values = {
        "core.orbit_counting_s": counting,
        "orbits.edges_per_s": sum(attrs("count_orbits", "edges")) / counting if counting else 0.0,
        "core.laplacian_s": total("build_views"),
        "graph.view_nnz": sum(attrs("build_views", "nnz")),
        "core.training_s": total("train"),
        "core.training_peak_mb": max(attrs("train", "peak_mb"), default=None),
        "nn.forward_s": total("forward", ancestor="train"),
        "nn.loss_s": total("loss"),
        "nn.backward_s": total("backward"),
        "nn.optim_s": total("optim"),
        "nn.final_loss": median(attrs("train", "final_loss")) if attrs("train", "final_loss") else None,
        "core.refinement_s": total("refine_view"),
        "core.refinement_peak_mb": max(attrs("refine_view", "peak_mb"), default=None),
        "core.refine_iterations": sum(attrs("refine_view", "iterations")),
        "core.refine_useful_ratio": useful_ratio(_trajectories(tracer)),
        "core.trusted_pairs": sum(attrs("refine_view", "trusted")),
        "similarity.lisi_s": total("lisi"),
        "similarity.lisi_calls": len(tracer.named("lisi")),
        "similarity.scored_cells": sum(attrs("lisi", "cells")),
        "similarity.mnn_s": total("mnn"),
        "core.integration_s": total("integrate"),
        "core.integration_peak_mb": max(attrs("integrate", "peak_mb"), default=None),
    }
    return values


def add_layer_metrics(out: Outcome, per_pass: List[Dict[str, float]], absent: Dict[str, str]) -> None:
    """Median of each per-layer metric over the traced passes."""
    for name, (unit, probes) in ALIGN_LAYER_METRICS.items():
        missing = [absent[p] for p in probes if p in absent]
        if missing:
            out.add(name, None, unit, why_absent="; ".join(missing))
            continue
        values = [v[name] for v in per_pass if v.get(name) is not None]
        out.add(name, median(values) if values else None, unit, len(values),
                why_absent="peak-RSS reset unavailable" if unit == "MB" else "no samples")


def run_align(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    from repro.core import HTCAligner, HTCConfig
    from repro.eval.metrics import precision_at_q

    out = Outcome(workload)
    make, count = PAIRS[workload]
    setup: List[float] = []

    def set_up():
        started = time.perf_counter()
        made = [make(seed, index) for index in range(count)]
        setup.append(time.perf_counter() - started)
        return made

    for _ in range(SETUPS):
        pairs = set_up()
    out.notes.append("pairs " + ", ".join(
        f"{p.source.n_nodes}x{p.target.n_nodes} nodes {p.source.n_edges}/{p.target.n_edges} edges"
        for p in pairs))
    aligner = HTCAligner(HTCConfig(**HTC_PARAMS, epochs=ALIGN_EPOCHS, orbit_cache="off"))

    def timed_call(pair):
        """One checked align call: (wall seconds, peak MB or None, p@1) or None."""
        out.attempted += 1
        # Each call starts from a collected heap and a reset VmHWM mark, and
        # the run reports the *lowest* per-call peak: the autograd graph is
        # freed by the cycle collector, so whether one epoch's graph is still
        # alive when the next is built depends on where the collector's
        # schedule falls, which moves a call's peak by up to a third.
        gc.collect()
        reset_ok = reset_peak()
        started = time.perf_counter()
        try:
            result = aligner.align(pair)
        except Exception as error:  # noqa: BLE001 - a failed call is a result
            out.fail(f"align raised {type(error).__name__}: {error}")
            return None
        wall = time.perf_counter() - started
        peak = peak_mb() if reset_ok else None
        problem = _check_alignment(result, pair)
        if problem:
            out.fail(problem)
            return None
        return wall, peak, precision_at_q(result.alignment_matrix, pair.ground_truth, 1)

    # One untimed call first: the first align of a process pays for imports
    # and first-call work (it ran 1.4-1.8x slower than the rest).
    if timed_call(pairs[0]) is None:
        return out
    deadline = time.perf_counter() + seconds
    if not trace:
        calls = []
        while len(calls) < len(pairs) or time.perf_counter() < deadline:
            call = timed_call(pairs[len(calls) % len(pairs)])
            if call is None:
                break
            calls.append(call)
            if len(calls) % SETUP_EVERY == 0:
                pairs = set_up()
        out.add("setup_s", median(setup), "s", len(setup))
        if calls:
            walls, peaks, p1 = zip(*calls)
            out.notes.append("align walls " + " ".join(f"{w:.3f}" for w in walls))
            out.notes.append("align peaks " + " ".join(f"{p:.0f}" for p in peaks if p))
            out.add("op_p50_ms", 1000.0 * median(walls), "ms", len(walls))
            known = [p for p in peaks if p is not None]
            out.add("peak_rss_mb", min(known) if known else None, "MB", len(known),
                    why_absent="peak-RSS reset (/proc/self/clear_refs) unavailable")
            out.add("p_at_1", sum(p1[:len(pairs)]) / len(pairs), "ratio", len(pairs))
        return out

    # Traced run: an untraced and a traced call of the same pair.  A pair's
    # second call is faster than its first, so the two go in alternating
    # order over an even number of rounds.
    tracer = Tracer()
    untraced, traced, per_pass = [], [], []
    absent: Dict[str, str] = {}
    while len(traced) < TRACED_CALLS or len(traced) % 2 or time.perf_counter() < deadline:
        pair = pairs[len(traced) % len(pairs)]
        for traced_turn in (False, True) if len(traced) % 2 == 0 else (True, False):
            if traced_turn:
                tracer.clear()
                with installed(tracer, ALIGN_PROBES) as absent:
                    call = timed_call(pair)
            else:
                call = timed_call(pair)
            if call is None:
                return out
            (traced if traced_turn else untraced).append(call[0])
        per_pass.append(layer_values(tracer))
        out.add_spans(tracer.summary())
        for problem in _stage_gaps(tracer):
            out.fail(problem)
    add_layer_metrics(out, per_pass, absent)
    out.add("trace.overhead_pct", 100.0 * (median(traced) / median(untraced) - 1.0), "%", len(traced))
    if workload == RUNNER_WORKLOAD:
        add_runner_metrics(out, seed, workdir)
    return out


# ----------------------------------------------------------------------
# The runner layer: the Fig. 9 robustness sweep through run_suite
# ----------------------------------------------------------------------
def suite_spec(seed: int):
    """The Fig. 9 sweep: Econ and BN stand-ins x five edge-removal levels."""
    from repro.runner.spec import SuiteSpec

    rng = np.random.default_rng(seed)
    states = [int(s) for s in rng.integers(0, 2**31 - 1, size=2)]
    datasets = [
        {"name": name, "params": {"edge_removal_ratio": p, "scale": SUITE_SCALE, "random_state": state}}
        for name, state in zip(("econ", "bn"), states)
        for p in EDGE_REMOVAL
    ]
    return SuiteSpec(
        name="robustness", datasets=datasets, methods=["HTC"],
        config={**HTC_PARAMS, "epochs": SUITE_EPOCHS}, seed=0,
    )


def _orbit_cache() -> Optional[object]:
    """The process-wide orbit cache, or ``None`` if the program has none."""
    try:
        from repro.orbits.cache import shared_cache
    except ImportError:
        return None
    return shared_cache()


def add_runner_metrics(out: Outcome, seed: int, workdir: str) -> None:
    """Runner, executor and orbit-cache metrics of the Fig. 9 sweep.

    A serial ``run_suite`` pass gives the orbit-cache reuse (5 jobs share
    each source graph) and the serial wall; then comes the pass a user of
    ``run-suite --jobs 0`` gets (all cpus, ``auto`` executor).  Both start
    from an empty orbit cache, as a fresh ``run-suite`` process does.
    """
    from repro.runner import run_suite

    spec = suite_spec(seed)
    n_jobs = len(spec.jobs())
    cache = _orbit_cache()

    def one_suite(jobs: int, on_job_done=None):
        """One checked run_suite call: (wall, report) or None."""
        out.attempted += 1
        if cache is not None:
            cache.clear()
        target = tempfile.mkdtemp(dir=workdir)
        started = time.perf_counter()
        try:
            report = run_suite(spec, target, jobs=jobs, on_job_done=on_job_done)
        except Exception as error:  # noqa: BLE001 - a failed call is a result
            out.fail(f"run_suite raised {type(error).__name__}: {error}")
            return None
        finally:
            wall = time.perf_counter() - started
            shutil.rmtree(target, ignore_errors=True)
        statuses = [a.get("status") for a in report.artifacts]
        if len(statuses) != n_jobs or any(s != "done" for s in statuses):
            out.fail(f"suite job statuses {statuses}, expected {n_jobs} x done")
            return None
        p1 = [float(a["result"]["metrics"]["p@1"]) for a in report.artifacts]
        if not all(0.0 <= p <= 1.0 for p in p1):
            out.fail(f"suite p@1 outside [0, 1]: {p1}")
            return None
        return wall, report

    serial = one_suite(jobs=1)
    if serial is None:
        return
    if cache is not None and hasattr(cache, "stats"):
        stats = cache.stats()
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        out.add("orbits.cache_hit_ratio", stats.get("hits", 0) / lookups if lookups else None,
                "ratio", lookups, why_absent="no orbit-cache lookups")
    else:
        out.add("orbits.cache_hit_ratio", None, "ratio",
                why_absent="repro.orbits.cache.shared_cache not found")

    done_at: List[float] = []
    started = time.perf_counter()
    parallel = one_suite(jobs=0, on_job_done=lambda artifact: done_at.append(time.perf_counter()))
    if parallel is None:
        return
    wall, report = parallel
    job_walls = [float(a.get("wall_seconds", 0.0)) for a in report.artifacts]
    out.add("runner.parallel_suite_s", wall, "s")
    out.add("runner.job_s_median", median(job_walls), "s", len(job_walls))
    out.add("runner.first_result_s", min(done_at) - started, "s")
    out.add("runner.busy_ratio", sum(job_walls) / (report.workers * wall), "ratio")
    out.add("runner.speedup_vs_serial", serial[0] / wall, "ratio")
    out.notes.append(
        f"runner pass ({n_jobs} Fig. 9 jobs): executor {report.executor}, {report.workers} "
        f"workers, serial {serial[0]:.2f}s vs parallel {wall:.2f}s"
    )
