"""Execute a shard plan through the existing ``repro.runner`` machinery.

:func:`align_sharded` is the orchestration layer of the partition–align–
stitch pipeline: it builds a :class:`~repro.shard.partition.ShardPlan`,
persists every shard sub-pair as an on-disk ``dir:`` dataset, expands a
one-method :class:`~repro.runner.spec.SuiteSpec` over those datasets and
runs it with :func:`~repro.runner.executor.run_suite` — inheriting the
process pool, spec-hashed per-job JSON artifacts, per-job timeouts and
``resume`` semantics for free.  Per-shard alignments come back as serve
artifacts (``emit_artifacts``); each is loaded once, in serve mode (its
sparse top-``k`` index only, never the dense matrix), and the indexes are
stitched into a global sparse alignment of width
:data:`~repro.serve.index.DEFAULT_INDEX_K`, the width every shard job
exports.

Give ``workdir`` a stable path to make the whole sharded alignment
resumable: a re-run with ``resume=True`` regenerates the (deterministic)
shard datasets, skips every shard job whose artifact already matches its
spec hash, and only re-aligns what changed.  Each shard dataset directory
is named by the :func:`~repro.datasets.io.pair_digest` of the files written
for it (edges, attributes, anchors), so a shard whose inputs changed gets a
new job spec even when the pair keeps its name.

:class:`ShardedAligner` adapts the pipeline to the standard aligner
protocol (``align(pair) -> AlignmentResult``) so ``run-suite``, ``align``
and ``export-artifact`` can run sharded HTC by simply setting
``HTCConfig.shard_count``.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.config import HTCConfig
from repro.core.result import AlignmentResult
from repro.datasets.io import pair_digest, save_pair
from repro.datasets.pair import GraphPair
from repro.obs.metrics import default_registry
from repro.obs.tracing import span
from repro.runner.executor import STATUS_CACHED, STATUS_DONE, run_suite
from repro.runner.spec import SuiteSpec
from repro.serve.artifacts import load_artifact, serialize_config
from repro.shard.partition import build_shard_plan
from repro.shard.stitch import (
    StitchedAlignment,
    refine_stitched,
    stitch_alignments,
)
from repro.utils.logging import get_logger
from repro.utils.naming import slugify

logger = get_logger(__name__)


def _shard_config_overrides(config: HTCConfig) -> Dict[str, object]:
    """The per-shard job config: the serialized config minus the shard knobs.

    Stripping ``shard_count`` is what stops the per-shard jobs from
    recursing into another sharded run.  ``executor_backend`` is stripped
    too: it changes how jobs run, never what they compute, so it must not
    enter the job specs (spec hashes stay identical across executors).
    """
    overrides = serialize_config(config)
    for name in ("shard_count", "shard_overlap", "executor_backend"):
        del overrides[name]
    return overrides


def _save_shard_dataset(subpair: GraphPair, pairs_dir: Path, index: int) -> Path:
    """Write one shard sub-pair under a directory named by its content.

    The name is ``shard_NNN-<pair_digest prefix>`` over the files
    ``save_pair`` wrote, so a resumed run whose inputs changed gets new job
    specs instead of reusing another pair's shard results.
    """
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=pairs_dir))
    save_pair(subpair, staging)
    shard_dir = pairs_dir / f"shard_{index:03d}-{pair_digest(staging)[:16]}"
    if shard_dir.is_dir():
        shutil.rmtree(staging)
    else:
        staging.rename(shard_dir)
    return shard_dir


def align_sharded(
    pair: GraphPair,
    config: Optional[HTCConfig] = None,
    *,
    shard_count: Optional[int] = None,
    shard_overlap: Optional[int] = None,
    method: str = "HTC",
    jobs: int = 1,
    workdir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    timeout: Optional[float] = None,
    refine_iterations: int = 3,
    refine_alpha: float = 0.2,
    executor: Optional[str] = None,
) -> StitchedAlignment:
    """Partition ``pair``, align every shard pair, stitch the results.

    Parameters
    ----------
    pair, config:
        The alignment task and the (per-shard) HTC configuration.
    shard_count, shard_overlap:
        Override ``config.shard_count`` / ``config.shard_overlap``; the
        count is required in one of the two places.
    method:
        Per-shard method name (anything
        :func:`repro.runner.executor.resolve_method` accepts).
    jobs:
        Worker processes for the shard suite (``1`` = inline).
    workdir:
        Directory for shard datasets, job artifacts and serve artifacts.
        ``None`` uses a temporary directory removed afterwards; pass a
        stable path (plus ``resume=True``) to make interrupted sharded
        alignments restartable at per-shard granularity.
    resume, timeout:
        Forwarded to :func:`~repro.runner.executor.run_suite`.
    refine_iterations, refine_alpha:
        Seed-consistency refinement passes over the stitched candidates
        (``0`` disables; see :func:`repro.shard.stitch.refine_stitched`).
    executor:
        Executor backend for the shard suite (``"serial"`` /
        ``"process-pool"`` / ``"process-pool-shm"`` / ``"auto"``); defaults to
        ``config.executor_backend``.  Execution-only — shard job spec
        hashes and resume artifacts are identical across backends.
    """
    config = config if config is not None else HTCConfig()
    n_shards = shard_count if shard_count is not None else config.shard_count
    if n_shards is None:
        raise ValueError(
            "shard_count must be given (argument or HTCConfig.shard_count)"
        )
    overlap = shard_overlap if shard_overlap is not None else config.shard_overlap
    seed = config.random_state if isinstance(config.random_state, int) else 0

    stage_times: Dict[str, float] = {}
    with span("partition", into=stage_times):
        plan = build_shard_plan(pair, n_shards, overlap=overlap, seed=seed)

    cleanup = workdir is None
    workdir = Path(
        tempfile.mkdtemp(prefix="repro_shard_") if workdir is None else workdir
    )
    try:
        pairs_dir = workdir / "pairs"
        pairs_dir.mkdir(parents=True, exist_ok=True)
        dataset_names: List[str] = []
        for shard_pair in plan.pairs:
            shard_dir = _save_shard_dataset(
                shard_pair.subpair(pair), pairs_dir, shard_pair.index
            )
            dataset_names.append(f"dir:{shard_dir}")

        suite = SuiteSpec(
            name=f"{slugify(pair.name, 'pair')}-shards{plan.n_shards}",
            datasets=dataset_names,
            methods=[method],
            config=_shard_config_overrides(config),
            n_runs=1,
            seed=seed,
            timeout=timeout,
        )
        with span("shard_alignment", into=stage_times):
            report = run_suite(
                suite,
                workdir / "runs",
                jobs=jobs,
                resume=resume,
                timeout=timeout,
                emit_artifacts=True,
                executor=(
                    executor if executor is not None else config.executor_backend
                ),
            )

        by_dataset = {str(a["spec"]["dataset"]): a for a in report.artifacts}
        store = report.suite_dir / "serve_artifacts"
        shard_indexes = []
        shard_stats: List[Dict[str, object]] = []
        failures = []
        for shard_pair, dataset in zip(plan.pairs, dataset_names):
            artifact = by_dataset.get(dataset)
            status = artifact.get("status") if artifact else "missing"
            stats: Dict[str, object] = {
                "shard": shard_pair.index,
                "job_id": artifact.get("job_id") if artifact else None,
                "status": status,
                "wall_seconds": artifact.get("wall_seconds", 0.0) if artifact else 0.0,
                "source_nodes": int(shard_pair.source_nodes.size),
                "target_nodes": int(shard_pair.target_nodes.size),
            }
            if artifact and status in (STATUS_DONE, STATUS_CACHED):
                serve_info = artifact.get("serve_artifact") or {}
                artifact_id = str(serve_info.get("artifact_id"))
                try:
                    index = load_artifact(store, artifact_id, mode="serve").index
                except (OSError, ValueError) as error:
                    # Covers a pruned serve_artifacts directory, a cached
                    # job without the serve_artifact key, and corrupt or
                    # schema-incompatible artifacts — report it with the
                    # other shard failures instead of aborting mid-loop.
                    stats["status"] = f"{status} (serve artifact unreadable)"
                    failures.append(
                        f"shard {shard_pair.index} ({stats['job_id']}): "
                        f"serve artifact unreadable — {error}"
                    )
                    shard_stats.append(stats)
                    continue
                shard_indexes.append(index)
                result = artifact.get("result") or {}
                stats["metrics"] = dict(result.get("metrics", {}))
            else:
                failures.append(
                    f"shard {shard_pair.index} ({stats['job_id']}): {status}"
                    + (f" — {artifact.get('error')}" if artifact else "")
                )
            shard_stats.append(stats)
        if failures:
            raise RuntimeError(
                "sharded alignment incomplete; failed shard jobs:\n  "
                + "\n  ".join(failures)
            )

        with span("stitch", into=stage_times):
            stitched = stitch_alignments(
                plan, shard_indexes, pair.source.n_nodes, pair.target.n_nodes
            )
            # Refinement allocates the run's largest working set after the
            # shard alignments; the shard indexes must not be live under it.
            del shard_indexes

        # Entered even with no iterations, so ``refine`` is always a stage.
        with span("refine", into=stage_times):
            if refine_iterations > 0:
                stitched = refine_stitched(
                    stitched,
                    pair.source,
                    pair.target,
                    iterations=refine_iterations,
                    alpha=refine_alpha,
                )

        stitched.stage_times = stage_times
        # Always-on per-phase histograms (the spans' tracing is opt-in);
        # one observe per phase per sharded run — negligible next to the
        # phases themselves.
        registry = default_registry()
        for stage, seconds in stitched.stage_times.items():
            registry.histogram("shard_stage_seconds", stage=stage).observe(
                seconds
            )
        stitched.shard_stats = shard_stats
        logger.info(
            "sharded %s: %d shards, %d conflicts resolved, %.2fs total",
            pair.name,
            stitched.n_shards,
            stitched.conflicts_resolved,
            stitched.total_time,
        )
        return stitched
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)


class ShardedAligner:
    """Standard-protocol adapter running HTC via partition–align–stitch.

    ``align`` returns a densified :class:`AlignmentResult` (rankings
    faithful up to :data:`~repro.serve.index.DEFAULT_INDEX_K` per row) so
    the eval protocol, ``run-suite`` and artifact export work unchanged; the
    sparse stitched alignment of the last run is kept on
    :attr:`last_stitched_` for memory-light serving.
    """

    name = "HTC"
    requires_supervision = False

    def __init__(
        self,
        config: Optional[HTCConfig] = None,
        *,
        jobs: int = 1,
        workdir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        refine_iterations: int = 3,
        executor: Optional[str] = None,
    ) -> None:
        config = config if config is not None else HTCConfig()
        if config.shard_count is None:
            raise ValueError("ShardedAligner needs HTCConfig.shard_count set")
        self.config = config
        self.jobs = jobs
        self.workdir = workdir
        self.resume = resume
        self.refine_iterations = refine_iterations
        self.executor = executor
        self.last_stitched_: Optional[StitchedAlignment] = None

    def align(self, pair: GraphPair, train_anchors=None) -> AlignmentResult:
        """Align ``pair`` sharded; ``train_anchors`` accepted and ignored."""
        stitched = align_sharded(
            pair,
            self.config,
            jobs=self.jobs,
            workdir=self.workdir,
            resume=self.resume,
            refine_iterations=self.refine_iterations,
            executor=self.executor,
        )
        self.last_stitched_ = stitched
        return stitched.to_result()

    def __repr__(self) -> str:
        return (
            f"ShardedAligner(shards={self.config.shard_count}, "
            f"overlap={self.config.shard_overlap}, jobs={self.jobs})"
        )


__all__ = ["align_sharded", "ShardedAligner"]
