"""Suite execution over the executor backends.

``run_suite`` expands a :class:`~repro.runner.spec.SuiteSpec` into jobs and
submits them through an :class:`repro.backend.executor.ExecutorBackend` —
``serial`` (inline, deterministic), ``process-pool`` (the historical local
pool) or ``process-pool-shm`` (warm workers attaching datasets zero-copy
from a shared-memory arena, BLAS threads capped per worker) — selected via
``SuiteSpec.executor_backend``, the ``executor`` argument or ``"auto"``
resolution.  Parallel backends receive their jobs longest-expected-first:
per-job ``wall_seconds`` from a prior manifest of the same suite feed a
cost model (grid-size heuristic fallback), shrinking the straggler tail
without touching the manifest's deterministic row order.  Every job produces one JSON artifact under
``<output_dir>/<suite>/jobs/``; the suite manifest (``manifest.json``)
records the job statuses, the executor that produced the run and the wall
clock.  With ``resume=True``, jobs whose artifact already exists, carries
the current spec hash and finished successfully are skipped — so an
interrupted sweep restarts from where it stopped, and editing any job knob
re-runs exactly the affected jobs.  A ``dir:`` dataset's jobs also record
the :func:`~repro.datasets.io.pair_digest` of its files, and a cached
artifact whose digest is missing or differs is stale, so rewriting the
directory re-runs its jobs.  The executor choice never enters the
job specs, so spec hashes (and therefore ``--resume`` and artifact
identity) are invariant across backends.

Under every executor, per-job timeouts are enforced *inside* the job with
``SIGALRM`` (POSIX), so a job stuck in Python code turns into a ``timeout``
artifact instead of wedging the pool.  Caveat: the alarm is delivered
between bytecodes, so a job blocked inside one long native call (a huge
BLAS GEMM, a scipy solver) is only interrupted when that call returns.  On
platforms without ``SIGALRM`` the budget is not enforced.
"""

from __future__ import annotations

import json
import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.backend.executor import (
    AUTO_BACKEND,
    SERIAL,
    ExecutorJob,
    get_executor_backend,
    resolve_executor_backend,
)
from repro.backend.shm import (
    SharedArena,
    SharedPairHandle,
    blas_thread_cap,
    cached_attach_pair,
    share_pair,
    worker_state,
)
from repro.datasets.io import pair_digest
from repro.runner.spec import JobSpec, SuiteSpec
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Artifact status values.
STATUS_DONE = "done"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_CACHED = "cached"


class JobTimeout(Exception):
    """Raised inside a worker when a job exceeds its wall-clock budget."""


def _htc_variant_names() -> tuple:
    from repro.core.variants import ABLATION_VARIANTS, EXTRA_ABLATION_VARIANTS

    return ("HTC",) + tuple(ABLATION_VARIANTS) + tuple(EXTRA_ABLATION_VARIANTS)


def known_method_names() -> tuple:
    """Every method name :func:`resolve_method` accepts (for help/docs)."""
    from repro.baselines import PAPER_BASELINES

    return _htc_variant_names() + tuple(PAPER_BASELINES) + ("Degree", "Attribute")


def resolve_method(name: str, config) -> object:
    """Instantiate a method by name: HTC, an ablation variant, or a baseline.

    The single source of the method vocabulary, shared by the CLI and the
    suite runner.  An HTC config with ``shard_count`` set routes through the
    partition–align–stitch subsystem (:mod:`repro.shard`) transparently.
    """
    from repro.baselines import make_baseline
    from repro.core import HTCAligner
    from repro.core.variants import make_variant

    if name == "HTC":
        if getattr(config, "shard_count", None):
            from repro.shard.executor import ShardedAligner

            return ShardedAligner(config)
        return HTCAligner(config)
    if name in _htc_variant_names():
        return make_variant(name, config)
    return make_baseline(name)


def _alarm_handler(signum, frame):  # pragma: no cover - trivial
    raise JobTimeout()


def _dataset_digest(dataset: str) -> Optional[str]:
    """:func:`pair_digest` of a ``dir:`` dataset (generated ones: ``None``)."""
    prefix, _, path = dataset.partition(":")
    return pair_digest(path) if prefix == "dir" and path else None


def execute_job(
    job_payload: Dict[str, object],
    timeout: Optional[float] = None,
    method_resolver: Optional[Callable[[str, object], object]] = None,
    emit_artifacts_dir: Optional[str] = None,
    dataset_shm: Optional[SharedPairHandle] = None,
) -> Dict[str, object]:
    """Run one job to completion and return its artifact payload.

    Runs in a worker process (but is equally callable inline).  Never raises:
    failures and timeouts are captured into the artifact's ``status`` /
    ``error`` fields so one bad cell cannot take down a sweep.

    With ``emit_artifacts_dir`` set, the job's final alignment (the last
    run's raw ``align`` output) is additionally persisted as a serve
    artifact under that directory (see :mod:`repro.serve.artifacts`); the
    job payload then records its ``serve_artifact`` id and path.

    With ``dataset_shm`` set (the ``process-pool-shm`` executor), the
    dataset is *attached* from the coordinator's shared-memory arena
    through the per-worker cache instead of being re-loaded — zero-copy
    read-only CSR views, one materialisation per dataset per worker.  The
    transport is recorded under the artifact's transient
    ``_executor_detail`` key, which the coordinator pops into the suite
    manifest — job artifacts on disk stay byte-identical across executors.

    When span tracing is on (``REPRO_TRACE=1`` /
    :func:`repro.obs.enable_tracing`), the job's per-phase spans
    (``runner.job/load_dataset`` etc.) and every span nested in them (the
    aligner's Fig. 8 stages under ``runner.job/align``, a sharded job's
    stages) are recorded into a job-local registry and attached as
    ``artifact["observability"]`` — a mergeable snapshot that
    :func:`run_suite` folds into the suite manifest.  The key is absent
    when tracing is off, so cached artifacts and manifests stay
    byte-stable for the executor-parity checks.
    """
    from repro.core import HTCConfig
    from repro.datasets import load_dataset
    from repro.eval.protocol import run_method
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import span, tracing_enabled

    from repro import __version__

    job = JobSpec.from_dict(job_payload)
    artifact: Dict[str, object] = {
        "job_id": job.job_id,
        "spec": job.to_dict(),
        "spec_hash": job.hash,
        "repro_version": __version__,
        "status": STATUS_FAILED,
        "result": None,
        "error": None,
    }
    use_alarm = timeout is not None and hasattr(signal, "SIGALRM")
    previous_handler = None
    if use_alarm:
        previous_handler = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.setitimer(signal.ITIMER_REAL, float(timeout))
    obs_registry = MetricsRegistry(job.job_id) if tracing_enabled() else None
    transport: Optional[str] = None
    started = time.perf_counter()
    try:
        with span("runner.job", obs_registry):
            digest = _dataset_digest(job.dataset)
            if digest is not None:
                artifact["dataset_digest"] = digest
            config_overrides = dict(job.config)
            config_overrides.setdefault("random_state", job.seed)
            config = HTCConfig(**config_overrides)
            resolver = (
                method_resolver if method_resolver is not None else resolve_method
            )
            method = resolver(job.method, config)
            with span("load_dataset"):
                if dataset_shm is not None:
                    pair, transport = cached_attach_pair(dataset_shm)
                else:
                    pair = load_dataset(job.dataset, **dict(job.dataset_params))
                    transport = "load"
            last_alignment: List[object] = []
            on_result = last_alignment.append if emit_artifacts_dir else None
            with span("align"):
                result = run_method(
                    method,
                    pair,
                    train_ratio=job.train_ratio,
                    n_runs=job.n_runs,
                    random_state=job.seed,
                    on_result=on_result,
                )
            artifact["status"] = STATUS_DONE
            artifact["result"] = result.to_dict()
            if emit_artifacts_dir and last_alignment:
                with span("emit_artifact"):
                    artifact["serve_artifact"] = _emit_serve_artifact(
                        last_alignment[-1], config, job, emit_artifacts_dir
                    )
    except JobTimeout:
        artifact["status"] = STATUS_TIMEOUT
        artifact["error"] = f"job exceeded the {timeout}s wall-clock budget"
    except Exception as error:  # noqa: BLE001 - artifact carries the failure
        artifact["status"] = STATUS_FAILED
        artifact["error"] = (
            f"{type(error).__name__}: {error}\n{traceback.format_exc()}"
        )
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)
    artifact["wall_seconds"] = time.perf_counter() - started
    if obs_registry is not None and len(obs_registry):
        artifact["observability"] = obs_registry.snapshot()
    state = worker_state()
    if dataset_shm is not None or state.blas_thread_cap is not None:
        # Transient coordination metadata: popped (never written to disk)
        # by run_suite and aggregated into manifest["executor_detail"], so
        # job artifacts and spec hashes stay executor-invariant.
        artifact["_executor_detail"] = {
            "dataset_transport": transport,
            "blas_thread_cap": state.blas_thread_cap,
            "blas_cap_method": state.blas_cap_method,
        }
    return artifact


def _emit_serve_artifact(
    raw_result: object,
    config,
    job: JobSpec,
    artifacts_dir: str,
) -> Dict[str, object]:
    """Persist one job's alignment as a serve artifact; returns its summary."""
    from repro.serve.artifacts import export_result

    info = export_result(
        raw_result,
        config,
        root=artifacts_dir,
        name=job.job_id,
        metadata={
            "dataset": job.dataset,
            "method": job.method,
            "job_id": job.job_id,
            "spec_hash": job.hash,
        },
    )
    return {
        "artifact_id": info.artifact_id,
        "path": str(info.path),
        "disk_bytes": info.disk_bytes,
        "compression_ratio": round(info.index.compression_ratio, 2),
    }


def _write_json(path: Path, payload: Dict[str, object]) -> None:
    """Atomic JSON write (tmp file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    # Insertion order is kept (no key sorting) so round-tripped metric
    # columns render in the same order as a fresh run.
    tmp.write_text(json.dumps(payload, indent=2) + "\n")
    os.replace(tmp, path)


def _load_cached_artifact(path: Path, job: JobSpec) -> Optional[Dict[str, object]]:
    """The existing artifact for ``job`` if it is valid and complete."""
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("spec_hash") != job.hash:
        return None
    if payload.get("status") != STATUS_DONE:
        return None
    digest = _dataset_digest(job.dataset)
    if digest is not None and payload.get("dataset_digest") != digest:
        return None  # the dir: dataset was rewritten (or the digest predates it)
    return payload


def _serve_artifact_stored(artifact: Dict[str, object], serve_dir: Path) -> bool:
    """Whether a job's emitted serve artifact still has its manifest on disk."""
    emitted = artifact.get("serve_artifact")
    if not isinstance(emitted, dict):
        return False
    return (serve_dir / str(emitted.get("artifact_id")) / "manifest.json").is_file()


#: Methods whose jobs are near-instant (no training loop); the cost model
#: weighs them far below the trained methods when no prior timing exists.
_CHEAP_METHODS = ("Degree", "Attribute")


def _prior_wall_seconds(manifest_path: Path) -> Dict[str, float]:
    """Per-job ``wall_seconds`` from a previous manifest of this suite.

    The resume machinery already parses these manifests; here they feed the
    cost model — a job that took 40s last night is submitted before one
    that took 2s, shrinking the straggler tail.  Missing or unreadable
    manifests simply yield no priors.
    """
    try:
        payload = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    prior: Dict[str, float] = {}
    for row in payload.get("jobs") or []:
        if not isinstance(row, dict):
            continue
        try:
            seconds = float(row.get("wall_seconds", 0.0))
        except (TypeError, ValueError):
            continue
        if seconds > 0.0:
            prior[str(row.get("job_id"))] = seconds
    return prior


def _heuristic_cost(job: JobSpec) -> float:
    """Grid-size cost estimate for jobs with no recorded prior timing.

    Dimensionless: dataset scale enters quadratically (score matrices are
    ``O(n^2)``), training epochs linearly, and the un-trained baselines are
    weighted down to almost nothing.
    """

    def _float(value, default: float) -> float:
        try:
            return float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return default

    scale = _float(dict(job.dataset_params).get("scale"), 1.0)
    epochs = _float(dict(job.config).get("epochs"), 40.0)
    weight = 0.05 if job.method in _CHEAP_METHODS else 1.0
    return weight * max(scale, 1e-3) ** 2 * max(epochs, 1.0) * max(1, job.n_runs)


def order_longest_first(
    pending: List[JobSpec], prior: Dict[str, float]
) -> List[JobSpec]:
    """Longest-expected-first submission order (deterministic, stable ties).

    Jobs with a recorded prior ``wall_seconds`` use it directly; the rest
    fall back to :func:`_heuristic_cost`, calibrated into seconds via the
    median prior/heuristic ratio when any priors exist so the two cost
    sources sort on one axis.
    """
    heuristics = [_heuristic_cost(job) for job in pending]
    known = [
        (prior[job.job_id], heuristics[i])
        for i, job in enumerate(pending)
        if prior.get(job.job_id, 0.0) > 0.0
    ]
    calibration = 1.0
    if known:
        seconds = sorted(s for s, _ in known)[len(known) // 2]
        units = sorted(u for _, u in known)[len(known) // 2]
        if units > 0.0:
            calibration = seconds / units

    def _cost(position: int) -> float:
        recorded = prior.get(pending[position].job_id, 0.0)
        return recorded if recorded > 0.0 else heuristics[position] * calibration

    order = sorted(range(len(pending)), key=lambda i: (-_cost(i), i))
    return [pending[i] for i in order]


@dataclass
class SuiteRunReport:
    """Outcome of one :func:`run_suite` invocation."""

    suite: SuiteSpec
    suite_dir: Path
    manifest_path: Path
    artifacts: List[Dict[str, object]] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    jobs_requested: int = 0
    workers: int = 1
    executor: str = SERIAL
    #: Execution-layer telemetry (BLAS caps, dataset-cache hit counts) when
    #: the executor reports any; mirrored in ``manifest["executor_detail"]``
    #: — always outside the job specs, so spec hashes stay invariant.
    executor_detail: Optional[Dict[str, object]] = None

    @property
    def counts(self) -> Dict[str, int]:
        """Job tally per status (``cached`` = skipped by ``resume``)."""
        tally: Dict[str, int] = {}
        for artifact in self.artifacts:
            status = str(artifact.get("status"))
            tally[status] = tally.get(status, 0) + 1
        return tally

    def rows(self) -> List[Dict[str, object]]:
        """Flatten the artifacts into report rows (see ``aggregate``)."""
        from repro.runner.aggregate import artifact_rows

        return artifact_rows(self.artifacts)

    def table(self, title: str = "") -> str:
        """Render the suite results with :func:`repro.eval.reporting.format_table`."""
        from repro.eval.reporting import format_table

        return format_table(self.rows(), title=title or f"suite {self.suite.name}")


def run_suite(
    suite: SuiteSpec,
    output_dir,
    jobs: int = 1,
    resume: bool = False,
    timeout: Optional[float] = None,
    method_resolver: Optional[Callable[[str, object], object]] = None,
    on_job_done: Optional[Callable[[Dict[str, object]], None]] = None,
    emit_artifacts: bool = False,
    executor: Optional[str] = None,
) -> SuiteRunReport:
    """Execute every job of ``suite`` and return the run report.

    Parameters
    ----------
    suite:
        The declarative suite specification.
    output_dir:
        Root artifact directory; this run writes under
        ``<output_dir>/<suite.name>/``.
    jobs:
        Worker slots (worker processes under the process pools).
        ``1`` runs inline under ``"auto"``; ``<= 0`` uses the CPU count.
    resume:
        Skip jobs whose artifact exists, matches the current spec hash, and
        completed successfully (and, with ``emit_artifacts``, whose serve
        artifact is still in the store).
    timeout:
        Per-job wall-clock limit in seconds; overrides ``suite.timeout``
        when given.
    method_resolver:
        Optional replacement for :func:`resolve_method` (must be a picklable
        module-level callable under the ``process-pool`` executor).
    on_job_done:
        Optional callback invoked with each artifact as it completes.
    emit_artifacts:
        Additionally persist every job's alignment as a serve artifact
        under ``<suite_dir>/serve_artifacts/`` (queryable via
        :class:`repro.serve.service.AlignmentService` and the ``query``
        CLI subcommand).
    executor:
        Executor backend name (``"serial"`` / ``"process-pool"`` /
        ``"process-pool-shm"`` / ``"auto"``); overrides
        ``suite.executor_backend`` when given.  Under ``"auto"``, a run
        with one worker or at most one pending job resolves to ``serial``
        (the historical inline path — also what keeps non-picklable
        ``method_resolver`` callables working), anything larger to
        ``process-pool`` where process pools work.  The choice is recorded in the manifest but never
        in the job specs, so spec hashes match across executors.
    """
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    timeout = timeout if timeout is not None else suite.timeout
    suite_dir = Path(output_dir) / suite.name
    jobs_dir = suite_dir / "jobs"
    serve_dir = str(suite_dir / "serve_artifacts") if emit_artifacts else None
    job_specs = suite.jobs()

    from repro import __version__

    started = time.perf_counter()
    artifacts: List[Dict[str, object]] = []
    pending: List[JobSpec] = []
    for job in job_specs:
        artifact_path = jobs_dir / f"{job.job_id}.json"
        cached = _load_cached_artifact(artifact_path, job) if resume else None
        if cached is not None and emit_artifacts and not _serve_artifact_stored(
            cached, Path(serve_dir)
        ):
            # The cached run predates artifact emission, or its serve
            # artifact was deleted since; re-run the job so --emit-artifacts
            # is honoured rather than silently skipped.
            cached = None
        if cached is not None:
            cached = dict(cached)
            cached_version = cached.get("repro_version")
            if cached_version != __version__:
                # Same spec hash, different writer version: the artifact is
                # still reusable (the spec is what defines the job), but the
                # user should know results may mix code generations.
                logger.warning(
                    "job %s: resuming from an artifact written by repro %s "
                    "(current %s); spec hash matches, reusing it",
                    job.job_id,
                    cached_version or "<unrecorded>",
                    __version__,
                )
            cached["status"] = STATUS_CACHED
            artifacts.append(cached)
            if on_job_done is not None:
                on_job_done(cached)
        else:
            pending.append(job)

    # Execution-layer telemetry accumulated across job artifacts.  The
    # per-job ``_executor_detail`` key is transient: popped here before the
    # artifact hits disk, so job JSONs stay byte-identical across executors.
    transport_counts: Dict[str, int] = {}
    observed_caps: set = set()
    observed_cap_methods: set = set()

    def _record(artifact: Dict[str, object]) -> None:
        detail = artifact.pop("_executor_detail", None)
        if isinstance(detail, dict):
            transport = str(detail.get("dataset_transport"))
            transport_counts[transport] = transport_counts.get(transport, 0) + 1
            if detail.get("blas_thread_cap") is not None:
                observed_caps.add(int(detail["blas_thread_cap"]))
            if detail.get("blas_cap_method"):
                observed_cap_methods.add(str(detail["blas_cap_method"]))
        artifact_path = jobs_dir / f"{artifact['job_id']}.json"
        _write_json(artifact_path, artifact)
        artifacts.append(artifact)
        if on_job_done is not None:
            on_job_done(artifact)
        logger.info(
            "job %s finished: %s (%.2fs)",
            artifact["job_id"],
            artifact["status"],
            artifact.get("wall_seconds", 0.0),
        )

    requested = executor if executor is not None else suite.executor_backend
    if requested in (None, "", AUTO_BACKEND) and (jobs == 1 or len(pending) <= 1):
        # The historical inline path: deterministic, zero overhead, and the
        # only mode where a non-picklable method_resolver is usable.
        resolved_executor = SERIAL
    else:
        resolved_executor = resolve_executor_backend(requested or AUTO_BACKEND)
    backend = get_executor_backend(resolved_executor)
    # What ran: the serial executor runs every job inline, on no worker.
    workers = 1 if resolved_executor == SERIAL else jobs

    by_key = {job.job_id: job for job in pending}

    def _skeleton(job: JobSpec, status: str, error: str) -> Dict[str, object]:
        return {
            "job_id": job.job_id,
            "spec": job.to_dict(),
            "spec_hash": job.hash,
            "repro_version": __version__,
            "status": status,
            "result": None,
            "error": error,
            "wall_seconds": 0.0,
        }

    # Cost-model scheduling: under a parallel backend, submit the
    # longest-expected jobs first so the pool's stragglers start early and
    # the tail shrinks.  Serial runs keep the suite's declared order.
    submission = pending
    if resolved_executor != SERIAL and len(pending) > 1:
        submission = order_longest_first(
            pending, _prior_wall_seconds(suite_dir / "manifest.json")
        )

    # Zero-copy dataset staging: for executors that advertise
    # ``supports_shared_datasets``, the coordinator loads each unique
    # (dataset, params) cell once into a shared-memory arena and ships
    # handles instead of pickled CSR buffers.  A dataset that fails to
    # stage (exotic dtypes, load error) falls back to in-worker loading
    # for just its jobs.  ``finally: arena.destroy()`` guarantees the
    # segments are unlinked even on KeyboardInterrupt or a pool crash.
    arena: Optional[SharedArena] = None
    shm_handles: Dict[tuple, Optional[SharedPairHandle]] = {}
    shared_bytes = 0
    supports_shm = bool(getattr(backend, "supports_shared_datasets", False))
    if supports_shm and pending:
        from repro.datasets import load_dataset

        arena = SharedArena()
        for job in submission:
            dataset_key = (job.dataset, job.dataset_params)
            if dataset_key in shm_handles:
                continue
            try:
                staged = load_dataset(job.dataset, **dict(job.dataset_params))
                shm_handles[dataset_key] = share_pair(arena, staged)
            except Exception as error:  # noqa: BLE001 - staging is best-effort
                logger.warning(
                    "dataset %s%s not stageable to shared memory (%s: %s); "
                    "its jobs will load it in-worker",
                    job.dataset,
                    dict(job.dataset_params) or "",
                    type(error).__name__,
                    error,
                )
                shm_handles[dataset_key] = None
        shared_bytes = arena.nbytes

    try:
        backend.submit_jobs(
            [
                ExecutorJob(
                    key=job.job_id,
                    fn=execute_job,
                    args=(job.to_dict(),),
                    kwargs={
                        "method_resolver": method_resolver,
                        "emit_artifacts_dir": serve_dir,
                        "dataset_shm": shm_handles.get(
                            (job.dataset, job.dataset_params)
                        ),
                    },
                )
                for job in submission
            ],
            workers=workers,
            timeout=timeout,
            on_result=lambda key, artifact: _record(artifact),
            on_crash=lambda exec_job, message: _skeleton(
                by_key[exec_job.key], STATUS_FAILED, f"worker crashed: {message}"
            ),
        )
    finally:
        if arena is not None:
            arena.destroy()

    wall_clock = time.perf_counter() - started
    # Keep manifest rows in the suite's deterministic job order.
    by_id = {str(a["job_id"]): a for a in artifacts}
    ordered = [by_id[job.job_id] for job in job_specs if job.job_id in by_id]
    manifest = {
        "suite": suite.to_dict(),
        "repro_version": __version__,
        "workers": workers,
        "executor": resolved_executor,
        "resume": resume,
        "emit_artifacts": emit_artifacts,
        "timeout": timeout,
        "wall_clock_seconds": wall_clock,
        "created_unix": time.time(),
        "jobs": [
            {
                "job_id": a["job_id"],
                "status": a["status"],
                "spec_hash": a["spec_hash"],
                "artifact": f"jobs/{a['job_id']}.json",
                "wall_seconds": a.get("wall_seconds", 0.0),
                **(
                    {"serve_artifact": a["serve_artifact"]["artifact_id"]}
                    if isinstance(a.get("serve_artifact"), dict)
                    else {}
                ),
            }
            for a in ordered
        ],
    }
    # Execution-layer telemetry: manifest-level only (jobs above carry no
    # trace of it), so spec hashes and job artifacts stay
    # executor-invariant and --resume keeps working across backends.
    executor_detail: Optional[Dict[str, object]] = None
    if supports_shm:
        executor_detail = {
            "executor": resolved_executor,
            "workers": workers,
            "cpus": os.cpu_count() or 1,
            "blas_thread_cap": blas_thread_cap(jobs),
            "blas_cap_method": (
                sorted(observed_cap_methods)[0] if observed_cap_methods else None
            ),
            "datasets_staged": sum(
                1 for handle in shm_handles.values() if handle is not None
            ),
            "shared_bytes": shared_bytes,
            "dataset_cache": {
                "hits": transport_counts.get("hit", 0),
                "attaches": transport_counts.get("attach", 0),
                "worker_loads": transport_counts.get("load", 0),
            },
        }
        if observed_caps:
            executor_detail["observed_blas_caps"] = sorted(observed_caps)
        manifest["executor_detail"] = executor_detail
    # Cross-process span aggregation: jobs traced in worker processes ship
    # their registry snapshots home in the artifact payload; merging them is
    # exact because every histogram shares one bucket scheme.  The key is
    # absent when no job carried spans (tracing off), keeping manifests
    # stable for the executor-parity CI check.
    job_snapshots = [
        a["observability"]
        for a in ordered
        if isinstance(a.get("observability"), dict)
    ]
    if job_snapshots:
        from repro.obs.metrics import MetricsRegistry

        merged = MetricsRegistry("suite")
        for snapshot in job_snapshots:
            merged.merge_snapshot(snapshot)
        manifest["observability"] = merged.snapshot()
    manifest_path = suite_dir / "manifest.json"
    _write_json(manifest_path, manifest)
    return SuiteRunReport(
        suite=suite,
        suite_dir=suite_dir,
        manifest_path=manifest_path,
        artifacts=ordered,
        wall_clock_seconds=wall_clock,
        jobs_requested=len(job_specs),
        workers=workers,
        executor=resolved_executor,
        executor_detail=executor_detail,
    )


__all__ = [
    "run_suite",
    "execute_job",
    "order_longest_first",
    "resolve_method",
    "SuiteRunReport",
    "JobTimeout",
    "STATUS_DONE",
    "STATUS_FAILED",
    "STATUS_TIMEOUT",
    "STATUS_CACHED",
]
