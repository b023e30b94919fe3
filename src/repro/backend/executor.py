"""Job-execution strategies: serial, process pool, zero-copy process pool.

PR 2 hard-wired suite execution to one local
:class:`~concurrent.futures.ProcessPoolExecutor` with in-worker ``SIGALRM``
timeouts.  This module puts job execution behind one
:class:`ExecutorBackend` contract (``submit_jobs(jobs, timeout, on_result)
-> results``) with one strategy per execution model, selected by name:

``"serial"``
    The deterministic zero-overhead reference: jobs run inline, in
    submission order, in the calling process.  Timeouts use the in-process
    ``SIGALRM`` strategy (the job function receives the budget).  A job that
    attempts to kill the interpreter (``SystemExit`` from deep inside a
    worker-style crash) is caught and reported through ``on_crash`` instead
    of taking the suite down.  It is also the path for job callables that
    cannot be pickled.

``"process-pool"``
    The PR-2 behaviour, extracted from ``repro.runner.executor``: a local
    process pool, per-job timeouts enforced *inside* the worker with
    ``SIGALRM``, plus worker-crash recovery — when a worker dies mid-job
    (``BrokenProcessPool``), every job left without a result is retried once
    in an isolated single-worker pool, so the actual crasher is identified
    and marked failed while its innocent neighbours still complete.  Each
    worker caps its BLAS/OpenMP threads to the fair share
    ``max(1, cpus // workers)`` (:func:`repro.backend.shm.shm_worker_init`),
    so N workers never stack N full-width BLAS pools on one box.

``"process-pool-shm"``
    The process pool plus the zero-copy substrate of
    :mod:`repro.backend.shm`: callers that stage job payloads in a
    :class:`~repro.backend.shm.SharedArena` (the suite runner does — graph
    CSR arrays ship as shared-memory handles, attached rather than copied)
    skip the per-job pickle + dataset reload entirely, through a
    per-worker dataset cache.  Scheduling, BLAS capping, crash recovery and
    timeouts are inherited unchanged from ``process-pool``.

``"auto"`` resolves to ``process-pool`` when the interpreter supports
process pools (``multiprocessing.synchronize`` is importable) and to
``serial`` otherwise; ``process-pool-shm`` is selected by name.

The contract every job callable must honour: it is invoked as
``fn(*args, timeout=..., **kwargs)`` and should *return* its failure state
rather than raise (the runner's :func:`repro.runner.executor.execute_job`
already does).  Backends translate everything that escapes anyway —
crashes, pool breakage — into results built by the ``on_crash`` callback,
so one bad job can never kill a suite.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.backend.shm import (
    BLAS_ENV_VARS,
    blas_thread_cap,
    shm_worker_init,
)

#: Selector resolving to the default executor backend.
AUTO_BACKEND = "auto"

#: Executor backend names (the acceptance vocabulary).
SERIAL = "serial"
PROCESS_POOL = "process-pool"
PROCESS_POOL_SHM = "process-pool-shm"


@dataclass
class ExecutorJob:
    """One unit of work handed to an executor backend.

    Attributes
    ----------
    key:
        Stable job identity (the runner uses its ``job_id``); results are
        keyed by it and the crash callback receives the job carrying it.
    fn:
        The job callable, invoked as ``fn(*args, timeout=..., **kwargs)``.
        Must be a picklable module-level callable for ``process-pool``.
    args, kwargs:
        Positional and keyword payload forwarded to ``fn``.
    """

    key: str
    fn: Callable[..., Dict[str, object]]
    args: Tuple[object, ...] = ()
    kwargs: Dict[str, object] = field(default_factory=dict)


#: Result hooks: ``on_result(key, result)`` streams completions (in
#: completion order); ``on_crash(job, message)`` builds the payload for a
#: job whose execution vehicle died.
OnResult = Optional[Callable[[str, Dict[str, object]], None]]
OnCrash = Optional[Callable[[ExecutorJob, str], Dict[str, object]]]


def _default_crash(job: ExecutorJob, message: str) -> Dict[str, object]:
    return {"key": job.key, "status": "failed", "error": message}


class ExecutorBackend:
    """Base contract of one job-execution strategy.

    Subclasses implement :meth:`submit_jobs`; results come back as a dict
    keyed by :attr:`ExecutorJob.key` and are also streamed through
    ``on_result`` in completion order.  Every job yields exactly one result
    — success, crash, or timeout — regardless of what its execution vehicle
    did, so the caller never has to reason about partial suites.
    """

    name = "base"

    def submit_jobs(
        self,
        jobs: Sequence[ExecutorJob],
        *,
        workers: int = 1,
        timeout: Optional[float] = None,
        on_result: OnResult = None,
        on_crash: OnCrash = None,
    ) -> Dict[str, Dict[str, object]]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class SerialExecutor(ExecutorBackend):
    """Run jobs inline, in order — the deterministic reference backend.

    Matches the historical ``run_suite(jobs=1)`` path exactly: no pool, no
    pickling constraint on the job payload, timeouts via the in-process
    ``SIGALRM`` strategy inside the job function itself.
    """

    name = SERIAL

    def submit_jobs(
        self,
        jobs,
        *,
        workers: int = 1,
        timeout: Optional[float] = None,
        on_result: OnResult = None,
        on_crash: OnCrash = None,
    ) -> Dict[str, Dict[str, object]]:
        crash = on_crash if on_crash is not None else _default_crash
        results: Dict[str, Dict[str, object]] = {}
        for job in jobs:
            try:
                result = job.fn(*job.args, timeout=timeout, **job.kwargs)
            except KeyboardInterrupt:  # pragma: no cover - interactive only
                raise
            except BaseException as error:  # noqa: BLE001 - crash becomes a result
                # SystemExit included: the in-process analogue of a worker
                # dying (an os._exit call is not interceptable at all).
                result = crash(
                    job, f"job crashed in-process: {type(error).__name__}: {error}"
                )
            results[job.key] = result
            if on_result is not None:
                on_result(job.key, result)
        return results


class ProcessPoolExecutorBackend(ExecutorBackend):
    """The PR-2 process pool, with worker-crash isolation and recovery.

    Timeouts are enforced *inside* each worker (``SIGALRM`` via the job
    function's ``timeout`` argument), so a job stuck in Python code becomes
    a timeout result instead of wedging the pool.  When a worker dies hard
    (``os._exit``, a segfault — surfacing as ``BrokenProcessPool`` on every
    in-flight future), each job left without a result is retried once in an
    isolated single-worker pool: the crasher reproducibly kills its solo
    pool and is marked failed through ``on_crash``; every other job
    completes normally.

    Every worker, the solo ones included, starts with
    :func:`~repro.backend.shm.shm_worker_init`, which caps its BLAS/OpenMP
    threads to ``max(1, cpus // workers)`` for the requested worker count.
    """

    name = PROCESS_POOL

    @staticmethod
    def _make_pool(max_workers: int, total_workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=shm_worker_init,
            initargs=(blas_thread_cap(total_workers),),
        )

    @contextlib.contextmanager
    def _pool_env(self, total_workers: int):
        """Export the BLAS cap to the environment while the pool may spawn.

        Spawned workers read these knobs before their BLAS loads — earlier
        than the initializer can run; forked workers inherit a BLAS that
        read them long ago and are capped by
        :func:`~repro.backend.shm.shm_worker_init` instead.  The parent's
        values are restored afterwards.
        """
        cap = str(blas_thread_cap(total_workers))
        saved = {name: os.environ.get(name) for name in BLAS_ENV_VARS}
        for name in BLAS_ENV_VARS:
            os.environ[name] = cap
        try:
            yield
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value

    def submit_jobs(
        self,
        jobs,
        *,
        workers: int = 1,
        timeout: Optional[float] = None,
        on_result: OnResult = None,
        on_crash: OnCrash = None,
    ) -> Dict[str, Dict[str, object]]:
        with self._pool_env(max(1, int(workers) if workers else 1)):
            return self._submit_jobs_governed(
                jobs,
                workers=workers,
                timeout=timeout,
                on_result=on_result,
                on_crash=on_crash,
            )

    def _submit_jobs_governed(
        self,
        jobs,
        *,
        workers: int = 1,
        timeout: Optional[float] = None,
        on_result: OnResult = None,
        on_crash: OnCrash = None,
    ) -> Dict[str, Dict[str, object]]:
        crash = on_crash if on_crash is not None else _default_crash
        jobs = list(jobs)
        by_key = {job.key: job for job in jobs}
        results: Dict[str, Dict[str, object]] = {}

        def _emit(key: str, result: Dict[str, object]) -> None:
            results[key] = result
            if on_result is not None:
                on_result(key, result)

        requested_workers = max(1, int(workers) if workers else 1)
        max_workers = min(requested_workers, len(jobs) or 1)
        broken = False
        try:
            with self._make_pool(max_workers, requested_workers) as pool:
                futures = {
                    pool.submit(
                        job.fn, *job.args, timeout=timeout, **job.kwargs
                    ): job.key
                    for job in jobs
                }
                remaining = set(futures)
                while remaining:
                    finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in finished:
                        key = futures[future]
                        try:
                            _emit(key, future.result())
                        except BrokenProcessPool:
                            # A worker died; which job killed it is not
                            # attributable here — every unresolved job goes
                            # through the isolation pass below.
                            broken = True
                        except Exception as error:  # pickling/submission faults
                            _emit(
                                key,
                                crash(
                                    by_key[key],
                                    f"worker failed: {type(error).__name__}: {error}",
                                ),
                            )
        except BrokenProcessPool:  # pragma: no cover - raced pool teardown
            broken = True
        if not broken and len(results) == len(jobs):
            return results

        # Isolation pass: one fresh single-worker pool per unresolved job.
        # The crasher kills only its own pool and gets a failure result;
        # innocent neighbours (whose futures merely shared the broken pool)
        # re-run and complete.
        for job in jobs:
            if job.key in results:
                continue
            try:
                # The solo pool keeps the main pool's worker warm-up (BLAS
                # cap sized for the original worker count, dataset cache),
                # and shared segments are still live: only the coordinating
                # arena unlinks, after submit_jobs returns.
                with self._make_pool(1, requested_workers) as solo:
                    result = solo.submit(
                        job.fn, *job.args, timeout=timeout, **job.kwargs
                    ).result()
            except Exception as error:  # noqa: BLE001 - crash becomes a result
                result = crash(
                    job,
                    "worker crashed (process died mid-job): "
                    f"{type(error).__name__}: {error}",
                )
            _emit(job.key, result)
        return results


class SharedMemoryProcessPoolExecutorBackend(ProcessPoolExecutorBackend):
    """The warm zero-copy process pool (``"process-pool-shm"``).

    Identical scheduling, BLAS capping, timeout and crash-recovery
    behaviour to ``process-pool`` — same base class, same worker
    initializer, same isolation retries — with the per-job overhead
    removed: callers that stage datasets in a :class:`~repro.backend.shm.
    SharedArena` (``run_suite`` does) pass shared-memory handles in the job
    kwargs, so workers attach graph CSR arrays read-only instead of
    unpickling copies, and each dataset is materialised once per worker
    instead of once per job.

    ``supports_shared_datasets`` is the capability flag coordinators key
    on to decide whether staging is worth the parent-side load.
    """

    name = PROCESS_POOL_SHM
    supports_shared_datasets = True


def _process_pool_available() -> bool:
    """Whether process pools work: ``multiprocessing.synchronize`` imports."""
    try:
        import multiprocessing.synchronize  # noqa: F401
    except ImportError:  # pragma: no cover - sem_open-less platforms
        return False
    return True


_EXECUTORS: Dict[str, ExecutorBackend] = {
    SERIAL: SerialExecutor(),
    PROCESS_POOL: ProcessPoolExecutorBackend(),
    PROCESS_POOL_SHM: SharedMemoryProcessPoolExecutorBackend(),
}


def available_executor_backends() -> Tuple[str, ...]:
    """Usable executor backend names, sorted (without the ``"auto"`` alias)."""
    if _process_pool_available():
        return tuple(sorted(_EXECUTORS))
    return (SERIAL,)


def resolve_executor_backend(name: str = AUTO_BACKEND) -> str:
    """Normalise an executor selector (``"auto"`` → the default)."""
    if name == AUTO_BACKEND:
        return PROCESS_POOL if _process_pool_available() else SERIAL
    if name not in _EXECUTORS:
        raise ValueError(
            f"unknown executor backend {name!r}; expected '{AUTO_BACKEND}' "
            f"or one of {available_executor_backends()}"
        )
    if name not in available_executor_backends():
        raise ValueError(
            f"executor backend {name!r} needs process pools, which this "
            "interpreter lacks (multiprocessing.synchronize does not import); "
            f"available: {available_executor_backends()}"
        )
    return name


def get_executor_backend(name: Optional[str] = None) -> ExecutorBackend:
    """The :class:`ExecutorBackend` behind ``name`` (default ``"auto"``)."""
    return _EXECUTORS[resolve_executor_backend(AUTO_BACKEND if name is None else name)]


__all__ = [
    "AUTO_BACKEND",
    "SERIAL",
    "PROCESS_POOL",
    "PROCESS_POOL_SHM",
    "ExecutorJob",
    "ExecutorBackend",
    "SerialExecutor",
    "ProcessPoolExecutorBackend",
    "SharedMemoryProcessPoolExecutorBackend",
    "available_executor_backends",
    "resolve_executor_backend",
    "get_executor_backend",
]
