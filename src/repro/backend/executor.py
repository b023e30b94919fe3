"""The ``"executor"`` backend registry: job-execution strategies.

PR 2 hard-wired suite execution to one local
:class:`~concurrent.futures.ProcessPoolExecutor` with in-worker ``SIGALRM``
timeouts, and ``BENCH_runner.json`` showed the cost: the scheduler itself
overlaps fine (3.4x on sleep jobs) but real numpy-heavy jobs *contend* under
the pool on small machines (0.86x).  This module generalises job execution
behind the same named-registry idiom as the ``"orbit"`` and ``"compute"``
kinds (:mod:`repro.backend.registry`): an :class:`ExecutorBackend` contract
(``submit_jobs(jobs, timeout, on_result) -> results``) with one registered
strategy per execution model:

``"serial"``
    The deterministic zero-overhead reference: jobs run inline, in
    submission order, in the calling process.  Timeouts use the in-process
    ``SIGALRM`` strategy (the job function receives the budget).  A job that
    attempts to kill the interpreter (``SystemExit`` from deep inside a
    worker-style crash) is caught and reported through ``on_crash`` instead
    of taking the suite down.

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

``"thread-pool"``
    Jobs run on daemon worker threads in one process.  ``SIGALRM`` cannot
    fire on worker threads (``signal.signal`` is main-thread-only), so the
    timeout strategy moves *outside* the job: the coordinator tracks each
    job's start time and synthesises a timeout result through ``on_timeout``
    once the budget lapses; the abandoned thread keeps running but its late
    result is discarded, and — because the workers are daemons — it can
    never block interpreter exit.  This is the right backend on platforms
    without ``SIGALRM`` and for GIL-releasing numpy jobs (BLAS GEMMs), which
    contend with each other under the process pool but overlap cleanly on
    threads without any fork or pickling cost.

``"process-pool-shm"``
    The process pool plus the zero-copy substrate of
    :mod:`repro.backend.shm`: callers that stage job payloads in a
    :class:`~repro.backend.shm.SharedArena` (the suite runner does — graph
    CSR arrays ship as shared-memory handles, attached rather than copied)
    skip the per-job pickle + dataset reload entirely, through a
    per-worker dataset cache.  Scheduling, BLAS capping, crash recovery and
    timeouts are inherited unchanged from ``process-pool``.

``"auto"`` resolves through the registry's priority order to
``process-pool`` when the interpreter supports it (lazy availability
probing — ``multiprocessing.synchronize`` importability), falling back to
``thread-pool`` and then ``serial``; ``process-pool-shm`` is opt-in
(selected by name) until a machine profile proves it the default.

The contract every job callable must honour: it is invoked as
``fn(*args, timeout=..., **kwargs)`` and should *return* its failure state
rather than raise (the runner's :func:`repro.runner.executor.execute_job`
already does).  Backends translate everything that escapes anyway — crashes,
pool breakage, timeouts — into results built by the ``on_crash`` /
``on_timeout`` callbacks, so one bad job can never kill a suite.
"""

from __future__ import annotations

import contextlib
import os
import queue
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.backend.registry import AUTO_BACKEND, BackendRegistry, get_registry
from repro.backend.shm import (
    BLAS_ENV_VARS,
    blas_thread_cap,
    shm_worker_init,
)

#: Registry kind for job-execution backends.
EXECUTOR_KIND = "executor"

#: Registered backend names (the acceptance vocabulary).
SERIAL = "serial"
PROCESS_POOL = "process-pool"
PROCESS_POOL_SHM = "process-pool-shm"
THREAD_POOL = "thread-pool"

#: How often (seconds) the thread-pool coordinator polls for completions
#: and lapsed timeouts.
_POLL_SECONDS = 0.05


@dataclass
class ExecutorJob:
    """One unit of work handed to an executor backend.

    Attributes
    ----------
    key:
        Stable job identity (the runner uses its ``job_id``); results are
        keyed by it and crash/timeout callbacks receive the job carrying it.
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
#: job whose execution vehicle died; ``on_timeout(job)`` builds the payload
#: for a job whose budget lapsed under an out-of-worker timeout strategy.
OnResult = Optional[Callable[[str, Dict[str, object]], None]]
OnCrash = Optional[Callable[[ExecutorJob, str], Dict[str, object]]]
OnTimeout = Optional[Callable[[ExecutorJob], Dict[str, object]]]


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
        on_timeout: OnTimeout = None,
    ) -> Dict[str, Dict[str, object]]:
        raise NotImplementedError

    # Shared plumbing -------------------------------------------------
    @staticmethod
    def _hooks(on_crash: OnCrash, on_timeout: OnTimeout):
        crash = on_crash if on_crash is not None else _default_crash
        if on_timeout is not None:
            return crash, on_timeout
        return crash, lambda job: crash(job, "job exceeded its wall-clock budget")

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
        on_timeout: OnTimeout = None,
    ) -> Dict[str, Dict[str, object]]:
        crash, _ = self._hooks(on_crash, on_timeout)
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


class ThreadPoolExecutorBackend(ExecutorBackend):
    """Daemon-thread execution with an out-of-worker timeout strategy.

    ``SIGALRM`` cannot be armed on worker threads, so jobs receive
    ``timeout=None`` and the coordinator enforces the budget: once a job's
    wall clock lapses, ``on_timeout`` synthesises its result and the worker
    thread is abandoned (daemon — it cannot block interpreter exit; a late
    result from it is discarded).  Each abandoned worker's slot is released,
    so a stuck job costs one thread, not the suite's concurrency.
    """

    name = THREAD_POOL

    def submit_jobs(
        self,
        jobs,
        *,
        workers: int = 1,
        timeout: Optional[float] = None,
        on_result: OnResult = None,
        on_crash: OnCrash = None,
        on_timeout: OnTimeout = None,
    ) -> Dict[str, Dict[str, object]]:
        crash, lapsed = self._hooks(on_crash, on_timeout)
        workers = max(1, int(workers))
        results: Dict[str, Dict[str, object]] = {}
        done: "queue.Queue[Tuple[str, Dict[str, object]]]" = queue.Queue()
        pending: List[ExecutorJob] = list(jobs)
        active: Dict[str, Tuple[ExecutorJob, float]] = {}

        def _worker(job: ExecutorJob) -> None:
            try:
                result = job.fn(*job.args, timeout=None, **job.kwargs)
            except BaseException as error:  # noqa: BLE001 - crash becomes a result
                result = crash(
                    job, f"job crashed in-process: {type(error).__name__}: {error}"
                )
            done.put((job.key, result))

        def _emit(key: str, result: Dict[str, object]) -> None:
            results[key] = result
            if on_result is not None:
                on_result(key, result)

        while pending or active:
            while pending and len(active) < workers:
                job = pending.pop(0)
                active[job.key] = (job, time.monotonic())
                threading.Thread(target=_worker, args=(job,), daemon=True).start()
            try:
                key, result = done.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                pass
            else:
                if key in active:  # not already timed out
                    del active[key]
                    _emit(key, result)
            if timeout is not None:
                now = time.monotonic()
                for key, (job, started) in list(active.items()):
                    if now - started > timeout:
                        del active[key]  # abandon the runaway daemon thread
                        _emit(key, lapsed(job))
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
        on_timeout: OnTimeout = None,
    ) -> Dict[str, Dict[str, object]]:
        with self._pool_env(max(1, int(workers) if workers else 1)):
            return self._submit_jobs_governed(
                jobs,
                workers=workers,
                timeout=timeout,
                on_result=on_result,
                on_crash=on_crash,
                on_timeout=on_timeout,
            )

    def _submit_jobs_governed(
        self,
        jobs,
        *,
        workers: int = 1,
        timeout: Optional[float] = None,
        on_result: OnResult = None,
        on_crash: OnCrash = None,
        on_timeout: OnTimeout = None,
    ) -> Dict[str, Dict[str, object]]:
        crash, _ = self._hooks(on_crash, on_timeout)
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
    """Lazy probe: process pools need working multiprocessing primitives."""
    try:
        import multiprocessing.synchronize  # noqa: F401
    except ImportError:  # pragma: no cover - sem_open-less platforms
        return False
    return True


def executor_registry() -> BackendRegistry:
    """The shared ``"executor"`` registry, with the built-ins registered.

    Mirrors :func:`repro.orbits.engine.orbit_registry`: each built-in is
    (re-)registered individually if missing, so a test tearing one down can
    never take the others with it for the rest of the process.
    """
    registry = get_registry(EXECUTOR_KIND)
    if SERIAL not in registry.names():
        registry.register(SERIAL, SerialExecutor(), priority=0)
    if THREAD_POOL not in registry.names():
        registry.register(THREAD_POOL, ThreadPoolExecutorBackend(), priority=5)
    if PROCESS_POOL not in registry.names():
        registry.register(
            PROCESS_POOL,
            ProcessPoolExecutorBackend(),
            priority=10,
            available=_process_pool_available,
        )
    if PROCESS_POOL_SHM not in registry.names():
        # Below process-pool: "auto" keeps resolving to the plain pool;
        # the zero-copy pool is selected by name (CLI --executor,
        # SuiteSpec.executor_backend, HTCConfig.executor_backend).
        registry.register(
            PROCESS_POOL_SHM,
            SharedMemoryProcessPoolExecutorBackend(),
            priority=8,
            available=_process_pool_available,
        )
    return registry


def available_executor_backends() -> Tuple[str, ...]:
    """Usable executor backend names (without the ``"auto"`` alias)."""
    return executor_registry().available()


def resolve_executor_backend(name: str = AUTO_BACKEND) -> str:
    """Normalise an executor selector (``"auto"`` → the default)."""
    return executor_registry().resolve(name)


def get_executor_backend(name: Optional[str] = None) -> ExecutorBackend:
    """The :class:`ExecutorBackend` behind ``name`` (default ``"auto"``)."""
    backend = executor_registry().get(AUTO_BACKEND if name is None else name)
    if not isinstance(backend, ExecutorBackend):
        raise TypeError(
            f"executor backend {name!r} is not an ExecutorBackend "
            f"(got {type(backend).__name__}); register execution strategies "
            "via repro.backend.executor.executor_registry()"
        )
    return backend


__all__ = [
    "EXECUTOR_KIND",
    "SERIAL",
    "PROCESS_POOL",
    "PROCESS_POOL_SHM",
    "THREAD_POOL",
    "ExecutorJob",
    "ExecutorBackend",
    "SerialExecutor",
    "ThreadPoolExecutorBackend",
    "ProcessPoolExecutorBackend",
    "SharedMemoryProcessPoolExecutorBackend",
    "executor_registry",
    "available_executor_backends",
    "resolve_executor_backend",
    "get_executor_backend",
]
