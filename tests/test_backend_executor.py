"""Tests for the executor backends (``repro.backend.executor``)."""

import os

import pytest

from repro.backend import executor as executor_module
from repro.backend.executor import (
    AUTO_BACKEND,
    PROCESS_POOL,
    PROCESS_POOL_SHM,
    SERIAL,
    ExecutorBackend,
    ExecutorJob,
    ProcessPoolExecutorBackend,
    SerialExecutor,
    SharedMemoryProcessPoolExecutorBackend,
    available_executor_backends,
    get_executor_backend,
    resolve_executor_backend,
)
from repro.core import HTCConfig


# Module-level job callables: the process pool pickles them by reference.
def _ok_job(key, timeout=None):
    return {"key": key, "status": "done", "timeout_seen": timeout}


def _exit_job(key, timeout=None):
    os._exit(13)  # hard worker death: not interceptable in-process


def _raise_job(key, timeout=None):
    raise RuntimeError("boom")


def _system_exit_job(key, timeout=None):
    raise SystemExit(13)


def _jobs(fn_by_key):
    return [ExecutorJob(key=key, fn=fn, args=(key,)) for key, fn in fn_by_key]


class TestSelection:
    def test_three_backends_available(self):
        assert available_executor_backends() == (
            PROCESS_POOL,
            PROCESS_POOL_SHM,
            SERIAL,
        )

    def test_auto_resolves_to_the_process_pool(self):
        assert resolve_executor_backend(AUTO_BACKEND) == PROCESS_POOL
        assert resolve_executor_backend() == PROCESS_POOL

    def test_auto_falls_back_to_serial_without_process_pools(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_process_pool_available", lambda: False)
        assert available_executor_backends() == (SERIAL,)
        assert resolve_executor_backend(AUTO_BACKEND) == SERIAL
        assert isinstance(get_executor_backend(), SerialExecutor)
        with pytest.raises(ValueError, match="needs process pools"):
            resolve_executor_backend(PROCESS_POOL)

    def test_explicit_names_resolve_to_themselves(self):
        for name in (SERIAL, PROCESS_POOL, PROCESS_POOL_SHM):
            assert resolve_executor_backend(name) == name

    @pytest.mark.parametrize("name", ["carrier-pigeon", "thread-pool"])
    def test_unknown_name_lists_the_choices(self, name):
        with pytest.raises(ValueError, match="unknown executor backend") as excinfo:
            resolve_executor_backend(name)
        assert "'serial'" in str(excinfo.value)
        assert "'process-pool'" in str(excinfo.value)

    def test_get_returns_executor_backend_instances(self):
        assert isinstance(get_executor_backend(SERIAL), SerialExecutor)
        assert isinstance(
            get_executor_backend(PROCESS_POOL), ProcessPoolExecutorBackend
        )
        assert isinstance(
            get_executor_backend(PROCESS_POOL_SHM),
            SharedMemoryProcessPoolExecutorBackend,
        )
        assert isinstance(get_executor_backend(), ExecutorBackend)

    def test_none_selects_the_auto_backend(self):
        assert get_executor_backend(None) is get_executor_backend(AUTO_BACKEND)
        assert get_executor_backend(None) is get_executor_backend(PROCESS_POOL)

    def test_config_rejects_pools_without_process_pools(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_process_pool_available", lambda: False)
        for name in (PROCESS_POOL, PROCESS_POOL_SHM):
            with pytest.raises(ValueError, match="executor_backend") as excinfo:
                HTCConfig(executor_backend=name)
            assert "('auto', 'serial')" in str(excinfo.value)
        assert HTCConfig(executor_backend=SERIAL).executor_backend == SERIAL

    def test_only_the_shm_pool_stages_shared_datasets(self):
        staging = {
            name: getattr(
                get_executor_backend(name), "supports_shared_datasets", False
            )
            for name in available_executor_backends()
        }
        assert staging == {
            SERIAL: False,
            PROCESS_POOL: False,
            PROCESS_POOL_SHM: True,
        }


class TestSerialExecutor:
    def test_runs_in_submission_order_and_streams_results(self):
        seen = []
        results = SerialExecutor().submit_jobs(
            _jobs([("a", _ok_job), ("b", _ok_job), ("c", _ok_job)]),
            on_result=lambda key, result: seen.append(key),
        )
        assert seen == ["a", "b", "c"]
        assert {key: r["status"] for key, r in results.items()} == {
            "a": "done",
            "b": "done",
            "c": "done",
        }

    def test_timeout_passes_through_to_the_job(self):
        results = SerialExecutor().submit_jobs(
            _jobs([("a", _ok_job)]), timeout=2.5
        )
        assert results["a"]["timeout_seen"] == 2.5

    def test_system_exit_becomes_a_crash_result(self):
        results = SerialExecutor().submit_jobs(
            _jobs([("a", _ok_job), ("b", _system_exit_job), ("c", _ok_job)]),
            on_crash=lambda job, message: {
                "key": job.key,
                "status": "failed",
                "error": message,
            },
        )
        assert results["a"]["status"] == "done"
        assert results["b"]["status"] == "failed"
        assert "SystemExit" in results["b"]["error"]
        assert results["c"]["status"] == "done"

    def test_default_crash_hook_marks_failed(self):
        results = SerialExecutor().submit_jobs(_jobs([("a", _raise_job)]))
        assert results["a"]["status"] == "failed"
        assert "RuntimeError: boom" in results["a"]["error"]


class TestProcessPoolExecutor:
    backend = ProcessPoolExecutorBackend

    def test_completes_all_jobs(self):
        results = self.backend().submit_jobs(
            _jobs([("a", _ok_job), ("b", _ok_job)]), workers=2
        )
        assert all(r["status"] == "done" for r in results.values())

    def test_worker_exception_becomes_a_result(self):
        results = self.backend().submit_jobs(
            _jobs([("a", _raise_job), ("b", _ok_job)]), workers=2
        )
        assert results["a"]["status"] == "failed"
        assert "RuntimeError" in results["a"]["error"]
        assert results["b"]["status"] == "done"

    def test_dead_worker_fails_only_the_crasher(self):
        # os._exit kills the worker outright -> BrokenProcessPool fails every
        # in-flight future; the isolation pass must pin the failure on the
        # crasher and still complete its innocent neighbours.
        results = self.backend().submit_jobs(
            _jobs([("a", _ok_job), ("killer", _exit_job), ("c", _ok_job)]),
            workers=2,
        )
        assert results["killer"]["status"] == "failed"
        assert "worker crashed" in results["killer"]["error"]
        assert results["a"]["status"] == "done"
        assert results["c"]["status"] == "done"

    def test_jobs_receive_the_timeout_budget(self):
        # Pools enforce timeouts inside the job (SIGALRM); the budget must
        # reach it unchanged.
        results = self.backend().submit_jobs(_jobs([("a", _ok_job)]), timeout=5.0)
        assert results["a"]["timeout_seen"] == 5.0


class TestSharedMemoryProcessPoolExecutor(TestProcessPoolExecutor):
    """The zero-copy pool inherits scheduling, crash recovery and timeouts."""

    backend = SharedMemoryProcessPoolExecutorBackend
