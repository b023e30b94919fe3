"""Tests for the zero-copy shared-memory execution substrate.

Covers the :mod:`repro.backend.shm` pieces in isolation — arena lifecycle
(including the leak guarantees after worker death and parent
KeyboardInterrupt), graph-pair staging/attaching, per-worker caches, BLAS
governance — and the ``process-pool-shm`` executor end to end through
``run_suite``: byte-identical results vs serial, manifest telemetry, and
the cost-model submission ordering.
"""

import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

from repro.backend import shm
from repro.backend.executor import ExecutorJob, get_executor_backend
from repro.backend.shm import (
    BLAS_ENV_VARS,
    SharedArena,
    apply_blas_thread_cap,
    attach_array,
    attach_pair,
    blas_thread_cap,
    cached_attach_pair,
    share_pair,
    shm_worker_init,
    single_blas_thread,
    worker_state,
)
from repro.datasets import load_dataset
from repro.runner.executor import (
    _prior_wall_seconds,
    order_longest_first,
    resolve_method,
    run_suite,
)
from repro.runner.spec import JobSpec, SuiteSpec

from _helpers import openblas_thread_counts, set_openblas_threads


def _segment_exists(name: str) -> bool:
    """Probe one shared-memory segment by name (Linux: a /dev/shm entry)."""
    shm_root = Path("/dev/shm")
    if shm_root.is_dir():
        return (shm_root / name).exists()
    try:  # pragma: no cover - non-/dev/shm platforms
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


def _killer_resolver(name, config):
    """Picklable resolver whose ``Killer`` jobs hard-kill their worker
    mid-attach (the dataset was already attached when align runs)."""
    if name == "Killer":

        class _Killer:
            name = "Killer"
            requires_supervision = False

            def align(self, pair, train_anchors=None):
                os._exit(13)

        return _Killer()
    return resolve_method(name, config)


CAP_METHODS = ("env", "openblas", "threadpoolctl")


def _openblas_threads_job(timeout=None):
    return {"threads": openblas_thread_counts()}


class TestBlasGovernance:
    def test_fair_share_formula(self):
        assert blas_thread_cap(4, cpus=8) == 2
        assert blas_thread_cap(8, cpus=8) == 1
        assert blas_thread_cap(3, cpus=8) == 2
        # Never below one thread, however oversubscribed.
        assert blas_thread_cap(16, cpus=4) == 1
        assert blas_thread_cap(1, cpus=4) == 4
        # Degenerate worker counts clamp instead of dividing by zero.
        assert blas_thread_cap(0, cpus=4) == 4

    def test_apply_cap_sets_every_env_knob(self, monkeypatch, restore_openblas_threads):
        for name in BLAS_ENV_VARS:
            monkeypatch.setenv(name, "sentinel")
        method = apply_blas_thread_cap(3)
        assert method in CAP_METHODS
        for name in BLAS_ENV_VARS:
            assert os.environ[name] == "3"

    def test_worker_init_records_cap(self, monkeypatch, restore_openblas_threads):
        for name in BLAS_ENV_VARS:
            monkeypatch.setenv(name, "sentinel")
        shm_worker_init(blas_cap=2)
        try:
            state = worker_state()
            assert state.blas_thread_cap == 2
            assert state.blas_cap_method in CAP_METHODS
            assert state.dataset_cache == {}
        finally:
            shm_worker_init()  # fresh, cap-less state for later tests
        assert worker_state().blas_thread_cap is None

    def test_process_pool_worker_caps_loaded_openblas(self):
        """A worker forked after numpy loaded OpenBLAS (which read its env
        knobs then) still runs at the fair share of threads."""
        if not openblas_thread_counts():
            pytest.skip("no OpenBLAS loaded in this process")
        results = get_executor_backend("process-pool").submit_jobs(
            [ExecutorJob(key="probe", fn=_openblas_threads_job)], workers=2
        )
        threads = results["probe"]["threads"]
        assert threads and set(threads) == {blas_thread_cap(2)}


class TestSingleBlasThread:
    """Training's pin: one BLAS thread inside the block, the old counts after
    it, and the budget that was there on entry."""

    def test_pins_openblas_and_restores_it(self, restore_openblas_threads):
        if not openblas_thread_counts():
            pytest.skip("no OpenBLAS loaded in this process")
        set_openblas_threads(2)
        with single_blas_thread() as budget:
            assert budget == 2
            assert set(openblas_thread_counts()) == {1}
        assert set(openblas_thread_counts()) == {2}

    def test_restores_when_the_block_raises(self, restore_openblas_threads):
        if not openblas_thread_counts():
            pytest.skip("no OpenBLAS loaded in this process")
        set_openblas_threads(2)
        with pytest.raises(RuntimeError, match="boom"):
            with single_blas_thread():
                raise RuntimeError("boom")
        assert set(openblas_thread_counts()) == {2}

    def test_capped_worker_reads_a_budget_of_one(
        self, monkeypatch, restore_openblas_threads
    ):
        if not openblas_thread_counts():
            pytest.skip("no OpenBLAS loaded in this process")
        for name in BLAS_ENV_VARS:  # the cap sets them; monkeypatch restores
            monkeypatch.setenv(name, "sentinel")
        apply_blas_thread_cap(1)
        with single_blas_thread() as budget:
            assert budget == 1

    def test_threadpoolctl_branch(self, monkeypatch):
        """With threadpoolctl importable, the budget is the fewest BLAS
        threads it reports (OpenMP pools do not count) and the pin is its
        ``threadpool_limits(limits=1, user_api="blas")`` block."""
        calls = []

        class _Limits:
            def __init__(self, limits=None, user_api=None):
                calls.append(("limit", limits, user_api))

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                calls.append(("restore",))

        fake = types.ModuleType("threadpoolctl")
        fake.threadpool_info = lambda: [
            {"user_api": "blas", "num_threads": 4},
            {"user_api": "openmp", "num_threads": 1},
            {"user_api": "blas", "num_threads": 2},
        ]
        fake.threadpool_limits = _Limits
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
        with single_blas_thread() as budget:
            assert budget == 2
            assert calls == [("limit", 1, "blas")]
        assert calls[-1] == ("restore",)


class TestSharedArena:
    def test_round_trip_and_readonly(self):
        data = np.arange(12, dtype=np.float64).reshape(3, 4)
        with SharedArena() as arena:
            handle = arena.put(data)
            view = attach_array(handle)
            np.testing.assert_array_equal(view, data)
            assert view.dtype == data.dtype
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 99.0

    def test_keyed_put_dedups_and_refcounts(self):
        data = np.ones(8)
        arena = SharedArena()
        try:
            first = arena.put(data, key="k")
            second = arena.put(data, key="k")
            assert first == second
            assert len(arena.segment_names()) == 1
            # Two references: the first decref keeps the segment alive.
            arena.decref(first)
            assert len(arena.segment_names()) == 1
            assert _segment_exists(first.segment)
            arena.decref(first)
            assert len(arena.segment_names()) == 0
            assert not _segment_exists(first.segment)
        finally:
            arena.destroy()

    def test_destroy_unlinks_every_segment_by_name(self):
        arena = SharedArena()
        handles = [arena.put(np.arange(4, dtype=np.int64)) for _ in range(3)]
        names = arena.segment_names()
        assert len(names) == 3
        assert all(_segment_exists(name) for name in names)
        arena.destroy()
        assert not any(_segment_exists(name) for name in names)
        # Idempotent, and a destroyed arena refuses new work.
        arena.destroy()
        with pytest.raises(RuntimeError):
            arena.put(np.arange(2.0))
        assert handles  # keep the attach handles alive until after destroy

    def test_nbytes_tracks_staged_segments(self):
        with SharedArena() as arena:
            assert arena.nbytes == 0
            arena.put(np.zeros(1000, dtype=np.float64))
            assert arena.nbytes >= 8000

    def test_parent_keyboard_interrupt_leaves_no_orphans(self, tmp_path):
        # An uncaught KeyboardInterrupt still runs atexit hooks — the
        # arena's backstop must unlink its segments on the way down.
        script = tmp_path / "interrupt.py"
        script.write_text(
            textwrap.dedent(
                """
                import numpy as np
                from repro.backend.shm import SharedArena

                arena = SharedArena()
                handle = arena.put(np.arange(64, dtype=np.float64))
                print(handle.segment, flush=True)
                raise KeyboardInterrupt
                """
            )
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        segment_name = proc.stdout.strip().splitlines()[0]
        assert proc.returncode != 0  # the interrupt did terminate it
        assert segment_name.startswith("repro-arena-")
        assert not _segment_exists(segment_name)


class TestPairTransport:
    def test_share_attach_round_trip(self):
        pair = load_dataset("tiny")
        with SharedArena() as arena:
            handle = share_pair(arena, pair)
            attached = attach_pair(handle)
            assert attached.name == pair.name
            assert (attached.source.adjacency != pair.source.adjacency).nnz == 0
            assert (attached.target.adjacency != pair.target.adjacency).nnz == 0
            np.testing.assert_array_equal(
                attached.source.attributes, pair.source.attributes
            )
            np.testing.assert_array_equal(
                attached.ground_truth, pair.ground_truth
            )
            # Zero-copy views are read-only: mutating shared graph data
            # must fail loudly rather than corrupt sibling workers.
            with pytest.raises(ValueError):
                attached.source.adjacency.data[0] = 42.0

    def test_same_pair_stages_once(self):
        pair = load_dataset("tiny")
        with SharedArena() as arena:
            first = share_pair(arena, pair)
            staged = len(arena.segment_names())
            second = share_pair(arena, pair)
            assert second.content_key == first.content_key
            assert len(arena.segment_names()) == staged

    def test_cached_attach_counts_hits(self):
        pair = load_dataset("tiny")
        shm_worker_init()  # clean per-worker cache
        with SharedArena() as arena:
            handle = share_pair(arena, pair)
            first, transport_first = cached_attach_pair(handle)
            second, transport_second = cached_attach_pair(handle)
            assert (transport_first, transport_second) == ("attach", "hit")
            assert first is second
            state = worker_state()
            assert state.dataset_cache_misses == 1
            assert state.dataset_cache_hits == 1
        shm_worker_init()


class TestCostModel:
    def _job(self, method="HTC", scale=None, epochs=None, n_runs=1):
        params = {} if scale is None else {"scale": scale}
        config = {} if epochs is None else {"epochs": epochs}
        return JobSpec.create(
            "econ", method, dataset_params=params, config=config, n_runs=n_runs
        )

    def test_prior_wall_seconds_reads_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "jobs": [
                        {"job_id": "a", "wall_seconds": 4.5},
                        {"job_id": "b", "wall_seconds": 0.0},
                        {"job_id": "c", "wall_seconds": "bogus"},
                    ]
                }
            )
        )
        assert _prior_wall_seconds(manifest) == {"a": 4.5}
        assert _prior_wall_seconds(tmp_path / "missing.json") == {}

    def test_priors_order_longest_first(self):
        fast = self._job(scale=0.1)
        slow = self._job(scale=0.2)
        prior = {fast.job_id: 1.0, slow.job_id: 40.0}
        assert order_longest_first([fast, slow], prior) == [slow, fast]

    def test_heuristic_fallback_orders_by_grid_size(self):
        small = self._job(scale=0.1, epochs=10)
        large = self._job(scale=0.4, epochs=10)
        cheap = self._job(method="Degree", scale=0.4, epochs=10)
        ordered = order_longest_first([cheap, small, large], {})
        assert ordered == [large, small, cheap]

    def test_calibration_puts_heuristics_on_the_prior_axis(self):
        # The recorded 50s job anchors the calibration; the heuristic-only
        # cheap baseline lands well below it on the shared seconds axis.
        htc = self._job(scale=0.1, epochs=10)
        degree = self._job(method="Degree", scale=0.1, epochs=10)
        prior = {htc.job_id: 50.0}
        assert order_longest_first([degree, htc], prior) == [htc, degree]

    def test_ties_keep_submission_order(self):
        first = self._job(scale=0.2, epochs=10)
        second = JobSpec.create(
            "bn", "HTC", dataset_params={"scale": 0.2}, config={"epochs": 10}
        )
        assert order_longest_first([first, second], {}) == [first, second]


def _scrub_timing(value):
    volatile = {"wall_seconds", "time_seconds", "stage_times"}
    if isinstance(value, dict):
        return {
            key: _scrub_timing(inner)
            for key, inner in value.items()
            if key not in volatile
        }
    if isinstance(value, list):
        return [_scrub_timing(inner) for inner in value]
    return value


FAST_CONFIG = {"epochs": 3, "embedding_dim": 8, "orbit_cache": "off"}


class TestProcessPoolShmSuite:
    def _suite(self):
        return SuiteSpec(
            name="shm-e2e",
            datasets=["tiny"],
            methods=["HTC", "Degree"],
            config=dict(FAST_CONFIG),
        )

    def test_bit_identical_to_serial_with_manifest_telemetry(self, tmp_path):
        suite = self._suite()
        serial = run_suite(suite, tmp_path / "serial", executor="serial")
        shm = run_suite(
            suite, tmp_path / "shm", jobs=2, executor="process-pool-shm"
        )
        assert shm.counts == {"done": 2}

        by_id_serial = {a["job_id"]: _scrub_timing(a) for a in serial.artifacts}
        by_id_shm = {a["job_id"]: _scrub_timing(a) for a in shm.artifacts}
        assert by_id_serial == by_id_shm

        manifest = json.loads((shm.suite_dir / "manifest.json").read_text())
        detail = manifest["executor_detail"]
        assert detail == shm.executor_detail
        assert detail["executor"] == "process-pool-shm"
        assert detail["blas_thread_cap"] == blas_thread_cap(2)
        assert detail["datasets_staged"] == 1
        assert detail["shared_bytes"] > 0
        cache = detail["dataset_cache"]
        # Both jobs shipped through the arena: one attach per worker that
        # saw the dataset, hits for every later job in the same worker.
        assert cache["worker_loads"] == 0
        assert cache["attaches"] + cache["hits"] == 2
        # The telemetry stays out of the job specs and artifacts: on-disk
        # payloads are executor-invariant.
        serial_manifest = json.loads(
            (serial.suite_dir / "manifest.json").read_text()
        )
        assert "executor_detail" not in serial_manifest
        for artifact_path in (shm.suite_dir / "jobs").glob("*.json"):
            payload = json.loads(artifact_path.read_text())
            assert "_executor_detail" not in payload
        assert serial.executor_detail is None

    def test_no_segment_leak_after_suite(self, tmp_path):
        before = set(Path("/dev/shm").glob("repro-arena-*"))
        run_suite(
            self._suite(), tmp_path, jobs=2, executor="process-pool-shm"
        )
        after = set(Path("/dev/shm").glob("repro-arena-*"))
        assert after - before == set()

    def test_worker_death_mid_attach_leaves_no_orphans(self, tmp_path):
        # The Killer job os._exits its worker after the dataset attach;
        # the suite must still complete (solo-retry pins the crasher), and
        # only the coordinating arena unlinks — leaving /dev/shm clean.
        suite = SuiteSpec(
            name="shm-crash",
            datasets=["tiny"],
            methods=["Killer", "Degree"],
            config=dict(FAST_CONFIG),
        )
        before = set(Path("/dev/shm").glob("repro-arena-*"))
        report = run_suite(
            suite,
            tmp_path,
            jobs=2,
            executor="process-pool-shm",
            method_resolver=_killer_resolver,
        )
        after = set(Path("/dev/shm").glob("repro-arena-*"))
        assert after - before == set()
        statuses = {
            a["spec"]["method"]: a["status"] for a in report.artifacts
        }
        assert statuses["Degree"] == "done"
        assert statuses["Killer"] == "failed"
        killer = next(
            a for a in report.artifacts if a["spec"]["method"] == "Killer"
        )
        assert "worker crashed" in killer["error"]
