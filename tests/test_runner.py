"""Tests for the ``repro.runner`` suite subsystem."""

import json

import numpy as np
import pytest
from _helpers import BLOCK_BUDGETS, set_block_budget

from repro.datasets.io import pair_digest
from repro.eval.protocol import MethodResult
from repro.runner import (
    JobSpec,
    SuiteSpec,
    format_suite_table,
    load_artifacts,
    load_manifest,
    resolve_method,
    run_suite,
    to_method_results,
)
from repro.runner.executor import execute_job

FAST_CONFIG = {"epochs": 3, "embedding_dim": 8, "orbit_cache": "off"}


def _sleepy_resolver(name, config):
    """Method resolver whose jobs block until the SIGALRM budget fires.

    The timeout tests used to rely on a real HTC job out-running a 0.3 s
    budget, which made them hostage to machine speed; a sleeping aligner
    exercises the same timeout machinery deterministically (``time.sleep``
    is interrupted by the alarm signal).
    """
    import time as _time

    class _Sleeper:
        name = "Sleeper"
        requires_supervision = False

        def align(self, pair, train_anchors=None):
            _time.sleep(30.0)
            return np.zeros((pair.source.n_nodes, pair.target.n_nodes))

    return _Sleeper()


def _hard_exit_resolver(name, config):
    """Resolver whose ``Killer`` jobs take their worker process down.

    ``os._exit`` bypasses every Python-level handler — under the process
    pool the worker simply dies mid-job (``BrokenProcessPool``).  Only safe
    with the process-pool executor; in-process backends would lose the
    test process itself.
    """
    import os as _os

    if name != "Killer":
        return resolve_method(name, config)

    class _Killer:
        name = "Killer"
        requires_supervision = False

        def align(self, pair, train_anchors=None):
            _os._exit(13)

    return _Killer()


def _system_exit_resolver(name, config):
    """The in-process analogue of :func:`_hard_exit_resolver`.

    ``SystemExit`` is the closest interceptable stand-in for a dying
    worker under the serial executor (a real ``os._exit`` would kill the
    whole test process); it must report the same worker-crashed failure the
    process pool does.
    """
    if name != "Killer":
        return resolve_method(name, config)

    class _Killer:
        name = "Killer"
        requires_supervision = False

        def align(self, pair, train_anchors=None):
            raise SystemExit(13)

    return _Killer()


def _tiny_suite(name="unit", methods=("Degree", "Attribute"), **overrides):
    payload = dict(
        name=name,
        datasets=["tiny"],
        methods=list(methods),
        config=dict(FAST_CONFIG),
    )
    payload.update(overrides)
    return SuiteSpec(**payload)


class TestSpecs:
    def test_job_expansion_cross_product(self):
        suite = SuiteSpec(
            name="grid",
            datasets=["tiny", {"name": "econ", "params": {"scale": 0.2}}],
            methods=["HTC", "Degree"],
            grid={"n_neighbors": [5, 10], "epochs": [3]},
        )
        jobs = suite.jobs()
        assert len(jobs) == 2 * 2 * 2
        assert {j.dataset for j in jobs} == {"tiny", "econ"}
        assert {dict(j.config)["n_neighbors"] for j in jobs} == {5, 10}

    def test_job_hash_is_deterministic_and_sensitive(self):
        job = JobSpec.create("tiny", "HTC", config={"epochs": 5})
        same = JobSpec.create("tiny", "HTC", config={"epochs": 5})
        other = JobSpec.create("tiny", "HTC", config={"epochs": 6})
        assert job.hash == same.hash
        assert job.job_id == same.job_id
        assert job.hash != other.hash

    def test_suite_roundtrip(self):
        suite = _tiny_suite(grid={"epochs": [2, 3]}, timeout=12.5)
        clone = SuiteSpec.from_dict(suite.to_dict())
        assert [j.hash for j in clone.jobs()] == [j.hash for j in suite.jobs()]

    def test_suite_from_json_file(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(_tiny_suite().to_dict()))
        loaded = SuiteSpec.from_json_file(path)
        assert loaded.name == "unit"
        assert loaded.methods == ["Degree", "Attribute"]

    def test_duplicate_cells_collapse_to_one_job(self):
        suite = SuiteSpec(
            name="dup",
            datasets=["tiny", "tiny"],
            methods=["Degree", "Degree"],
            grid={"n_neighbors": [5, 5]},
        )
        jobs = suite.jobs()
        assert len(jobs) == 1

    def test_suite_validation(self):
        with pytest.raises(ValueError):
            SuiteSpec(name="", datasets=["tiny"], methods=["HTC"])
        with pytest.raises(ValueError):
            SuiteSpec(name="x", datasets=[], methods=["HTC"])
        with pytest.raises(ValueError):
            SuiteSpec(name="x", datasets=["tiny"], methods=[])
        with pytest.raises(ValueError):
            SuiteSpec(name="x", datasets=["tiny"], methods=["HTC"], timeout=0)


class TestResolveMethod:
    def test_resolves_htc_variants_and_baselines(self):
        from repro.core import HTCConfig

        config = HTCConfig(epochs=2)
        assert resolve_method("HTC", config).name == "HTC"
        assert resolve_method("HTC-L", config).name == "HTC-L"
        assert resolve_method("IsoRank", config).name == "IsoRank"

    def test_unknown_method_raises(self):
        from repro.core import HTCConfig

        with pytest.raises(KeyError):
            resolve_method("NoSuchMethod", HTCConfig())

    def test_every_variant_name_resolves_and_is_listed_once(self):
        from repro.core import HTCAligner, HTCConfig
        from repro.core.variants import VARIANTS
        from repro.runner.executor import known_method_names

        names = known_method_names()
        assert names[: len(VARIANTS)] == tuple(VARIANTS)
        config = HTCConfig(epochs=2)
        for name in VARIANTS:
            assert names.count(name) == 1
            method = resolve_method(name, config)
            assert isinstance(method, HTCAligner) and method.name == name
        for alias in ("HTC-HT", "htc"):
            assert alias not in names
            with pytest.raises(KeyError):
                resolve_method(alias, config)

    def test_galign_takes_the_model_settings_of_the_config(self):
        from repro.baselines import GAlign
        from repro.core import HTCConfig

        config = HTCConfig(
            embedding_dim=8, n_layers=3, epochs=5, learning_rate=0.02, random_state=4
        )
        method = resolve_method("GAlign", config)
        assert isinstance(method, GAlign)
        assert (
            method.embedding_dim,
            method.n_layers,
            method.epochs,
            method.learning_rate,
            method.random_state,
        ) == (8, 3, 5, 0.02, 4)
        assert method.augment_ratio == GAlign().augment_ratio
        assert vars(resolve_method("GAlign", HTCConfig())) == vars(GAlign())

    def test_galign_suite_job_scores_at_the_job_settings(self, tmp_path):
        from repro.baselines import GAlign
        from repro.datasets import load_dataset
        from repro.serve import load_artifact

        suite = _tiny_suite(
            name="galign", methods=("GAlign",), config={"epochs": 5, "embedding_dim": 8}
        )
        report = run_suite(suite, tmp_path, emit_artifacts=True)
        (artifact,) = report.artifacts
        assert artifact["status"] == "done"
        emitted = artifact["serve_artifact"]["artifact_id"]
        loaded = load_artifact(tmp_path / "galign" / "serve_artifacts", emitted)
        (job,) = suite.jobs()
        pair = load_dataset(job.dataset, **dict(job.dataset_params))
        expected = GAlign(embedding_dim=8, epochs=5, random_state=job.seed).align(pair)
        np.testing.assert_array_equal(loaded.result.alignment_matrix, expected)


class TestExecuteJob:
    def test_successful_job_artifact(self):
        job = JobSpec.create("tiny", "Degree", config=dict(FAST_CONFIG))
        artifact = execute_job(job.to_dict())
        assert artifact["status"] == "done"
        assert artifact["spec_hash"] == job.hash
        result = MethodResult.from_dict(artifact["result"])
        assert result.dataset == "tiny"
        assert "p@1" in result.metrics

    def test_failure_is_captured_not_raised(self):
        job = JobSpec.create("tiny", "NoSuchMethod")
        artifact = execute_job(job.to_dict())
        assert artifact["status"] == "failed"
        assert "NoSuchMethod" in artifact["error"]

    def test_timeout_is_captured(self):
        job = JobSpec.create("tiny", "HTC", config=dict(FAST_CONFIG))
        artifact = execute_job(
            job.to_dict(), timeout=0.3, method_resolver=_sleepy_resolver
        )
        assert artifact["status"] == "timeout"
        assert "0.3" in artifact["error"]


class TestRunSuite:
    def test_serial_run_writes_artifacts_and_manifest(self, tmp_path):
        suite = _tiny_suite()
        report = run_suite(suite, tmp_path, jobs=1)
        assert report.counts == {"done": 2}
        manifest = load_manifest(report.suite_dir)
        assert len(manifest["jobs"]) == 2
        assert all(j["status"] == "done" for j in manifest["jobs"])
        artifacts = load_artifacts(report.suite_dir)
        assert len(artifacts) == 2
        assert {a["spec"]["method"] for a in artifacts} == {"Degree", "Attribute"}

    def test_parallel_run_matches_serial_metrics(self, tmp_path):
        suite = _tiny_suite(name="par", methods=("Degree", "Attribute", "IsoRank"))
        serial = run_suite(suite, tmp_path / "serial", jobs=1)
        parallel = run_suite(suite, tmp_path / "parallel", jobs=2)
        assert parallel.counts == {"done": 3}

        def metrics(report):
            return {
                r.method: r.metrics for r in to_method_results(report.artifacts)
            }

        serial_metrics = metrics(serial)
        parallel_metrics = metrics(parallel)
        assert serial_metrics.keys() == parallel_metrics.keys()
        for method in serial_metrics:
            for key, value in serial_metrics[method].items():
                assert parallel_metrics[method][key] == pytest.approx(value)

    def test_resume_skips_completed_jobs(self, tmp_path):
        suite = _tiny_suite(name="resume")
        first = run_suite(suite, tmp_path, jobs=1)
        assert first.counts == {"done": 2}
        second = run_suite(suite, tmp_path, jobs=1, resume=True)
        assert second.counts == {"cached": 2}
        # Without --resume everything re-runs.
        third = run_suite(suite, tmp_path, jobs=1)
        assert third.counts == {"done": 2}

    def test_resume_invalidated_by_spec_change(self, tmp_path):
        suite = _tiny_suite(name="invalidate")
        run_suite(suite, tmp_path, jobs=1)
        changed = _tiny_suite(name="invalidate")
        changed.config["epochs"] = 4
        report = run_suite(changed, tmp_path, jobs=1, resume=True)
        assert report.counts == {"done": 2}

    def test_resume_ignores_failed_artifacts(self, tmp_path):
        suite = _tiny_suite(name="refail", methods=("NoSuchMethod",))
        first = run_suite(suite, tmp_path, jobs=1)
        assert first.counts == {"failed": 1}
        second = run_suite(suite, tmp_path, jobs=1, resume=True)
        assert second.counts == {"failed": 1}

    def test_resume_reruns_a_rewritten_dir_dataset(self, tmp_path):
        from repro.datasets import save_pair
        from repro.datasets.synthetic import tiny_pair

        data = tmp_path / "pair"
        save_pair(tiny_pair(60, random_state=0), data)
        suite = SuiteSpec(name="dir", datasets=[f"dir:{data}"], methods=["Degree"])
        first = run_suite(suite, tmp_path / "out", jobs=1)
        save_pair(tiny_pair(60, random_state=1), data)
        resumed = run_suite(suite, tmp_path / "out", jobs=1, resume=True)
        fresh = run_suite(suite, tmp_path / "fresh", jobs=1)

        def p_at_1(report):
            (artifact,) = report.artifacts
            return artifact["result"]["metrics"]["p@1"]

        assert resumed.counts == {"done": 1}
        assert p_at_1(resumed) == p_at_1(fresh) != p_at_1(first)
        # The digest rides in the artifact; spec hashes and job ids stay.
        assert [a["job_id"] for a in resumed.artifacts] == [
            a["job_id"] for a in first.artifacts
        ]
        assert resumed.artifacts[0]["spec_hash"] == first.artifacts[0]["spec_hash"]
        assert resumed.artifacts[0]["dataset_digest"] == pair_digest(data)
        again = run_suite(suite, tmp_path / "out", jobs=1, resume=True)
        assert again.counts == {"cached": 1}

    def test_resume_reruns_a_dir_artifact_without_a_digest(self, tmp_path):
        from repro.datasets import save_pair
        from repro.datasets.synthetic import tiny_pair

        save_pair(tiny_pair(40, random_state=0), tmp_path / "pair")
        suite = SuiteSpec(
            name="nodigest", datasets=[f"dir:{tmp_path / 'pair'}"], methods=["Degree"]
        )
        report = run_suite(suite, tmp_path / "out", jobs=1)
        (artifact_path,) = (tmp_path / "out" / "nodigest" / "jobs").glob("*.json")
        payload = json.loads(artifact_path.read_text())
        del payload["dataset_digest"]  # as an older writer left it
        artifact_path.write_text(json.dumps(payload))
        assert run_suite(suite, tmp_path / "out", jobs=1, resume=True).counts == {
            "done": 1
        }
        assert report.counts == {"done": 1}

    def test_generated_datasets_record_no_digest(self, tmp_path):
        report = run_suite(_tiny_suite(name="nodir"), tmp_path, jobs=1)
        assert all("dataset_digest" not in a for a in report.artifacts)

    def test_timeout_artifact_status(self, tmp_path):
        suite = SuiteSpec(
            name="slow",
            datasets=["tiny"],
            methods=["HTC"],
            config=dict(FAST_CONFIG),
            timeout=0.3,
        )
        report = run_suite(
            suite, tmp_path, jobs=1, method_resolver=_sleepy_resolver
        )
        assert report.counts == {"timeout": 1}

    def test_report_table_renders(self, tmp_path):
        suite = _tiny_suite(name="table")
        report = run_suite(suite, tmp_path, jobs=1)
        text = report.table()
        assert "Degree" in text and "tiny" in text and "status" in text
        assert "done" in text


class TestExecutorBackends:
    def test_manifest_and_report_record_the_executor(self, tmp_path):
        suite = _tiny_suite(name="exec-record")
        report = run_suite(suite, tmp_path, jobs=2, executor="process-pool")
        assert report.executor == "process-pool"
        manifest = load_manifest(report.suite_dir)
        assert manifest["executor"] == "process-pool"

    def test_single_job_auto_stays_serial(self, tmp_path):
        report = run_suite(
            _tiny_suite(name="exec-auto", methods=("Degree",)), tmp_path, jobs=1
        )
        assert report.executor == "serial"
        assert load_manifest(report.suite_dir)["executor"] == "serial"

    def test_single_job_with_two_workers_runs_inline_on_one(self, tmp_path):
        """A one-job suite under ``auto`` runs inline even with ``jobs=2``,
        and says so: no worker ran beside the calling process."""
        report = run_suite(
            _tiny_suite(name="exec-one-job", methods=("Degree",)), tmp_path, jobs=2
        )
        assert report.executor == "serial"
        assert report.workers == 1
        manifest = load_manifest(report.suite_dir)
        assert (manifest["executor"], manifest["workers"]) == ("serial", 1)

    @pytest.mark.parametrize(
        "executor, workers", [("serial", 1), ("process-pool", 2)]
    )
    def test_workers_say_what_ran(self, tmp_path, executor, workers):
        report = run_suite(
            _tiny_suite(name="exec-workers"), tmp_path, jobs=2, executor=executor
        )
        assert report.workers == workers
        assert load_manifest(report.suite_dir)["workers"] == workers

    def test_spec_hashes_identical_across_executors(self, tmp_path):
        """The executor choice must never leak into job identity."""
        suite = _tiny_suite(name="exec-hash")

        def hashes(executor):
            report = run_suite(
                suite,
                tmp_path / executor,
                jobs=2,
                executor=executor,
            )
            manifest = load_manifest(report.suite_dir)
            return sorted(
                (j["job_id"], j["spec_hash"], j["status"])
                for j in manifest["jobs"]
            )

        serial = hashes("serial")
        assert hashes("process-pool") == serial
        assert hashes("process-pool-shm") == serial

    def test_suite_spec_executor_backend_is_used(self, tmp_path):
        # Two workers and two jobs: "auto" would pick the process pool.
        suite = _tiny_suite(name="exec-spec", executor_backend="serial")
        report = run_suite(suite, tmp_path, jobs=2)
        assert report.executor == "serial"

    def test_explicit_argument_overrides_suite_spec(self, tmp_path):
        suite = _tiny_suite(name="exec-override", executor_backend="process-pool")
        report = run_suite(suite, tmp_path, jobs=2, executor="serial")
        assert report.executor == "serial"

    @pytest.mark.parametrize(
        "executor", ["serial", "process-pool", "process-pool-shm"]
    )
    def test_every_executor_enforces_the_job_timeout(self, tmp_path, executor):
        # Every remaining executor enforces the budget inside the job with
        # SIGALRM; none abandons a running job from outside.
        suite = SuiteSpec(
            name="slow-" + executor,
            datasets=["tiny"],
            methods=["HTC"],
            config=dict(FAST_CONFIG),
            timeout=0.3,
        )
        report = run_suite(
            suite,
            tmp_path,
            jobs=2,
            executor=executor,
            method_resolver=_sleepy_resolver,
        )
        assert report.executor == executor
        assert report.counts == {"timeout": 1}
        (artifact,) = report.artifacts
        assert "0.3" in artifact["error"]

    def test_removed_executor_in_suite_file_fails_before_any_job(self, tmp_path):
        spec = tmp_path / "suite.json"
        payload = _tiny_suite(name="exec-removed").to_dict()
        payload["executor_backend"] = "thread-pool"
        spec.write_text(json.dumps(payload))
        suite = SuiteSpec.from_json_file(spec)
        with pytest.raises(ValueError, match="unknown executor backend") as excinfo:
            run_suite(suite, tmp_path / "out", jobs=2)
        assert "('process-pool', 'process-pool-shm', 'serial')" in str(excinfo.value)
        assert not list((tmp_path / "out").rglob("*.json"))

    def test_removed_orbit_backend_in_suite_file_fails_before_any_job(
        self, tmp_path
    ):
        spec = tmp_path / "suite.json"
        payload = _tiny_suite(name="orbit-removed", methods=("HTC",)).to_dict()
        payload["config"]["orbit_backend"] = "auto"
        spec.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="config key 'orbit_backend'"):
            SuiteSpec.from_json_file(spec)
        # The CLI builds the same spec before it writes anything, and
        # reports the error as a usage error.
        from repro.cli import main

        output = str(tmp_path / "out")
        assert main(["run-suite", "--suite", str(spec), "--output", output]) == 2
        assert [path.name for path in tmp_path.iterdir()] == ["suite.json"]

    @pytest.mark.parametrize(
        "where, key, value",
        [
            # Fields HTCConfig no longer has: the compute backend, the
            # encoder-sharing flag, the stitch carrier and the orbit counter.
            ("config", "backend", "numpy"),
            ("config", "shared_encoder", True),
            ("config", "extra", {"stitch": "streaming"}),
            ("grid", "orbit_backend", ["numpy", "python"]),
        ],
    )
    def test_unknown_config_keys_fail_when_the_suite_is_built(
        self, where, key, value
    ):
        payload = _tiny_suite(name="unknown-key").to_dict()
        payload[where][key] = value
        with pytest.raises(ValueError, match=f"{where} key '{key}'"):
            SuiteSpec.from_dict(payload)

    def test_every_unknown_key_is_named(self):
        with pytest.raises(ValueError) as excinfo:
            _tiny_suite(
                config={"epochs": 3, "orbit_backend": "auto", "backend": "numpy"},
                grid={"n_neighbors": [5], "extra": [{}]},
            )
        message = str(excinfo.value)
        for name in (
            "config key 'backend'",
            "config key 'orbit_backend'",
            "grid key 'extra'",
        ):
            assert name in message
        assert "epochs" not in message and "n_neighbors" not in message

    def test_config_values_are_still_checked_per_job(self, tmp_path):
        suite = _tiny_suite(name="bad-value", config={"epochs": 0})
        report = run_suite(suite, tmp_path, jobs=1)
        assert report.counts == {"failed": 2}
        assert all("epochs must be >= 1" in a["error"] for a in report.artifacts)

    def test_bad_activation_fails_each_job(self, tmp_path):
        suite = _tiny_suite(
            name="bad-activation", config={"activation": "bogus", "n_layers": 1}
        )
        report = run_suite(suite, tmp_path, jobs=1)
        assert report.counts == {"failed": 2}
        assert all("unknown activation 'bogus'" in a["error"] for a in report.artifacts)


class TestWorkerCrashRecovery:
    """A dying worker fails its own job, never the suite (all backends)."""

    def _crash_suite(self):
        return _tiny_suite(name="crashy", methods=("Degree", "Killer"))

    def _statuses(self, report):
        return {
            a["spec"]["method"]: a["status"] for a in report.artifacts
        }

    def test_process_pool_survives_worker_death(self, tmp_path):
        report = run_suite(
            self._crash_suite(),
            tmp_path,
            jobs=2,
            executor="process-pool",
            method_resolver=_hard_exit_resolver,
        )
        assert self._statuses(report) == {"Degree": "done", "Killer": "failed"}
        (killed,) = [a for a in report.artifacts if a["spec"]["method"] == "Killer"]
        assert "worker crashed" in killed["error"]

    def test_shared_memory_pool_survives_worker_death(self, tmp_path):
        report = run_suite(
            self._crash_suite(),
            tmp_path,
            jobs=2,
            executor="process-pool-shm",
            method_resolver=_hard_exit_resolver,
        )
        assert self._statuses(report) == {"Degree": "done", "Killer": "failed"}
        (killed,) = [a for a in report.artifacts if a["spec"]["method"] == "Killer"]
        assert "worker crashed" in killed["error"]

    def test_in_process_backend_fails_identically(self, tmp_path):
        report = run_suite(
            self._crash_suite(),
            tmp_path,
            jobs=2,
            executor="serial",
            method_resolver=_system_exit_resolver,
        )
        assert self._statuses(report) == {"Degree": "done", "Killer": "failed"}
        (killed,) = [a for a in report.artifacts if a["spec"]["method"] == "Killer"]
        assert "worker crashed" in killed["error"]

    def test_crashed_job_reruns_under_resume(self, tmp_path):
        suite = self._crash_suite()
        run_suite(
            suite,
            tmp_path,
            jobs=2,
            executor="process-pool",
            method_resolver=_hard_exit_resolver,
        )
        # Resume with a healthy resolver: the failed job re-runs, the done
        # job is reused from its artifact.
        report = run_suite(
            suite, tmp_path, jobs=1, resume=True, method_resolver=resolve_method
        )
        assert report.counts == {"cached": 1, "failed": 1}


class TestEmitArtifacts:
    def test_jobs_emit_serve_artifacts(self, tmp_path):
        suite = _tiny_suite(name="emit", methods=("Degree",))
        report = run_suite(suite, tmp_path, emit_artifacts=True)
        (artifact,) = report.artifacts
        assert artifact["status"] == "done"
        emitted = artifact["serve_artifact"]
        assert emitted["artifact_id"]
        serve_dir = tmp_path / "emit" / "serve_artifacts"
        assert (serve_dir / emitted["artifact_id"] / "manifest.json").is_file()

    def test_emitted_artifact_answers_parity_queries(self, tmp_path):
        from repro.core import HTCConfig
        from repro.datasets import load_dataset
        from repro.eval.protocol import run_method
        from repro.runner.executor import resolve_method
        from repro.serve import AlignmentService, load_artifact
        from repro.similarity.matching import top_k_indices

        suite = _tiny_suite(name="emit-parity", methods=("HTC",))
        report = run_suite(suite, tmp_path, emit_artifacts=True)
        (artifact,) = report.artifacts
        emitted = artifact["serve_artifact"]["artifact_id"]
        store = tmp_path / "emit-parity" / "serve_artifacts"

        # Recompute the same job inline to get the dense reference.
        job = suite.jobs()[0]
        config = HTCConfig(**{**dict(job.config), "random_state": job.seed})
        method = resolve_method(job.method, config)
        pair = load_dataset(job.dataset, **dict(job.dataset_params))
        run_method(method, pair, random_state=job.seed)
        dense = method.last_result_.alignment_matrix

        loaded = load_artifact(store, emitted)
        np.testing.assert_array_equal(loaded.result.alignment_matrix, dense)
        service = AlignmentService()
        service.add(loaded)
        rows = np.arange(dense.shape[0])
        np.testing.assert_array_equal(
            service.match(emitted, rows), dense.argmax(axis=1)
        )
        np.testing.assert_array_equal(
            service.top_k(emitted, rows, 5), top_k_indices(dense, 5)
        )

    def test_manifest_records_artifact_ids(self, tmp_path):
        suite = _tiny_suite(name="emit-manifest", methods=("Degree",))
        run_suite(suite, tmp_path, emit_artifacts=True)
        manifest = json.loads(
            (tmp_path / "emit-manifest" / "manifest.json").read_text()
        )
        assert manifest["emit_artifacts"] is True
        assert all("serve_artifact" in entry for entry in manifest["jobs"])

    def test_no_emission_by_default(self, tmp_path):
        suite = _tiny_suite(name="no-emit", methods=("Degree",))
        report = run_suite(suite, tmp_path)
        (artifact,) = report.artifacts
        assert "serve_artifact" not in artifact
        assert not (tmp_path / "no-emit" / "serve_artifacts").exists()

    def test_resume_reruns_cached_jobs_missing_artifacts(self, tmp_path):
        """--resume --emit-artifacts must not skip jobs that never emitted."""
        suite = _tiny_suite(name="late-emit", methods=("Degree",))
        run_suite(suite, tmp_path)  # first run: no artifacts
        report = run_suite(suite, tmp_path, resume=True, emit_artifacts=True)
        (artifact,) = report.artifacts
        assert artifact["status"] == "done"  # re-ran, not cached
        assert "serve_artifact" in artifact
        # a second resume now finds the artifact and skips
        report = run_suite(suite, tmp_path, resume=True, emit_artifacts=True)
        (artifact,) = report.artifacts
        assert artifact["status"] == "cached"

    @pytest.mark.parametrize("deleted", ["store", "artifact"])
    def test_resume_reruns_cached_jobs_whose_artifact_is_gone(
        self, tmp_path, deleted
    ):
        """A cached job is only cached while its serve artifact is stored."""
        import shutil

        from repro.serve import load_artifact

        suite = _tiny_suite(name="pruned", methods=("Degree",))
        (first,) = run_suite(suite, tmp_path, emit_artifacts=True).artifacts
        store = tmp_path / "pruned" / "serve_artifacts"
        artifact_id = first["serve_artifact"]["artifact_id"]
        shutil.rmtree(store if deleted == "store" else store / artifact_id)
        report = run_suite(suite, tmp_path, resume=True, emit_artifacts=True)
        (artifact,) = report.artifacts
        assert artifact["status"] == "done"  # re-ran, not cached
        emitted = artifact["serve_artifact"]["artifact_id"]
        assert load_artifact(store, emitted).artifact_id == emitted


class TestAggregation:
    def test_format_suite_table_includes_failures(self, tmp_path):
        suite = _tiny_suite(name="mixed", methods=("Degree", "NoSuchMethod"))
        report = run_suite(suite, tmp_path, jobs=1)
        table = format_suite_table(report.artifacts, title="mixed")
        assert "failed" in table and "done" in table

    def test_to_method_results_skips_failures(self, tmp_path):
        suite = _tiny_suite(name="skipf", methods=("Degree", "NoSuchMethod"))
        report = run_suite(suite, tmp_path, jobs=1)
        results = to_method_results(report.artifacts)
        assert [r.method for r in results] == ["Degree"]

    def test_load_artifacts_without_manifest(self, tmp_path):
        suite = _tiny_suite(name="nomanifest")
        report = run_suite(suite, tmp_path, jobs=1)
        (report.suite_dir / "manifest.json").unlink()
        artifacts = load_artifacts(report.suite_dir)
        assert len(artifacts) == 2


class TestCLIRunSuite:
    def test_run_suite_command(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "run-suite",
                "--datasets",
                "tiny",
                "--methods",
                "Degree",
                "Attribute",
                "--epochs",
                "3",
                "--dim",
                "8",
                "--jobs",
                "1",
                "--output",
                str(tmp_path),
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "manifest written" in output
        assert "done: 2" in output

    def test_run_suite_resume_flag(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "run-suite",
            "--datasets",
            "tiny",
            "--methods",
            "Degree",
            "--epochs",
            "3",
            "--dim",
            "8",
            "--output",
            str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        assert "cached: 1" in capsys.readouterr().out

    def test_run_suite_from_json(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "suite.json"
        spec_path.write_text(json.dumps(_tiny_suite(name="fromjson").to_dict()))
        code = main(
            [
                "run-suite",
                "--suite",
                str(spec_path),
                "--jobs",
                "1",
                "--output",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        manifest = load_manifest(tmp_path / "out" / "fromjson")
        assert len(manifest["jobs"]) == 2

    def test_run_suite_propagates_failure_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "run-suite",
                "--datasets",
                "tiny",
                "--methods",
                "Degree",
                "NoSuchMethod",
                "--epochs",
                "3",
                "--dim",
                "8",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 1


class TestMethodResultRoundtrip:
    def test_to_from_dict(self):
        result = MethodResult(
            method="HTC",
            dataset="tiny",
            metrics={"p@1": 0.5, "MRR": 0.6},
            time_seconds=1.25,
            n_runs=2,
            stage_times={"training": 1.0},
        )
        clone = MethodResult.from_dict(result.to_dict())
        assert clone == result

    def test_json_roundtrip_preserves_metric_order(self):
        result = MethodResult(
            method="HTC",
            dataset="tiny",
            metrics={"p@1": 0.5, "p@10": 0.9, "MRR": 0.6},
            time_seconds=0.1,
        )
        clone = MethodResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert list(clone.metrics) == ["p@1", "p@10", "MRR"]


class TestIntegrationChunking:
    @pytest.mark.parametrize("budget", sorted(BLOCK_BUDGETS))
    def test_integrate_chunked_identical(self, monkeypatch, budget):
        from repro.core.integration import integrate_alignment_matrices

        rng = np.random.default_rng(0)
        matrices = {k: rng.standard_normal((137, 21)) for k in range(4)}
        counts = {0: 3, 1: 0, 2: 5, 3: 2}
        # The whole-matrix sum in orbit order, the float64 reference.
        expected = np.zeros((137, 21))
        for orbit, matrix in matrices.items():
            expected += counts[orbit] / 10 * matrix
        set_block_budget(monkeypatch, budget, 21)
        final, _ = integrate_alignment_matrices(matrices, counts)
        np.testing.assert_array_equal(final, expected)

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    def test_integrate_empty_matrices(self, policy):
        from repro.core.integration import integrate_alignment_matrices

        final, importance = integrate_alignment_matrices(
            {0: np.zeros((0, 5)), 1: np.zeros((0, 5))},
            {0: 3, 1: 1},
            policy=policy,
        )
        assert final.shape == (0, 5)
        assert importance == {0: 0.75, 1: 0.25}
