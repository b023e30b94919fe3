"""End-to-end tests for sharded alignment through the runner machinery."""

import hashlib
import json
import shutil

import numpy as np
import pytest
from _helpers import dense_matrix_stitch

import repro
import repro.shard.executor as shard_executor
from repro.core import HTCConfig
from repro.datasets.io import pair_digest
from repro.datasets.pair import GraphPair
from repro.datasets.synthetic import tiny_pair
from repro.graph.attributed_graph import AttributedGraph
from repro.eval.protocol import run_method
from repro.runner import SuiteSpec, resolve_method, run_suite
from repro.orbits.cache import resolve_cache
from repro.serve import (
    AlignmentService,
    list_artifacts,
    load_artifact,
    save_index_artifact,
)
from repro.serve.artifacts import serialize_config
from repro.serve.index import DEFAULT_INDEX_K
from repro.shard import ShardedAligner, align_sharded, build_shard_plan

FAST = dict(epochs=3, embedding_dim=8, orbit_cache="off", random_state=0)


@pytest.fixture(scope="module")
def pair():
    return tiny_pair(n_nodes=50, random_state=0)


@pytest.fixture(scope="module")
def fast_config():
    return HTCConfig(**FAST)


@pytest.fixture(scope="module")
def stitched(pair, fast_config):
    return align_sharded(pair, fast_config, shard_count=2, refine_iterations=1)


class TestAlignSharded:
    def test_shape_and_coverage(self, pair, stitched):
        assert stitched.shape == (pair.source.n_nodes, pair.target.n_nodes)
        # every source node belongs to a core shard, so every row has a match
        matches = stitched.match(np.arange(pair.source.n_nodes))
        assert np.all(matches >= 0)

    def test_stage_times_and_shard_stats(self, stitched):
        assert set(stitched.stage_times) == {
            "partition",
            "shard_alignment",
            "stitch",
            "refine",
        }
        assert len(stitched.shard_stats) == 2
        assert all(s["status"] == "done" for s in stitched.shard_stats)
        assert all("p@1" in s["metrics"] for s in stitched.shard_stats)

    def test_deterministic_across_runs(self, pair, fast_config, stitched):
        again = align_sharded(
            pair, fast_config, shard_count=2, refine_iterations=1
        )
        assert np.array_equal(again.index.indices, stitched.index.indices)
        assert np.array_equal(again.index.scores, stitched.index.scores)

    def test_requires_a_shard_count(self, pair, fast_config):
        with pytest.raises(ValueError, match="shard_count"):
            align_sharded(pair, fast_config)

    def test_resume_reuses_shard_artifacts(self, pair, fast_config, tmp_path):
        first = align_sharded(
            pair,
            fast_config,
            shard_count=2,
            workdir=tmp_path,
            resume=True,
            refine_iterations=0,
        )
        assert [s["status"] for s in first.shard_stats] == ["done", "done"]
        second = align_sharded(
            pair,
            fast_config,
            shard_count=2,
            workdir=tmp_path,
            resume=True,
            refine_iterations=0,
        )
        assert [s["status"] for s in second.shard_stats] == ["cached", "cached"]
        assert np.array_equal(first.index.indices, second.index.indices)
        assert np.array_equal(first.index.scores, second.index.scores)

    def test_resume_with_another_pair_realigns_its_shards(self, fast_config, tmp_path):
        """Shard datasets are named by content, so a reused workdir holding
        another pair of the same name reuses none of its shard results."""
        run = dict(shard_count=2, refine_iterations=0)
        first = tiny_pair(n_nodes=60, random_state=0)
        second = tiny_pair(n_nodes=60, random_state=1)
        assert first.name == second.name
        align_sharded(first, fast_config, workdir=tmp_path, resume=True, **run)
        resumed = align_sharded(
            second, fast_config, workdir=tmp_path, resume=True, **run
        )
        assert [s["status"] for s in resumed.shard_stats] == ["done", "done"]
        fresh = align_sharded(second, fast_config, **run)
        assert np.array_equal(resumed.index.indices, fresh.index.indices)
        assert np.array_equal(resumed.index.scores, fresh.index.scores)

    def test_resume_after_serve_artifacts_were_deleted(
        self, pair, fast_config, tmp_path
    ):
        run = dict(shard_count=2, refine_iterations=0, workdir=tmp_path)
        first = align_sharded(pair, fast_config, resume=True, **run)
        (store,) = tmp_path.glob("runs/*/serve_artifacts")
        shutil.rmtree(store)
        again = align_sharded(pair, fast_config, resume=True, **run)
        assert [s["status"] for s in again.shard_stats] == ["done", "done"]
        assert np.array_equal(first.index.indices, again.index.indices)
        assert np.array_equal(first.index.scores, again.index.scores)

    def test_stitch_equals_dense_stitch_of_the_shard_matrices(
        self, fast_config, tmp_path
    ):
        """The stitch of the shards' serve indexes equals the dense-matrix
        stitch over the same shard jobs' full alignment matrices."""
        pair = tiny_pair(n_nodes=60, random_state=0)
        for n_shards in (2, 3):
            workdir = tmp_path / f"shards{n_shards}"
            stitched = align_sharded(
                pair,
                fast_config,
                shard_count=n_shards,
                refine_iterations=0,
                workdir=workdir,
            )
            (store,) = workdir.glob("runs/*/serve_artifacts")
            # Shard dataset directories sort by shard index (shard_NNN-...).
            manifests = sorted(
                list_artifacts(store), key=lambda m: m["metadata"]["dataset"]
            )
            matrices = [
                load_artifact(store, m["artifact_id"]).result.alignment_matrix
                for m in manifests
            ]
            plan = build_shard_plan(pair, n_shards, overlap=1, seed=0)
            expected = dense_matrix_stitch(
                plan,
                matrices,
                pair.source.n_nodes,
                pair.target.n_nodes,
                DEFAULT_INDEX_K,
            )
            for name in ("indices", "scores", "reverse_indices", "reverse_scores"):
                got = getattr(stitched.index, name)
                want = getattr(expected.index, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert stitched.conflicts_resolved == expected.conflicts_resolved
            assert stitched.multi_shard_sources == expected.multi_shard_sources

    def test_loads_each_shard_artifact_once_in_serve_mode(
        self, pair, fast_config, monkeypatch
    ):
        """The stitch reads the shard jobs' top-k indexes, never their dense
        matrices: one serve-mode load per shard artifact."""
        calls = []

        def recording_load(root, artifact_id, **kwargs):
            calls.append((artifact_id, kwargs.get("mode", "full")))
            return load_artifact(root, artifact_id, **kwargs)

        monkeypatch.setattr(shard_executor, "load_artifact", recording_load)
        align_sharded(pair, fast_config, shard_count=3, refine_iterations=0)
        assert [mode for _, mode in calls] == ["serve"] * 3
        assert len({artifact_id for artifact_id, _ in calls}) == 3

    def test_process_pool_equals_serial(self, pair, fast_config):
        """Shard jobs run in worker processes stitch to the same index as
        jobs run inline (the serve artifacts cross the process boundary)."""
        run = dict(shard_count=2, refine_iterations=1)
        serial = align_sharded(pair, fast_config, executor="serial", **run)
        pooled = align_sharded(
            pair, fast_config, jobs=2, executor="process-pool", **run
        )
        assert [s["status"] for s in pooled.shard_stats] == ["done", "done"]
        for name in ("indices", "scores", "reverse_indices", "reverse_scores"):
            got = getattr(pooled.index, name)
            want = getattr(serial.index, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert pooled.conflicts_resolved == serial.conflicts_resolved

    def test_accuracy_not_far_from_single_shot(self, pair, fast_config, stitched):
        from repro.core import HTCAligner

        single = HTCAligner(fast_config).align(pair)
        p1_single = float(
            (single.alignment_matrix.argmax(axis=1) == pair.ground_truth).mean()
        )
        p1_sharded = float(
            (stitched.match(np.arange(pair.source.n_nodes)) == pair.ground_truth)
            .mean()
        )
        assert p1_sharded >= p1_single - 0.25


def _with_changed(pair, part):
    """``pair`` with one of the parts a shard dataset is hashed over changed."""
    source, truth = pair.source, pair.ground_truth.copy()
    if part == "edges":
        adjacency = source.adjacency.tolil()
        u, v = source.edge_list()[0]
        adjacency[u, v] = adjacency[v, u] = 0
        source = AttributedGraph(adjacency, source.attributes, name=source.name)
    elif part == "attributes":
        source = source.with_attributes(source.attributes + 1.0)
    else:
        first, second = np.flatnonzero(truth >= 0)[:2]
        truth[[first, second]] = truth[[second, first]]
    return GraphPair(source, pair.target, truth, name=pair.name)


class TestShardDatasets:
    def test_same_content_reuses_its_directory(self, pair, tmp_path):
        first = shard_executor._save_shard_dataset(pair, tmp_path, 0)
        second = shard_executor._save_shard_dataset(pair, tmp_path, 0)
        assert second == first
        assert first.name.startswith("shard_000-")
        # The second save's staging copy is removed, not left beside it.
        assert [path.name for path in tmp_path.iterdir()] == [first.name]

    @pytest.mark.parametrize("part", ["edges", "attributes", "anchors"])
    def test_changed_content_changes_the_directory(self, pair, tmp_path, part):
        changed = _with_changed(pair, part)
        assert changed.name == pair.name
        original = shard_executor._save_shard_dataset(pair, tmp_path, 0)
        other = shard_executor._save_shard_dataset(changed, tmp_path, 0)
        assert other != original
        assert other.name.startswith("shard_000-")

    def test_directory_is_named_by_pair_digest(self, pair, tmp_path):
        shard_dir = shard_executor._save_shard_dataset(pair, tmp_path, 3)
        assert shard_dir.name == f"shard_003-{pair_digest(shard_dir)[:16]}"
        # The digest is the one shard directories were always named by, so
        # an existing shard workdir keeps its names and job ids.
        concatenated = b"".join(
            (shard_dir / name).read_bytes()
            for name in (
                "source.edges",
                "source.attrs.npy",
                "target.edges",
                "target.attrs.npy",
                "ground_truth.txt",
            )
        )
        assert pair_digest(shard_dir) == hashlib.sha256(concatenated).hexdigest()


class TestShardJobConfig:
    def test_job_config_is_the_serialized_config_minus_shard_knobs(
        self, pair, tmp_path
    ):
        # A live cache, a Generator seed and tuples: the values the
        # serializer rewrites.
        config = HTCConfig(
            epochs=3,
            embedding_dim=8,
            orbits=(0, 2, 5),
            shard_count=2,
            shard_overlap=0,
            executor_backend="serial",
            orbit_cache=resolve_cache("memory"),
            random_state=np.random.default_rng(3),
        )
        align_sharded(pair, config, workdir=tmp_path, refine_iterations=0)
        expected = serialize_config(config)
        for name in ("shard_count", "shard_overlap", "executor_backend"):
            del expected[name]
        assert expected["orbit_cache"] == "memory" and expected["random_state"] == 0
        (manifest_path,) = tmp_path.glob("runs/*/manifest.json")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["suite"]["config"] == expected
        for row in manifest["jobs"]:
            job = json.loads((manifest_path.parent / row["artifact"]).read_text())
            assert job["spec"]["config"] == expected


class TestShardedAligner:
    def test_resolve_method_routes_on_shard_count(self):
        config = HTCConfig(shard_count=2, **FAST)
        assert isinstance(resolve_method("HTC", config), ShardedAligner)
        from repro.core import HTCAligner

        assert isinstance(resolve_method("HTC", HTCConfig(**FAST)), HTCAligner)

    def test_rejects_config_without_shard_count(self):
        with pytest.raises(ValueError, match="shard_count"):
            ShardedAligner(HTCConfig(**FAST))

    def test_run_method_protocol(self, pair):
        aligner = ShardedAligner(HTCConfig(shard_count=2, **FAST))
        outcome = run_method(aligner, pair)
        assert outcome.method == "HTC"
        assert 0.0 <= outcome.metrics["p@1"] <= 1.0
        assert aligner.last_stitched_ is not None

    def test_run_suite_with_sharded_config(self, tmp_path):
        suite = SuiteSpec(
            name="sharded-suite",
            datasets=[{"name": "tiny", "params": {"n_nodes": 50}}],
            methods=["HTC"],
            config=dict(shard_count=2, **FAST),
        )
        report = run_suite(suite, tmp_path)
        assert report.counts == {"done": 1}
        artifact = report.artifacts[0]
        assert artifact["result"]["metrics"]["p@1"] >= 0.0


class TestServingStitched:
    def test_stitched_index_is_servable(self, stitched, tmp_path):
        config = HTCConfig(shard_count=2, **FAST)
        info = save_index_artifact(
            stitched.index,
            config,
            root=tmp_path,
            name="tiny-stitched",
            metadata={"sharded": True},
        )
        service = AlignmentService()
        aid = service.load(tmp_path, info.artifact_id)
        nodes = np.arange(10)
        assert np.array_equal(service.match(aid, nodes), stitched.match(nodes))
        assert np.array_equal(
            service.top_k(aid, nodes, 3), stitched.top_k(nodes, 3)
        )


    def test_resave_refreshes_metadata(self, stitched, tmp_path):
        first = save_index_artifact(
            stitched.index, root=tmp_path, name="meta", metadata={"run": 1}
        )
        second = save_index_artifact(
            stitched.index, root=tmp_path, name="meta", metadata={"run": 2}
        )
        assert second.artifact_id == first.artifact_id  # content-addressed
        assert second.manifest["metadata"] == {"run": 2}


class TestCLISharded:
    def test_align_with_shards_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "align",
                "--dataset",
                "tiny",
                "--shards",
                "2",
                "--epochs",
                "3",
                "--dim",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HTC on tiny" in out
        assert "p@1" in out


class TestResumeVersionWarning:
    def test_version_recorded_in_artifacts_and_manifest(self, tmp_path):
        suite = SuiteSpec(
            name="versioned", datasets=["tiny"], methods=["Degree"]
        )
        report = run_suite(suite, tmp_path)
        assert report.artifacts[0]["repro_version"] == repro.__version__
        manifest = json.loads(report.manifest_path.read_text())
        assert manifest["repro_version"] == repro.__version__

    def test_resume_warns_on_version_mismatch(self, tmp_path, caplog):
        suite = SuiteSpec(
            name="versioned", datasets=["tiny"], methods=["Degree"]
        )
        report = run_suite(suite, tmp_path)
        artifact_path = (
            report.suite_dir / "jobs" / f"{report.artifacts[0]['job_id']}.json"
        )
        payload = json.loads(artifact_path.read_text())
        payload["repro_version"] = "0.0.1"
        artifact_path.write_text(json.dumps(payload))

        with caplog.at_level("WARNING", logger="repro.runner.executor"):
            resumed = run_suite(suite, tmp_path, resume=True)
        assert resumed.counts == {"cached": 1}  # reused, not silently skipped
        messages = [r.message for r in caplog.records]
        assert any(
            "0.0.1" in m and repro.__version__ in m for m in messages
        ), messages

    def test_resume_same_version_does_not_warn(self, tmp_path, caplog):
        suite = SuiteSpec(
            name="versioned", datasets=["tiny"], methods=["Degree"]
        )
        run_suite(suite, tmp_path)
        with caplog.at_level("WARNING", logger="repro.runner.executor"):
            resumed = run_suite(suite, tmp_path, resume=True)
        assert resumed.counts == {"cached": 1}
        assert not caplog.records
