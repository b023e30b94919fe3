"""Artifact store round-trip fidelity and integrity checks."""

import json
import zipfile

import numpy as np
import pytest
from _helpers import set_block_budget

from repro.core import HTCAligner, HTCConfig
from repro.core.result import AlignmentResult
from repro.datasets.synthetic import tiny_pair
from repro.serve.artifacts import (
    ARRAYS_FILE,
    MANIFEST_FILE,
    ArtifactIntegrityError,
    ArtifactNotFoundError,
    ArtifactSchemaError,
    _array_meta,
    deserialize_config,
    export_result,
    list_artifacts,
    load_artifact,
    save_artifact,
    save_index_artifact,
    serialize_config,
)
from repro.serve.index import build_index
from repro.serve.service import AlignmentService
from repro.similarity.lisi import lisi_matrix
from repro.similarity.matching import top_k_indices


def make_result(n_s=30, n_t=25, seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n_s, n_t))
    return AlignmentResult(
        alignment_matrix=matrix,
        orbit_importance={0: 0.8, 2: 0.2},
        trusted_pair_counts={0: 7, 2: 3},
        source_embeddings={k: rng.standard_normal((n_s, 4)) for k in (0, 2)},
        target_embeddings={k: rng.standard_normal((n_t, 4)) for k in (0, 2)},
        stage_times={"multi_orbit_training": 1.25},
        training_losses=[3.5, 2.25, 1.125],
    )


class TestRoundTrip:
    def test_full_fidelity(self, tmp_path):
        result = make_result()
        config = HTCConfig(epochs=7, embedding_dim=16)
        info = save_artifact(result, config, root=tmp_path, name="demo", index_k=6)
        loaded = load_artifact(tmp_path, info.artifact_id)

        np.testing.assert_array_equal(
            loaded.result.alignment_matrix, result.alignment_matrix
        )
        assert sorted(loaded.result.source_embeddings) == [0, 2]
        assert sorted(loaded.result.target_embeddings) == [0, 2]
        for orbit in (0, 2):
            np.testing.assert_array_equal(
                loaded.result.source_embeddings[orbit],
                result.source_embeddings[orbit],
            )
            np.testing.assert_array_equal(
                loaded.result.target_embeddings[orbit],
                result.target_embeddings[orbit],
            )
        assert loaded.result.orbit_importance == result.orbit_importance
        assert loaded.result.trusted_pair_counts == result.trusted_pair_counts
        assert loaded.result.stage_times == result.stage_times
        assert loaded.result.training_losses == result.training_losses
        assert loaded.config.epochs == 7
        assert loaded.config.embedding_dim == 16

    def test_query_parity_with_dense(self, tmp_path):
        result = make_result(n_s=40, n_t=33, seed=1)
        info = save_artifact(result, root=tmp_path, index_k=9)
        loaded = load_artifact(tmp_path, info.artifact_id, mode="serve")
        dense = result.alignment_matrix
        rows = np.arange(40)
        np.testing.assert_array_equal(
            loaded.index.match(rows), dense.argmax(axis=1)
        )
        for k in (1, 5, 9):
            np.testing.assert_array_equal(
                loaded.index.top_k(rows, k), top_k_indices(dense, k)
            )
        np.testing.assert_array_equal(
            loaded.index.reverse_match(np.arange(33)), dense.argmax(axis=0)
        )

    @pytest.mark.parametrize("topology_mode", ["orbit", "adjacency"])
    @pytest.mark.parametrize("budget", ["one-window", "one-block"])
    def test_trained_result_round_trip(
        self, monkeypatch, tmp_path, topology_mode, budget
    ):
        """save -> load -> query parity for real pipeline outputs."""
        pair = tiny_pair(100, random_state=0)  # two windows of rows
        set_block_budget(monkeypatch, budget, pair.target.n_nodes)
        config = HTCConfig(
            epochs=4,
            embedding_dim=8,
            orbits=(0, 1),
            topology_mode=topology_mode,
            n_neighbors=5,
        )
        result = HTCAligner(config).align(pair)
        info = save_artifact(
            result, config, root=tmp_path, name=f"tiny-{topology_mode}", index_k=7
        )
        loaded = load_artifact(tmp_path, info.artifact_id)
        dense = result.alignment_matrix
        rows = np.arange(dense.shape[0])
        np.testing.assert_array_equal(
            loaded.result.alignment_matrix, dense
        )
        np.testing.assert_array_equal(loaded.index.match(rows), dense.argmax(axis=1))
        for k in (1, 3, 7):
            np.testing.assert_array_equal(
                loaded.index.top_k(rows, k), top_k_indices(dense, k)
            )
        assert loaded.config.topology_mode == topology_mode

    def test_serve_mode_skips_dense_arrays(self, tmp_path):
        info = save_artifact(make_result(), root=tmp_path, index_k=4)
        loaded = load_artifact(tmp_path, info.artifact_id, mode="serve")
        assert loaded.result is None
        assert loaded.index.indices.shape[1] == 4

    def test_metadata_round_trip(self, tmp_path):
        info = save_artifact(
            make_result(),
            root=tmp_path,
            metadata={"dataset": "tiny", "method": "HTC"},
        )
        loaded = load_artifact(tmp_path, info.artifact_id)
        assert loaded.metadata == {"dataset": "tiny", "method": "HTC"}


class TestContentAddressing:
    def test_same_content_same_id(self, tmp_path):
        result = make_result(seed=2)
        config = HTCConfig(epochs=5)
        first = save_artifact(result, config, root=tmp_path, name="x")
        second = save_artifact(result, config, root=tmp_path, name="x")
        assert first.artifact_id == second.artifact_id
        assert len(list_artifacts(tmp_path)) == 1

    def test_different_content_different_id(self, tmp_path):
        first = save_artifact(make_result(seed=3), root=tmp_path, name="x")
        second = save_artifact(make_result(seed=4), root=tmp_path, name="x")
        assert first.artifact_id != second.artifact_id
        assert len(list_artifacts(tmp_path)) == 2

    def test_reexport_refreshes_metadata(self, tmp_path):
        """Same content, new metadata: the annotations are updated in place."""
        result = make_result(seed=8)
        first = save_artifact(result, root=tmp_path, metadata={"label": "old"})
        second = save_artifact(result, root=tmp_path, metadata={"label": "new"})
        assert second.artifact_id == first.artifact_id
        loaded = load_artifact(tmp_path, first.artifact_id)
        assert loaded.metadata == {"label": "new"}

    def test_id_is_filesystem_safe(self, tmp_path):
        info = save_artifact(
            make_result(), root=tmp_path, name="Weird Name/:With*Stuff"
        )
        assert "/" not in info.artifact_id.replace("", "")
        assert info.path.is_dir()


class TestIntegrityAndSchema:
    def test_missing_artifact(self, tmp_path):
        with pytest.raises(ArtifactNotFoundError):
            load_artifact(tmp_path, "nope-000000000000")

    def test_ids_that_leave_the_root_are_refused(self, tmp_path):
        # A loadable artifact one directory below the root: only a
        # separator-free id names a directory of the root itself.
        nested = save_artifact(make_result(), root=tmp_path / "sub")
        for artifact_id in (
            "",
            ".",
            "..",
            str(nested.path),
            f"sub/{nested.artifact_id}",
        ):
            with pytest.raises(ArtifactNotFoundError, match="invalid artifact id"):
                load_artifact(tmp_path, artifact_id)

    def test_corrupt_array_detected(self, tmp_path):
        info = save_artifact(make_result(), root=tmp_path)
        arrays = dict(np.load(info.path / ARRAYS_FILE))
        arrays["alignment_matrix"] = arrays["alignment_matrix"] + 1.0
        with open(info.path / ARRAYS_FILE, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(ArtifactIntegrityError, match="integrity"):
            load_artifact(tmp_path, info.artifact_id)
        # skipping verification loads anyway
        load_artifact(tmp_path, info.artifact_id, verify=False)

    def test_newer_major_schema_rejected(self, tmp_path):
        info = save_artifact(make_result(), root=tmp_path)
        manifest = json.loads((info.path / MANIFEST_FILE).read_text())
        manifest["schema_version"] = [99, 0]
        (info.path / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactSchemaError, match="newer"):
            load_artifact(tmp_path, info.artifact_id)

    def test_unknown_manifest_keys_ignored(self, tmp_path):
        info = save_artifact(make_result(), root=tmp_path)
        manifest = json.loads((info.path / MANIFEST_FILE).read_text())
        manifest["a_future_field"] = {"nested": True}
        (info.path / MANIFEST_FILE).write_text(json.dumps(manifest))
        loaded = load_artifact(tmp_path, info.artifact_id)
        assert loaded.result is not None

    def test_missing_index_rebuilt_from_dense(self, tmp_path):
        info = save_artifact(make_result(seed=5), root=tmp_path, index_k=5)
        arrays = dict(np.load(info.path / ARRAYS_FILE))
        dense = arrays["alignment_matrix"]
        for name in list(arrays):
            if name.startswith("index_"):
                del arrays[name]
        with open(info.path / ARRAYS_FILE, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        loaded = load_artifact(tmp_path, info.artifact_id, verify=False)
        np.testing.assert_array_equal(
            loaded.index.top_k(np.arange(dense.shape[0]), 5),
            top_k_indices(dense, 5),
        )

    def test_half_written_artifact_skipped_by_list(self, tmp_path):
        save_artifact(make_result(), root=tmp_path)
        (tmp_path / "crashed-partial").mkdir()
        assert len(list_artifacts(tmp_path)) == 1

    def test_resave_repairs_half_written_directory(self, tmp_path):
        """A crash between arrays and manifest must not block re-export."""
        result = make_result(seed=6)
        info = save_artifact(result, root=tmp_path)
        (info.path / MANIFEST_FILE).unlink()  # simulate the crash window
        repaired = save_artifact(result, root=tmp_path)
        assert repaired.artifact_id == info.artifact_id
        assert load_artifact(tmp_path, repaired.artifact_id).result is not None

    def test_unknown_array_suffixes_ignored_by_from_payload(self):
        """Arrays from a newer writer with non-numeric suffixes are skipped,
        and so are an older writer's per-orbit matrices."""
        result = make_result(seed=7)
        arrays = result.array_payload()
        arrays["source_embedding_mean"] = np.zeros(3)
        arrays["orbit_matrix_summary"] = np.zeros((2, 2))
        arrays["orbit_matrix_0"] = result.alignment_matrix * 0.5
        rebuilt = AlignmentResult.from_payload(arrays, result.scalar_payload())
        assert not hasattr(rebuilt, "orbit_matrices")
        assert rebuilt.array_payload().keys() == result.array_payload().keys()
        for field_name in ("source_embeddings", "target_embeddings"):
            rebuilt_views = getattr(rebuilt, field_name)
            assert sorted(rebuilt_views) == sorted(getattr(result, field_name))
            for orbit, embedding in getattr(result, field_name).items():
                np.testing.assert_array_equal(rebuilt_views[orbit], embedding)


@pytest.fixture(scope="module")
def htc_run():
    """A real three-view HTC result and the config that produced it."""
    config = HTCConfig(epochs=3, embedding_dim=8, orbits=(0, 1, 2), n_neighbors=5)
    return HTCAligner(config).align(tiny_pair(60, random_state=2)), config


def _stored_members(path):
    with zipfile.ZipFile(path / ARRAYS_FILE) as archive:
        return {info.filename: info.compress_type for info in archive.infolist()}


class TestStoredLayout:
    """Artifacts hold no per-view matrices and write their arrays plainly."""

    def test_htc_export_holds_embeddings_not_view_matrices(self, tmp_path, htc_run):
        result, config = htc_run
        info = export_result(result, config, root=tmp_path, name="htc")
        names = set(info.manifest["arrays"])
        assert not [name for name in names if name.startswith("orbit_matrix_")]
        for orbit in result.orbit_importance:
            assert {f"source_embedding_{orbit}", f"target_embedding_{orbit}"} <= names
        assert set(_stored_members(info.path)) == {f"{name}.npy" for name in names}

    @pytest.mark.parametrize("kind", ["htc", "bare-matrix", "index-only"])
    def test_every_member_stored_uncompressed(self, tmp_path, htc_run, kind):
        result, config = htc_run
        if kind == "htc":
            info = export_result(result, config, root=tmp_path)
        elif kind == "bare-matrix":
            info = export_result(result.alignment_matrix, root=tmp_path)
        else:
            index = build_index(result.alignment_matrix, k=5)
            info = save_index_artifact(index, root=tmp_path)
        members = _stored_members(info.path)
        assert members
        assert set(members.values()) == {zipfile.ZIP_STORED}

    def test_old_writer_artifact_still_serves(self, tmp_path, htc_run):
        """An artifact as older writers stored it — per-view matrices in the
        npz and in the manifest's array record, deflated members — loads in
        both modes and answers exactly as a fresh export does."""
        result, config = htc_run
        fresh = export_result(result, config, root=tmp_path / "new", index_k=6)
        old = export_result(result, config, root=tmp_path / "old", index_k=6)
        arrays = dict(np.load(old.path / ARRAYS_FILE))
        for orbit in result.orbit_importance:
            arrays[f"orbit_matrix_{orbit}"] = lisi_matrix(
                result.source_embeddings[orbit],
                result.target_embeddings[orbit],
                n_neighbors=config.n_neighbors,
            )
        with open(old.path / ARRAYS_FILE, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        manifest = json.loads((old.path / MANIFEST_FILE).read_text())
        manifest["arrays"] = _array_meta(arrays)
        (old.path / MANIFEST_FILE).write_text(json.dumps(manifest))
        assert set(_stored_members(old.path).values()) == {zipfile.ZIP_DEFLATED}

        full = load_artifact(tmp_path / "old", old.artifact_id)
        np.testing.assert_array_equal(
            full.result.alignment_matrix, result.alignment_matrix
        )
        assert full.result.array_payload().keys() == result.array_payload().keys()
        for orbit, embedding in result.source_embeddings.items():
            np.testing.assert_array_equal(
                full.result.source_embeddings[orbit], embedding
            )
        served = load_artifact(tmp_path / "old", old.artifact_id, mode="serve")
        assert served.result is None

        rows = np.arange(result.alignment_matrix.shape[0])
        answers = []
        for root, info in ((tmp_path / "new", fresh), (tmp_path / "old", old)):
            service = AlignmentService()
            service.load(root, info.artifact_id)
            answers.append(
                (
                    service.match(info.artifact_id, rows),
                    service.top_k(info.artifact_id, rows, 6),
                )
            )
        for new_answer, old_answer in zip(*answers):
            np.testing.assert_array_equal(old_answer, new_answer)
        np.testing.assert_array_equal(
            answers[1][1], top_k_indices(result.alignment_matrix, 6)
        )


class TestConfigSerialization:
    def test_round_trip(self):
        config = HTCConfig(
            orbits=(0, 3), epochs=9, diffusion_orders=(1, 2), n_neighbors=4
        )
        payload = serialize_config(config)
        json.dumps(payload)  # must be JSON-safe
        rebuilt = deserialize_config(payload)
        assert rebuilt.orbits == (0, 3)
        assert rebuilt.epochs == 9
        assert rebuilt.diffusion_orders == (1, 2)

    def test_unknown_fields_ignored(self):
        payload = serialize_config(HTCConfig())
        payload["future_knob"] = 42
        rebuilt = deserialize_config(payload)
        assert not hasattr(rebuilt, "future_knob")

    def test_metadata_is_stored_as_given(self, tmp_path):
        # No orbit-counter provenance is stamped in: there is one counter.
        config = HTCConfig(epochs=7)
        assert "orbit_backend" not in serialize_config(config)
        for saver, payload in (
            (save_artifact, make_result()),
            (save_index_artifact, build_index(make_result().alignment_matrix, k=3)),
        ):
            info = saver(payload, config, root=tmp_path, metadata={"dataset": "tiny"})
            assert load_artifact(tmp_path, info.artifact_id, mode="serve").metadata == {
                "dataset": "tiny"
            }

    def test_artifact_with_orbit_backend_provenance_loads_and_answers(self, tmp_path):
        # Artifacts exported while the orbit counter was selectable carry
        # ``orbit_backend`` in their config and their metadata.
        config = HTCConfig(epochs=7, embedding_dim=16)
        result = make_result()
        info = save_artifact(result, config, root=tmp_path, name="old")
        manifest = json.loads((info.path / MANIFEST_FILE).read_text())
        manifest["config"]["orbit_backend"] = "auto"
        manifest["metadata"]["orbit_backend"] = "numpy"
        (info.path / MANIFEST_FILE).write_text(json.dumps(manifest))
        loaded = load_artifact(tmp_path, info.artifact_id)
        assert loaded.config == config
        assert loaded.metadata == {"orbit_backend": "numpy"}
        service = AlignmentService()
        service.load(tmp_path, info.artifact_id)
        rows = np.arange(result.alignment_matrix.shape[0])
        np.testing.assert_array_equal(
            service.match(info.artifact_id, rows),
            result.alignment_matrix.argmax(axis=1),
        )
        assert "orbit_backend" not in service.describe(info.artifact_id)
        assert "orbit_backend" not in service.stats()

    def test_stored_config_with_removed_backend_field_still_loads(self, tmp_path):
        # Artifacts exported while HTCConfig still had a compute ``backend``
        # field carry it in their manifest; they must keep loading.
        config = HTCConfig(epochs=7, embedding_dim=16)
        assert "backend" not in serialize_config(config)
        info = save_artifact(make_result(), config, root=tmp_path, name="old")
        manifest = json.loads((info.path / MANIFEST_FILE).read_text())
        manifest["config"]["backend"] = "numpy"
        (info.path / MANIFEST_FILE).write_text(json.dumps(manifest))
        loaded = load_artifact(tmp_path, info.artifact_id)
        assert loaded.config == config

    def test_live_cache_degrades_to_memory(self):
        from repro.orbits.cache import resolve_cache

        config = HTCConfig(orbit_cache=resolve_cache("memory"))
        payload = serialize_config(config)
        assert payload["orbit_cache"] == "memory"
        json.dumps(payload)
