"""Tests for the extensions beyond the paper: GDV attribute augmentation and
report export helpers."""

import json

import numpy as np

from repro.core import HTCAligner, HTCConfig
from repro.core.variants import EXTRA_ABLATION_VARIANTS, make_variant
from repro.datasets.synthetic import tiny_pair
from repro.eval.metrics import precision_at_q
from repro.eval.reporting import rows_to_csv, save_rows
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.perturbation import permute_graph


class TestGDVAugmentation:
    def test_variant_registered(self):
        aligner = make_variant("HTC-GDV")
        assert aligner.config.augment_with_gdv is True
        assert "HTC-GDV" in EXTRA_ABLATION_VARIANTS

    def test_alignment_runs_and_has_right_shape(self):
        pair = tiny_pair(n_nodes=25, random_state=0)
        config = HTCConfig(
            epochs=5,
            embedding_dim=8,
            orbits=[0, 1],
            n_neighbors=5,
            augment_with_gdv=True,
            random_state=0,
        )
        result = HTCAligner(config).align(pair)
        assert result.alignment_matrix.shape == (25, 25)

    def test_augmentation_preserves_proposition1(self):
        """GDVs are isomorphism invariant, so augmented attributes still map
        anchor nodes of a permuted copy to identical embeddings."""
        source = powerlaw_cluster_graph(20, 3, n_attributes=4, random_state=0)
        target, mapping = permute_graph(source, random_state=1)
        from repro.core.encoder import build_topology_views, make_encoder
        from repro.core.aligner import _augment_with_gdv

        config = HTCConfig(orbits=[0, 1], embedding_dim=8, random_state=0)
        source_attrs = _augment_with_gdv(source, config)
        target_attrs = _augment_with_gdv(target, config)
        np.testing.assert_allclose(source_attrs, target_attrs[mapping])

        encoder = make_encoder(source_attrs.shape[1], config)
        source_views = build_topology_views(source, config)
        target_views = build_topology_views(target, config)
        source_embedding = encoder(source_views[0], source_attrs)
        target_embedding = encoder(target_views[0], target_attrs)
        np.testing.assert_allclose(source_embedding, target_embedding[mapping], atol=1e-8)

    def test_augmentation_not_worse_on_clean_pair(self):
        pair = tiny_pair(n_nodes=30, random_state=1, noise=0.0)
        base = HTCConfig(
            epochs=10, embedding_dim=8, orbits=[0, 1, 2], n_neighbors=5, random_state=0
        )
        plain = HTCAligner(base).align(pair).alignment_matrix
        augmented = HTCAligner(base.updated(augment_with_gdv=True)).align(
            pair
        ).alignment_matrix
        p_plain = precision_at_q(plain, pair.ground_truth, 1)
        p_augmented = precision_at_q(augmented, pair.ground_truth, 1)
        assert p_augmented >= p_plain - 0.15


class TestReportExport:
    def test_csv_round_trip_structure(self):
        rows = [{"method": "HTC", "p@1": 0.88}, {"method": "GAlign", "p@1": 0.78}]
        csv_text = rows_to_csv(rows)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "method,p@1"
        assert lines[1].startswith("HTC,")
        assert len(lines) == 3

    def test_csv_escaping(self):
        rows = [{"note": 'has, comma and "quote"'}]
        csv_text = rows_to_csv(rows)
        assert '"has, comma and ""quote"""' in csv_text

    def test_csv_empty(self):
        assert rows_to_csv([]) == ""

    def test_save_rows_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        save_rows([{"a": 1, "b": 2}], path)
        assert path.read_text().startswith("a,b")

    def test_save_rows_jsonl(self, tmp_path):
        path = tmp_path / "out.jsonl"
        save_rows([{"a": 1}, {"a": 2}], path)
        records = [json.loads(line) for line in path.read_text().strip().splitlines()]
        assert records == [{"a": 1}, {"a": 2}]

    def test_save_rows_creates_directories(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "out.csv"
        save_rows([{"x": 1}], path)
        assert path.exists()
