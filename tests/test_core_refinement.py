"""Tests for trusted-pair based fine-tuning (Algorithm 2)."""

import numpy as np
import pytest

import repro.core.refinement as refinement
from repro.core.config import HTCConfig
from repro.core.encoder import build_topology_views, make_encoder
from repro.core.refinement import RefinementOutput, TrustedPairRefiner
from repro.core.training import MultiOrbitTrainer
from repro.datasets.synthetic import tiny_pair


@pytest.fixture(scope="module")
def trained_setup():
    """A trained encoder plus views for a small pair (shared across tests)."""
    pair = tiny_pair(n_nodes=30, random_state=0, noise=0.05)
    config = HTCConfig(
        orbits=[0, 1, 2],
        embedding_dim=12,
        epochs=25,
        n_neighbors=5,
        random_state=0,
    )
    source_views = build_topology_views(pair.source, config)
    target_views = build_topology_views(pair.target, config)
    encoder = make_encoder(pair.source.n_attributes, config)
    MultiOrbitTrainer(config).train(
        encoder, source_views, target_views, pair.source.attributes, pair.target.attributes
    )
    return pair, config, encoder, source_views, target_views


class TestRefineView:
    def test_output_fields(self, trained_setup):
        pair, config, encoder, source_views, target_views = trained_setup
        refiner = TrustedPairRefiner(config)
        output = refiner.refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        assert isinstance(output, RefinementOutput)
        assert output.alignment_matrix.shape == (30, 30)
        assert output.trusted_pairs >= 0
        assert output.source_embedding.shape[0] == 30
        assert output.target_embedding.shape[0] == 30

    def test_refinement_disabled_runs_zero_iterations(self, trained_setup):
        pair, config, encoder, source_views, target_views = trained_setup
        refiner = TrustedPairRefiner(config.updated(use_refinement=False))
        output = refiner.refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        assert output.iterations == 0

    def test_refinement_never_reduces_trusted_pairs(self, trained_setup):
        """The loop keeps the best matrix seen, so the reported count is the max."""
        pair, config, encoder, source_views, target_views = trained_setup
        with_refinement = TrustedPairRefiner(config).refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        without_refinement = TrustedPairRefiner(
            config.updated(use_refinement=False)
        ).refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        assert with_refinement.trusted_pairs >= without_refinement.trusted_pairs

    def test_one_mnn_call_per_scored_matrix(self, trained_setup, monkeypatch):
        pair, config, encoder, source_views, target_views = trained_setup
        scored, counted = [], []
        score = TrustedPairRefiner._score_matrix
        mnn = refinement.mutual_nearest_neighbors

        def record_score(self, *args):
            scored.append(score(self, *args))
            return scored[-1]

        def record_mnn(matrix):
            counted.append(matrix)
            return mnn(matrix)

        monkeypatch.setattr(TrustedPairRefiner, "_score_matrix", record_score)
        monkeypatch.setattr(refinement, "mutual_nearest_neighbors", record_mnn)
        output = TrustedPairRefiner(config).refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        assert output.iterations >= 1
        assert len(scored) == output.iterations + 1
        assert len(counted) == len(scored)
        assert all(a is b for a, b in zip(counted, scored))

    def test_iteration_cap_respected(self, trained_setup):
        pair, config, encoder, source_views, target_views = trained_setup
        capped = config.updated(max_refinement_iterations=1)
        output = TrustedPairRefiner(capped).refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        assert output.iterations <= 1

    def test_lisi_disabled_uses_pearson(self, trained_setup):
        pair, config, encoder, source_views, target_views = trained_setup
        lisi_output = TrustedPairRefiner(
            config.updated(use_refinement=False)
        ).refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        pearson_output = TrustedPairRefiner(
            config.updated(use_refinement=False, use_lisi=False)
        ).refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        assert not np.allclose(
            lisi_output.alignment_matrix, pearson_output.alignment_matrix
        )
        # Pearson scores are bounded by 1 in absolute value.
        assert np.abs(pearson_output.alignment_matrix).max() <= 1.0 + 1e-9


class TestRefineAll:
    def test_one_output_per_view(self, trained_setup):
        pair, config, encoder, source_views, target_views = trained_setup
        outputs = TrustedPairRefiner(config).refine_all(
            encoder,
            source_views,
            target_views,
            pair.source.attributes,
            pair.target.attributes,
        )
        assert set(outputs) == set(source_views)
