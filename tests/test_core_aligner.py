"""Integration tests for the end-to-end HTCAligner pipeline."""

import numpy as np
import pytest

from repro.core import HTCAligner, HTCConfig
from repro.core.aligner import (
    STAGE_FINE_TUNING,
    STAGE_INTEGRATION,
    STAGE_LAPLACIAN,
    STAGE_ORBIT_COUNTING,
    STAGE_TRAINING,
)
from repro.eval.metrics import precision_at_q
from repro.graph.builders import from_edge_list


class TestAlignmentResultContents:
    def test_matrix_shape(self, small_pair, trained_result):
        assert trained_result.alignment_matrix.shape == (
            small_pair.source.n_nodes,
            small_pair.target.n_nodes,
        )

    def test_orbit_matrices_and_importance_keys_match(self, trained_result):
        assert set(trained_result.orbit_matrices) == set(trained_result.orbit_importance)
        assert set(trained_result.orbit_matrices) == set(
            trained_result.trusted_pair_counts
        )

    def test_importance_normalised(self, trained_result):
        assert sum(trained_result.orbit_importance.values()) == pytest.approx(1.0)

    def test_all_stages_timed(self, trained_result):
        stages = set(trained_result.stage_times)
        assert {
            STAGE_ORBIT_COUNTING,
            STAGE_LAPLACIAN,
            STAGE_TRAINING,
            STAGE_FINE_TUNING,
            STAGE_INTEGRATION,
        } <= stages
        assert trained_result.total_time > 0

    def test_training_losses_recorded(self, trained_result, fast_config):
        assert len(trained_result.training_losses) == fast_config.epochs

    def test_embeddings_stored_per_orbit(self, trained_result, small_pair):
        for embedding in trained_result.source_embeddings.values():
            assert embedding.shape[0] == small_pair.source.n_nodes

    def test_ranked_orbits_sorted(self, trained_result):
        ranked = trained_result.ranked_orbits()
        gammas = [gamma for _, gamma in ranked]
        assert gammas == sorted(gammas, reverse=True)

    def test_predicted_anchors_one_to_one(self, trained_result, small_pair):
        anchors = trained_result.predicted_anchors()
        assert len(anchors) == min(
            small_pair.source.n_nodes, small_pair.target.n_nodes
        )
        assert len({i for i, _ in anchors}) == len(anchors)

    def test_top_candidates_shape(self, trained_result, small_pair):
        top = trained_result.top_candidates(5)
        assert top.shape == (small_pair.source.n_nodes, 5)

    def test_best_match_bounds(self, trained_result):
        assert 0 <= trained_result.best_match(0)
        with pytest.raises(IndexError):
            trained_result.best_match(10_000)


class TestAlignmentQuality:
    def test_beats_random_by_far(self, small_pair, trained_result):
        p1 = precision_at_q(trained_result.alignment_matrix, small_pair.ground_truth, 1)
        random_level = 1.0 / small_pair.target.n_nodes
        assert p1 > 10 * random_level

    def test_near_perfect_on_clean_pair(self, clean_pair, fast_config):
        result = HTCAligner(fast_config).align(clean_pair)
        p1 = precision_at_q(result.alignment_matrix, clean_pair.ground_truth, 1)
        assert p1 >= 0.9

    def test_precision_at_10_at_least_precision_at_1(self, small_pair, trained_result):
        p1 = precision_at_q(trained_result.alignment_matrix, small_pair.ground_truth, 1)
        p10 = precision_at_q(trained_result.alignment_matrix, small_pair.ground_truth, 10)
        assert p10 >= p1


class TestAlignerInterface:
    def test_attribute_space_mismatch_rejected(self, small_pair):
        aligner = HTCAligner(HTCConfig(epochs=1, embedding_dim=4, orbits=[0]))
        bad_target = small_pair.target.with_attributes(
            np.ones((small_pair.target.n_nodes, 99))
        )
        with pytest.raises(ValueError):
            aligner.align_graphs(small_pair.source, bad_target)

    def test_train_anchors_argument_ignored(self, clean_pair, fast_config):
        aligner = HTCAligner(fast_config.updated(epochs=3))
        result = aligner.align(clean_pair, train_anchors=[(0, 0)])
        assert result.alignment_matrix.shape[0] == clean_pair.source.n_nodes

    def test_alignment_matrix_shortcut(self, clean_pair, fast_config):
        aligner = HTCAligner(fast_config.updated(epochs=3))
        matrix = aligner.alignment_matrix(clean_pair)
        assert matrix.shape == (clean_pair.source.n_nodes, clean_pair.target.n_nodes)

    def test_default_config_used_when_none(self):
        aligner = HTCAligner()
        assert aligner.config.topology_mode == "orbit"

    def test_last_result_cached(self, small_pair, fast_config):
        aligner = HTCAligner(fast_config.updated(epochs=2, orbits=[0]))
        result = aligner.align(small_pair)
        assert aligner.last_result_ is result

    def test_deterministic_given_seed(self, clean_pair):
        config = HTCConfig(
            epochs=5, embedding_dim=8, orbits=[0, 1], n_neighbors=5, random_state=7
        )
        a = HTCAligner(config).align(clean_pair).alignment_matrix
        b = HTCAligner(config).align(clean_pair).alignment_matrix
        np.testing.assert_allclose(a, b)


class TestPartialOverlapPair:
    def test_handles_different_graph_sizes(self):
        from repro.datasets.synthetic import douban

        pair = douban(scale=0.3, random_state=0)
        assert pair.source.n_nodes != pair.target.n_nodes
        config = HTCConfig(
            epochs=5, embedding_dim=8, orbits=[0, 1], n_neighbors=5, random_state=0
        )
        result = HTCAligner(config).align(pair)
        assert result.alignment_matrix.shape == (
            pair.source.n_nodes,
            pair.target.n_nodes,
        )


def _graph(edges, n_nodes, attributes=None, seed=0):
    if attributes is None:
        attributes = np.random.default_rng(seed).random((n_nodes, 3))
    return from_edge_list(edges, n_nodes=n_nodes, attributes=attributes)


_RING = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


class TestDegenerateInputs:
    """Inputs with no edges, too few nodes or no attribute signal.

    Only the invariants are pinned: with tied scores the trusted counts and
    the exact gamma values follow argmax tie-breaking.
    """

    @pytest.mark.parametrize(
        "source, target",
        [
            (_graph([], 6), _graph([], 6, seed=1)),
            (_graph([], 1), _graph([], 1, seed=1)),
            (_graph(_RING, 8), _graph(_RING, 8, seed=1)),
            (_graph(_RING + [(5, 6), (6, 7)], 8), _graph([(0, 1), (1, 2)], 3)),
            (
                _graph(_RING, 5, attributes=np.zeros((5, 3))),
                _graph(_RING, 5, attributes=np.zeros((5, 3))),
            ),
        ],
        ids=["no-edges", "one-node", "isolated-nodes", "size-mismatch", "zero-attributes"],
    )
    def test_outputs_are_defined(self, source, target):
        config = HTCConfig(epochs=3, embedding_dim=4, random_state=0)
        result = HTCAligner(config).align_graphs(source, target)
        matrix = result.alignment_matrix
        assert matrix.shape == (source.n_nodes, target.n_nodes)
        assert np.all(np.isfinite(matrix))
        assert len(result.training_losses) == config.epochs
        assert np.all(np.isfinite(result.training_losses))
        gamma = np.array(list(result.orbit_importance.values()))
        assert np.all(np.isfinite(gamma))
        assert np.all(gamma >= 0.0)
        assert gamma.sum() == pytest.approx(1.0)
