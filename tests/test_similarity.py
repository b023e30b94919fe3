"""Tests for the similarity package: measures, LISI, and matching rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.similarity.chunked import _apply_hubness_correction
from repro.similarity.lisi import hubness_degrees, lisi_matrix
from repro.similarity.matching import (
    alignment_accuracy,
    greedy_match,
    mutual_nearest_neighbors,
    top_k_indices,
)
from repro.similarity.measures import (
    cosine_similarity,
    euclidean_similarity,
    pearson_similarity,
)

embeddings = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(3, 6), st.just(4)),
    elements=st.floats(min_value=-5.0, max_value=5.0),
)


class TestPearsonSimilarity:
    def test_identical_rows_give_one(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert pearson_similarity(x, x)[0, 0] == pytest.approx(1.0)

    def test_translation_invariance(self):
        x = np.random.default_rng(0).normal(size=(4, 6))
        y = np.random.default_rng(1).normal(size=(5, 6))
        np.testing.assert_allclose(
            pearson_similarity(x, y), pearson_similarity(x + 10.0, y - 3.0), atol=1e-10
        )

    def test_scale_invariance(self):
        x = np.random.default_rng(0).normal(size=(4, 6))
        y = np.random.default_rng(1).normal(size=(5, 6))
        np.testing.assert_allclose(
            pearson_similarity(x, y), pearson_similarity(x * 5.0, y * 0.1), atol=1e-10
        )

    def test_anti_correlated(self):
        x = np.array([[1.0, 2.0, 3.0]])
        y = np.array([[3.0, 2.0, 1.0]])
        assert pearson_similarity(x, y)[0, 0] == pytest.approx(-1.0)

    def test_zero_variance_rows_do_not_produce_nan(self):
        x = np.array([[1.0, 1.0, 1.0]])
        y = np.array([[1.0, 2.0, 3.0]])
        assert np.isfinite(pearson_similarity(x, y)).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pearson_similarity(np.zeros((2, 3)), np.zeros((2, 4)))

    @given(embeddings, embeddings)
    @settings(max_examples=20, deadline=None)
    def test_values_bounded(self, x, y):
        sim = pearson_similarity(x, y)
        assert (sim <= 1.0).all() and (sim >= -1.0).all()


class TestCosineSimilarity:
    def test_orthogonal_vectors(self):
        x = np.array([[1.0, 0.0]])
        y = np.array([[0.0, 1.0]])
        assert cosine_similarity(x, y)[0, 0] == pytest.approx(0.0)

    def test_zero_rows_do_not_nan(self):
        x = np.zeros((1, 3))
        y = np.ones((1, 3))
        assert np.isfinite(cosine_similarity(x, y)).all()

    def test_shape(self):
        sim = cosine_similarity(np.ones((3, 4)), np.ones((5, 4)))
        assert sim.shape == (3, 5)


class TestEuclideanSimilarity:
    def test_self_similarity_is_zero(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        sim = euclidean_similarity(x, x)
        np.testing.assert_allclose(np.diag(sim), np.zeros(3), atol=1e-10)

    def test_larger_is_closer(self):
        source = np.array([[0.0, 0.0]])
        targets = np.array([[1.0, 0.0], [5.0, 0.0]])
        sim = euclidean_similarity(source, targets)
        assert sim[0, 0] > sim[0, 1]


class TestHubnessAndLISI:
    def test_hubness_shapes(self):
        similarity = np.random.default_rng(0).normal(size=(6, 8))
        source_h, target_h = hubness_degrees(similarity, n_neighbors=3)
        assert source_h.shape == (6,)
        assert target_h.shape == (8,)

    def test_hubness_with_large_m_is_row_mean(self):
        similarity = np.random.default_rng(0).normal(size=(4, 5))
        source_h, target_h = hubness_degrees(similarity, n_neighbors=100)
        np.testing.assert_allclose(source_h, similarity.mean(axis=1))
        np.testing.assert_allclose(target_h, similarity.mean(axis=0))

    def test_hubness_uses_top_entries(self):
        similarity = np.array([[1.0, 0.0, -1.0]])
        source_h, _ = hubness_degrees(similarity, n_neighbors=2)
        assert source_h[0] == pytest.approx(0.5)

    def test_invalid_neighbors(self):
        with pytest.raises(ValueError):
            hubness_degrees(np.zeros((2, 2)), 0)

    def test_lisi_penalises_hubs(self):
        """A target column that is similar to everything (a hub) gets discounted."""
        rng = np.random.default_rng(0)
        source = rng.normal(size=(10, 8))
        target = rng.normal(size=(10, 8))
        # Make target node 0 a hub: very close to the mean of all sources.
        target[0] = source.mean(axis=0) + rng.normal(scale=0.01, size=8)
        raw = pearson_similarity(source, target)
        lisi = lisi_matrix(source, target, n_neighbors=3)
        raw_hub_wins = int((raw.argmax(axis=1) == 0).sum())
        lisi_hub_wins = int((lisi.argmax(axis=1) == 0).sum())
        assert lisi_hub_wins <= raw_hub_wins

    def test_lisi_equals_correction_of_precomputed_similarity(self):
        rng = np.random.default_rng(0)
        source = rng.normal(size=(5, 4))
        target = rng.normal(size=(6, 4))
        similarity = pearson_similarity(source, target)
        corrected = _apply_hubness_correction(
            similarity, *hubness_degrees(similarity, 2)
        )
        np.testing.assert_array_equal(
            lisi_matrix(source, target, n_neighbors=2), corrected
        )

    def test_lisi_formula(self):
        rng = np.random.default_rng(3)
        source = rng.normal(size=(4, 5))
        target = rng.normal(size=(6, 5))
        similarity = pearson_similarity(source, target)
        source_h, target_h = hubness_degrees(similarity, 2)
        expected = 2 * similarity - source_h[:, None] - target_h[None, :]
        np.testing.assert_allclose(lisi_matrix(source, target, 2), expected)


class TestMatching:
    def test_mutual_nearest_neighbors_identity(self):
        scores = np.eye(4)
        pairs = mutual_nearest_neighbors(scores)
        assert set(pairs) == {(0, 0), (1, 1), (2, 2), (3, 3)}

    def test_mutual_nearest_neighbors_requires_both_directions(self):
        scores = np.array([[0.9, 0.8], [0.95, 0.1]])
        # Source 0 and 1 both prefer target 0; target 0 prefers source 1.
        pairs = mutual_nearest_neighbors(scores)
        assert (1, 0) in pairs
        assert (0, 0) not in pairs

    def test_mutual_nearest_neighbors_empty(self):
        assert mutual_nearest_neighbors(np.zeros((0, 0))) == []

    def test_greedy_match_one_to_one(self):
        scores = np.random.default_rng(0).normal(size=(5, 7))
        pairs = greedy_match(scores)
        assert len(pairs) == 5
        assert len({i for i, _ in pairs}) == 5
        assert len({j for _, j in pairs}) == 5

    def test_greedy_match_picks_best_first(self):
        scores = np.array([[1.0, 10.0], [5.0, 2.0]])
        pairs = greedy_match(scores)
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_top_k_indices_sorted(self):
        scores = np.array([[0.1, 0.9, 0.5, 0.7]])
        top = top_k_indices(scores, 3)
        np.testing.assert_array_equal(top[0], [1, 3, 2])

    def test_top_k_clipped_to_width(self):
        scores = np.zeros((2, 3))
        assert top_k_indices(scores, 10).shape == (2, 3)

    def test_top_k_invalid_k(self):
        with pytest.raises(ValueError):
            top_k_indices(np.zeros((2, 2)), 0)

    def test_alignment_accuracy(self):
        scores = np.eye(3)
        assert alignment_accuracy(scores, np.array([0, 1, 2])) == 1.0
        assert alignment_accuracy(scores, np.array([1, 2, 0])) == 0.0

    def test_alignment_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            alignment_accuracy(np.eye(3), np.array([0, 1]))
