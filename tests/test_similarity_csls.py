"""Tests for the CSLS alternative hubness correction."""

import numpy as np
import pytest

from repro.similarity.chunked import _apply_hubness_correction
from repro.similarity.csls import csls_matrix
from repro.similarity.lisi import hubness_degrees
from repro.similarity.matching import mutual_nearest_neighbors
from repro.similarity.measures import cosine_similarity


class TestCSLS:
    def test_shape(self):
        rng = np.random.default_rng(0)
        out = csls_matrix(rng.normal(size=(5, 8)), rng.normal(size=(7, 8)), 3)
        assert out.shape == (5, 7)

    def test_formula(self):
        rng = np.random.default_rng(1)
        source = rng.normal(size=(6, 5))
        target = rng.normal(size=(4, 5))
        similarity = cosine_similarity(source, target)
        source_h, target_h = hubness_degrees(similarity, 2)
        expected = 2 * similarity - source_h[:, None] - target_h[None, :]
        np.testing.assert_allclose(csls_matrix(source, target, 2), expected)

    def test_equals_correction_of_precomputed_similarity(self):
        rng = np.random.default_rng(2)
        source = rng.normal(size=(6, 5))
        target = rng.normal(size=(4, 5))
        similarity = cosine_similarity(source, target)
        corrected = _apply_hubness_correction(
            similarity, *hubness_degrees(similarity, 3)
        )
        np.testing.assert_array_equal(csls_matrix(source, target, 3), corrected)

    def test_penalises_hub_targets(self):
        rng = np.random.default_rng(3)
        source = rng.normal(size=(12, 6))
        target = rng.normal(size=(12, 6))
        target[0] = source.mean(axis=0)  # a hub: close to every source
        raw_wins = int((cosine_similarity(source, target).argmax(axis=1) == 0).sum())
        csls_wins = int((csls_matrix(source, target, 3).argmax(axis=1) == 0).sum())
        assert csls_wins <= raw_wins

    def test_identity_embeddings_give_diagonal_mutual_matches(self):
        rng = np.random.default_rng(4)
        embeddings = rng.normal(size=(10, 6))
        scores = csls_matrix(embeddings, embeddings, 3)
        pairs = mutual_nearest_neighbors(scores)
        assert set(pairs) == {(i, i) for i in range(10)}

    def test_invalid_neighbors(self):
        with pytest.raises(ValueError):
            csls_matrix(np.zeros((3, 2)), np.zeros((3, 2)), 0)
