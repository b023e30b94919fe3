"""Edge-case coverage for the matching rules and CSLS.

Complements ``test_similarity.py`` with the corners the chunked kernels must
agree on: rectangular matrices, argmax ties, ``k > n_target``, empty inputs,
and the greedy matcher's equivalence to a brute-force reference.
"""

import numpy as np
import pytest

from repro.similarity.csls import csls_matrix
from repro.similarity.lisi import hubness_degrees
from repro.similarity.matching import (
    greedy_match,
    mutual_nearest_neighbors,
    top_k_indices,
)
from repro.similarity.measures import cosine_similarity

from _helpers import comprehension_mutual_nearest_neighbors


def _reference_greedy(scores: np.ndarray):
    """Brute-force greedy matching: repeatedly take the global max."""
    scores = scores.astype(np.float64, copy=True)
    n_source, n_target = scores.shape
    pairs = []
    for _ in range(min(n_source, n_target)):
        i, j = np.unravel_index(np.argmax(scores), scores.shape)
        pairs.append((int(i), int(j)))
        scores[i, :] = -np.inf
        scores[:, j] = -np.inf
    return pairs


class TestGreedyMatch:
    @pytest.mark.parametrize("shape", [(6, 6), (3, 9), (9, 3), (1, 5), (5, 1)])
    def test_matches_reference_on_unique_scores(self, shape):
        rng = np.random.default_rng(0)
        # Distinct entries so the greedy order is unambiguous.
        scores = rng.permutation(shape[0] * shape[1]).reshape(shape).astype(float)
        assert greedy_match(scores) == _reference_greedy(scores)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_on_random_floats(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal((8, 11))
        assert greedy_match(scores) == _reference_greedy(scores)

    def test_rectangular_saturates_smaller_side(self):
        rng = np.random.default_rng(1)
        tall = rng.standard_normal((10, 4))
        pairs = greedy_match(tall)
        assert len(pairs) == 4
        assert len({j for _, j in pairs}) == 4
        wide = rng.standard_normal((4, 10))
        pairs = greedy_match(wide)
        assert len(pairs) == 4
        assert len({i for i, _ in pairs}) == 4

    def test_tie_breaks_by_lowest_row_then_column(self):
        scores = np.array(
            [
                [1.0, 1.0],
                [1.0, 1.0],
            ]
        )
        assert greedy_match(scores) == [(0, 0), (1, 1)]

    def test_all_equal_scores_still_one_to_one(self):
        pairs = greedy_match(np.zeros((4, 4)))
        assert sorted(i for i, _ in pairs) == [0, 1, 2, 3]
        assert sorted(j for _, j in pairs) == [0, 1, 2, 3]

    def test_empty_inputs(self):
        assert greedy_match(np.zeros((0, 0))) == []
        assert greedy_match(np.zeros((0, 4))) == []
        assert greedy_match(np.zeros((4, 0))) == []

    def test_negative_infinity_scores_still_match(self):
        scores = np.full((3, 3), -np.inf)
        scores[0, 0] = 1.0
        pairs = greedy_match(scores)
        assert pairs[0] == (0, 0)
        assert len(pairs) == 3  # remaining rows matched among -inf columns

    def test_single_cell(self):
        assert greedy_match(np.array([[2.5]])) == [(0, 0)]


class TestMutualNearestNeighborTies:
    def test_row_tie_resolves_to_lowest_column(self):
        scores = np.array([[1.0, 1.0, 0.0]])
        # argmax tie in the row goes to column 0; column 0's best is row 0.
        assert mutual_nearest_neighbors(scores) == [(0, 0)]

    def test_column_tie_resolves_to_lowest_row(self):
        scores = np.array([[1.0], [1.0]])
        # Both rows prefer the only column; the column's argmax tie picks
        # row 0, so only (0, 0) is mutual.
        assert mutual_nearest_neighbors(scores) == [(0, 0)]

    def test_rectangular_no_mutual_pairs(self):
        scores = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        # Every row prefers column 1 but column 1 prefers row 2 only;
        # column 0 is nobody's argmax.
        assert mutual_nearest_neighbors(scores) == [(2, 1)]

    def test_empty_rectangles(self):
        assert mutual_nearest_neighbors(np.zeros((0, 3))) == []
        assert mutual_nearest_neighbors(np.zeros((3, 0))) == []

    @pytest.mark.parametrize(
        "make_scores",
        [
            lambda rng: rng.normal(size=(40, 40)),
            lambda rng: rng.normal(size=(25, 60)),
            lambda rng: rng.normal(size=(60, 25)),
            lambda rng: rng.integers(0, 3, size=(30, 20)).astype(float),
            lambda rng: np.full((12, 9), 0.5),
        ],
        ids=["random", "wide", "tall", "tied", "constant"],
    )
    def test_matches_comprehension_oracle(self, make_scores):
        scores = make_scores(np.random.default_rng(0))
        pairs = mutual_nearest_neighbors(scores)
        assert pairs == comprehension_mutual_nearest_neighbors(scores)
        assert all(type(i) is int and type(j) is int for i, j in pairs)


class TestTopKEdgeCases:
    def test_k_larger_than_targets_is_clipped(self):
        scores = np.array([[0.3, 0.1, 0.2]])
        top = top_k_indices(scores, 99)
        np.testing.assert_array_equal(top, [[0, 2, 1]])

    def test_k_equal_width(self):
        scores = np.array([[0.3, 0.1], [0.1, 0.3]])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [[0, 1], [1, 0]])

    def test_zero_width_matrix(self):
        top = top_k_indices(np.zeros((3, 0)), 4)
        assert top.shape == (3, 0)

    def test_zero_rows(self):
        top = top_k_indices(np.zeros((0, 5)), 2)
        assert top.shape == (0, 2)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            top_k_indices(np.zeros(4), 1)


class TestCSLSEdgeCases:
    def test_rectangular_shape(self):
        rng = np.random.default_rng(0)
        source = rng.standard_normal((7, 5))
        target = rng.standard_normal((3, 5))
        assert csls_matrix(source, target, 2).shape == (7, 3)

    def test_neighbors_larger_than_either_side(self):
        rng = np.random.default_rng(1)
        source = rng.standard_normal((3, 4))
        target = rng.standard_normal((5, 4))
        similarity = cosine_similarity(source, target)
        result = csls_matrix(source, target, 100)
        # With m larger than both sides the hubness terms are full means.
        expected = (
            2.0 * similarity
            - similarity.mean(axis=1)[:, None]
            - similarity.mean(axis=0)[None, :]
        )
        np.testing.assert_allclose(result, expected)

    def test_precomputed_similarity_not_mutated(self):
        rng = np.random.default_rng(2)
        source = rng.standard_normal((4, 3))
        target = rng.standard_normal((6, 3))
        similarity = cosine_similarity(source, target)
        before = similarity.copy()
        csls_matrix(source, target, 2, similarity=similarity)
        np.testing.assert_array_equal(similarity, before)

    def test_symmetric_self_alignment_diagonal_is_best(self):
        rng = np.random.default_rng(3)
        embeddings = rng.standard_normal((8, 6))
        scores = csls_matrix(embeddings, embeddings, 3)
        assert (scores.argmax(axis=1) == np.arange(8)).all()

    def test_invalid_neighbors(self):
        with pytest.raises(ValueError):
            csls_matrix(np.zeros((2, 2)), np.zeros((2, 2)), 0)

    def test_out_buffer_receives_result_with_precomputed_similarity(self):
        rng = np.random.default_rng(4)
        source = rng.standard_normal((5, 3))
        target = rng.standard_normal((6, 3))
        similarity = cosine_similarity(source, target)
        out = np.empty((5, 6))
        result = csls_matrix(source, target, 2, similarity=similarity, out=out)
        assert result is out
        np.testing.assert_array_equal(out, csls_matrix(source, target, 2))


class TestHubnessEdgeCases:
    def test_empty_similarity(self):
        source_h, target_h = hubness_degrees(np.zeros((0, 4)), 2)
        assert source_h.shape == (0,)
        np.testing.assert_array_equal(target_h, np.zeros(4))

    def test_single_row(self):
        source_h, target_h = hubness_degrees(np.array([[1.0, 3.0]]), 5)
        assert source_h[0] == pytest.approx(2.0)
        np.testing.assert_allclose(target_h, [1.0, 3.0])
