"""Correctness of the sparse top-k index against the dense kernels."""

import numpy as np
import pytest
from _helpers import BLOCK_BUDGETS, dense_score_matrix, set_block_budget

from repro.serve.index import (
    DEFAULT_INDEX_K,
    SparseTopKIndex,
    build_index,
    build_index_from_embeddings,
)
from repro.similarity.matching import top_k_indices

BUDGETS = sorted(BLOCK_BUDGETS)


def random_matrix(n_s, n_t, seed=0):
    return np.random.default_rng(seed).standard_normal((n_s, n_t))


def tie_heavy_matrix(n_s, n_t, levels=4, seed=0):
    """Scores drawn from a tiny value set — ties everywhere."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, levels, size=(n_s, n_t)).astype(np.float64)


class TestForwardQueries:
    @pytest.mark.parametrize("shape", [(60, 45), (45, 60), (64, 64)])
    def test_top_k_matches_dense_for_all_smaller_k(self, shape):
        matrix = random_matrix(*shape, seed=1)
        index = build_index(matrix, k=9)
        rows = np.arange(shape[0])
        for k in (1, 2, 5, 9):
            np.testing.assert_array_equal(
                index.top_k(rows, k), top_k_indices(matrix, k)
            )

    def test_match_equals_dense_argmax(self):
        matrix = random_matrix(50, 70, seed=2)
        index = build_index(matrix, k=3)
        np.testing.assert_array_equal(
            index.match(np.arange(50)), matrix.argmax(axis=1)
        )

    @pytest.mark.parametrize("shape", [(80, 37), (37, 80)])
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_tie_heavy_matrix_bit_identical(self, monkeypatch, shape, budget):
        matrix = tie_heavy_matrix(*shape, levels=3, seed=3)
        set_block_budget(monkeypatch, budget, shape[1])
        index = build_index(matrix, k=8)
        rows = np.arange(shape[0])
        np.testing.assert_array_equal(index.match(rows), matrix.argmax(axis=1))
        for k in (1, 4, 8):
            np.testing.assert_array_equal(
                index.top_k(rows, k), top_k_indices(matrix, k)
            )

    def test_boundary_tie_rows_match_full_sort(self):
        """Rows where the k-th value ties unselected entries stay exact."""
        rng = np.random.default_rng(42)
        for trial in range(20):
            matrix = rng.integers(0, 3, size=(30, 50)).astype(np.float64)
            for k in (1, 2, 7, 49):
                expected = np.argsort(-matrix, axis=1, kind="stable")[:, :k]
                np.testing.assert_array_equal(top_k_indices(matrix, k), expected)

    def test_constant_matrix_ties_resolve_to_lowest_index(self):
        matrix = np.ones((10, 12))
        index = build_index(matrix, k=5)
        np.testing.assert_array_equal(index.match(np.arange(10)), np.zeros(10))
        np.testing.assert_array_equal(
            index.top_k([3], 5), [[0, 1, 2, 3, 4]]
        )

    def test_scores_align_with_indices(self):
        matrix = random_matrix(20, 30, seed=4)
        index = build_index(matrix, k=6)
        rows = np.arange(20)
        indices = index.top_k(rows, 6)
        np.testing.assert_array_equal(
            index.top_k_scores(rows, 6),
            np.take_along_axis(matrix, indices, axis=1),
        )


class TestReverseQueries:
    @pytest.mark.parametrize("shape", [(55, 33), (33, 55), (155, 33)])
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_reverse_equals_transposed_dense(self, monkeypatch, shape, budget):
        matrix = random_matrix(*shape, seed=5)
        set_block_budget(monkeypatch, budget, shape[1])
        index = build_index(matrix, k=4, reverse_k=7)
        cols = np.arange(shape[1])
        np.testing.assert_array_equal(
            index.reverse_match(cols), matrix.argmax(axis=0)
        )
        for k in (1, 3, 7):
            np.testing.assert_array_equal(
                index.reverse_top_k(cols, k), top_k_indices(matrix.T, k)
            )

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_reverse_tie_heavy(self, monkeypatch, budget):
        matrix = tie_heavy_matrix(70, 40, levels=2, seed=6)
        set_block_budget(monkeypatch, budget, 40)
        index = build_index(matrix, k=3, reverse_k=6)
        cols = np.arange(40)
        np.testing.assert_array_equal(
            index.reverse_match(cols), matrix.argmax(axis=0)
        )
        np.testing.assert_array_equal(
            index.reverse_top_k(cols, 6), top_k_indices(matrix.T, 6)
        )


class TestChunkingInvariance:
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_result_independent_of_block_budget(self, monkeypatch, budget):
        matrix = tie_heavy_matrix(130, 90, levels=5, seed=7)
        set_block_budget(monkeypatch, "one-block", 90)
        reference = build_index(matrix, k=7, reverse_k=7)
        set_block_budget(monkeypatch, budget, 90)
        other = build_index(matrix, k=7, reverse_k=7)
        np.testing.assert_array_equal(reference.indices, other.indices)
        np.testing.assert_array_equal(reference.scores, other.scores)
        np.testing.assert_array_equal(
            reference.reverse_indices, other.reverse_indices
        )
        np.testing.assert_array_equal(
            reference.reverse_scores, other.reverse_scores
        )


class TestEmbeddingBuilder:
    @pytest.mark.parametrize("correction", [None, "lisi", "csls"])
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_matches_dense_scoring(self, monkeypatch, correction, budget):
        rng = np.random.default_rng(8)
        source = rng.standard_normal((90, 12))
        target = rng.standard_normal((70, 12))
        dense = dense_score_matrix(
            source, target, measure="pearson", correction=correction, n_neighbors=5
        )
        set_block_budget(monkeypatch, budget, 70)
        index = build_index_from_embeddings(
            source,
            target,
            k=6,
            measure="pearson",
            correction=correction,
            n_neighbors=5,
        )
        rows = np.arange(90)
        np.testing.assert_array_equal(index.top_k(rows, 6), top_k_indices(dense, 6))
        np.testing.assert_array_equal(index.match(rows), dense.argmax(axis=1))
        np.testing.assert_array_equal(
            index.reverse_match(np.arange(70)), dense.argmax(axis=0)
        )


class TestValidationAndEdges:
    def test_k_clipped_to_width(self):
        matrix = random_matrix(10, 4, seed=9)
        index = build_index(matrix, k=50)
        assert index.indices.shape == (10, 4)
        # queries asking for more than the width are clipped, like the
        # dense kernel
        np.testing.assert_array_equal(
            index.top_k(np.arange(10), 50), top_k_indices(matrix, 50)
        )

    def test_k_beyond_indexed_width_raises(self):
        index = build_index(random_matrix(10, 20, seed=10), k=3)
        with pytest.raises(ValueError, match="exceeds the indexed width"):
            index.top_k([0], 4)

    def test_out_of_range_nodes_raise(self):
        index = build_index(random_matrix(10, 8, seed=11), k=2)
        with pytest.raises(IndexError):
            index.match([10])
        with pytest.raises(IndexError):
            index.reverse_match([-1])

    def test_invalid_build_parameters(self):
        matrix = random_matrix(4, 4, seed=12)
        with pytest.raises(ValueError):
            build_index(matrix, k=0)
        with pytest.raises(ValueError):
            build_index(matrix, k=2, reverse_k=-1)
        with pytest.raises(ValueError):
            build_index(matrix, k=2, reverse_k=0)
        with pytest.raises(ValueError):
            build_index(np.zeros(3), k=1)

    @pytest.mark.parametrize("nodes", [[0.7], [True, False], np.array([1.0])])
    @pytest.mark.parametrize(
        "method",
        ["match", "top_k", "top_k_scores", "reverse_match", "reverse_top_k"],
    )
    def test_non_integer_nodes_raise(self, method, nodes):
        index = build_index(random_matrix(10, 8, seed=11), k=2)
        args = (2,) if "top_k" in method else ()
        with pytest.raises(ValueError, match="integers"):
            getattr(index, method)(nodes, *args)

    def test_integer_and_empty_nodes_answer(self):
        matrix = random_matrix(10, 8, seed=11)
        index = build_index(matrix, k=2)
        np.testing.assert_array_equal(
            index.match(np.array([0, 3], dtype=np.uint8)), matrix.argmax(axis=1)[[0, 3]]
        )
        assert index.match([]).shape == (0,)
        assert index.reverse_top_k([], 2).shape == (0, 2)

    def test_scalar_node_query(self):
        matrix = random_matrix(10, 10, seed=13)
        index = build_index(matrix, k=2)
        assert index.match(3).shape == (1,)
        assert int(index.match(3)[0]) == int(matrix[3].argmax())

    def test_default_k(self):
        matrix = random_matrix(30, 30, seed=14)
        index = build_index(matrix)
        assert index.k == DEFAULT_INDEX_K

    def test_memory_accounting(self):
        matrix = random_matrix(200, 150, seed=15)
        index = build_index(matrix, k=5)
        assert index.dense_nbytes == 200 * 150 * 8
        assert index.nbytes < index.dense_nbytes
        assert index.compression_ratio > 1.0

    def test_payload_round_trip(self):
        matrix = tie_heavy_matrix(40, 25, seed=16)
        index = build_index(matrix, k=6, reverse_k=3)
        rebuilt = SparseTopKIndex.from_payload(
            index.array_payload(), index.meta_payload()
        )
        assert rebuilt.shape == index.shape
        assert rebuilt.k == index.k and rebuilt.reverse_k == index.reverse_k
        np.testing.assert_array_equal(rebuilt.indices, index.indices)
        np.testing.assert_array_equal(
            rebuilt.reverse_indices, index.reverse_indices
        )

    def test_payload_missing_arrays_raises(self):
        index = build_index(random_matrix(5, 5, seed=17), k=2)
        payload = index.array_payload()
        del payload["index_scores"]
        with pytest.raises(ValueError, match="missing arrays"):
            SparseTopKIndex.from_payload(payload, index.meta_payload())
