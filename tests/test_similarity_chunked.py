"""Chunked-vs-dense cross-validation: every streaming kernel must be
bit-identical to its dense counterpart, for every chunk size, including
degenerate and empty shapes."""

import numpy as np
import pytest

from repro.core import HTCAligner, HTCConfig
from repro.datasets import load_dataset
from repro.serve.index import build_index_from_embeddings
from repro.similarity.chunked import (
    ChunkedScorer,
    chunked_greedy_match,
    chunked_mutual_nearest_neighbors,
    chunked_score_matrix,
    chunked_top_k_indices,
    resolve_chunk_rows,
    streaming_hubness_degrees,
)
from repro.similarity.csls import csls_matrix
from repro.similarity.lisi import hubness_degrees, lisi_matrix
from repro.similarity.matching import (
    greedy_match,
    mutual_nearest_neighbors,
    top_k_indices,
)
from repro.similarity.measures import (
    BLOCK_ROWS,
    cosine_similarity,
    pearson_similarity,
)

SHAPES = [
    (257, 119, 33),  # crosses several aligned windows, rectangular
    (64, 64, 16),  # exactly one window
    (130, 40, 8),  # partial final window
    (5, 7, 3),  # smaller than one window
    (1, 1, 1),  # minimal
    (0, 5, 3),  # no source rows
    (5, 0, 3),  # no target rows
    (0, 0, 2),  # fully empty
]

CHUNKS = [1, 3, BLOCK_ROWS, 100, 2 * BLOCK_ROWS, 10_000, None]


def _embeddings(n_source, n_target, dim, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n_source, dim)),
        rng.standard_normal((n_target, dim)),
    )


class TestResolveChunkRows:
    def test_rounds_up_to_block_multiple(self):
        assert resolve_chunk_rows(1, 1000) == BLOCK_ROWS
        assert resolve_chunk_rows(BLOCK_ROWS + 1, 1000) == 2 * BLOCK_ROWS
        assert resolve_chunk_rows(BLOCK_ROWS, 1000) == BLOCK_ROWS

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_chunk_rows(0, 10)

    def test_none_uses_default(self):
        assert resolve_chunk_rows(None, 10_000) % BLOCK_ROWS == 0


class TestScoreMatrixBitIdentity:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_lisi_identical(self, shape, chunk):
        source, target = _embeddings(*shape)
        dense = lisi_matrix(source, target, n_neighbors=6)
        chunked = chunked_score_matrix(
            source,
            target,
            measure="pearson",
            correction="lisi",
            n_neighbors=6,
            chunk_rows=chunk,
        )
        np.testing.assert_array_equal(dense, chunked)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("chunk", [1, 100, None])
    def test_csls_identical(self, shape, chunk):
        source, target = _embeddings(*shape, seed=3)
        dense = csls_matrix(source, target, 4)
        chunked = chunked_score_matrix(
            source,
            target,
            measure="cosine",
            correction="csls",
            n_neighbors=4,
            chunk_rows=chunk,
        )
        np.testing.assert_array_equal(dense, chunked)

    @pytest.mark.parametrize("chunk", [1, 70, None])
    def test_raw_measures_identical(self, chunk):
        source, target = _embeddings(150, 90, 12, seed=5)
        np.testing.assert_array_equal(
            pearson_similarity(source, target),
            chunked_score_matrix(
                source, target, measure="pearson", chunk_rows=chunk
            ),
        )
        np.testing.assert_array_equal(
            cosine_similarity(source, target),
            chunked_score_matrix(
                source, target, measure="cosine", chunk_rows=chunk
            ),
        )

    def test_lisi_chunk_rows_keyword_matches_dense(self):
        source, target = _embeddings(200, 80, 10, seed=7)
        np.testing.assert_array_equal(
            lisi_matrix(source, target, 5),
            lisi_matrix(source, target, 5, chunk_rows=33),
        )

    def test_csls_chunk_rows_keyword_matches_dense(self):
        source, target = _embeddings(200, 80, 10, seed=8)
        np.testing.assert_array_equal(
            csls_matrix(source, target, 5),
            csls_matrix(source, target, 5, chunk_rows=65),
        )

    def test_out_buffer_is_used(self):
        source, target = _embeddings(100, 50, 8)
        out = np.empty((100, 50))
        result = chunked_score_matrix(
            source, target, correction="lisi", chunk_rows=64, out=out
        )
        assert result is out

    def test_invalid_measure_and_correction(self):
        source, target = _embeddings(4, 4, 2)
        with pytest.raises(ValueError):
            ChunkedScorer(source, target, measure="hamming")
        with pytest.raises(ValueError):
            ChunkedScorer(source, target, correction="zscore")


class TestStreamingHubness:
    @pytest.mark.parametrize("shape", [(257, 119, 33), (40, 90, 7), (3, 3, 2)])
    @pytest.mark.parametrize("chunk", [1, 64, 100, None])
    def test_identical_to_dense(self, shape, chunk):
        source, target = _embeddings(*shape, seed=11)
        similarity = pearson_similarity(source, target)
        dense_s, dense_t = hubness_degrees(similarity, 5)
        stream_s, stream_t = streaming_hubness_degrees(
            source, target, 5, chunk_rows=chunk
        )
        np.testing.assert_array_equal(dense_s, stream_s)
        np.testing.assert_array_equal(dense_t, stream_t)

    def test_empty_shapes(self):
        source, target = _embeddings(0, 4, 3)
        stream_s, stream_t = streaming_hubness_degrees(source, target, 3)
        assert stream_s.shape == (0,)
        np.testing.assert_array_equal(stream_t, np.zeros(4))


class TestChunkedMatching:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("chunk", [1, 64, 100, None])
    def test_mutual_nearest_neighbors(self, shape, chunk):
        source, target = _embeddings(*shape, seed=13)
        dense = mutual_nearest_neighbors(
            lisi_matrix(source, target, 4)
            if shape[0] and shape[1]
            else np.zeros(shape[:2])
        )
        chunked = chunked_mutual_nearest_neighbors(
            source, target, correction="lisi", n_neighbors=4, chunk_rows=chunk
        )
        assert dense == chunked

    @pytest.mark.parametrize("shape", [(257, 119, 33), (20, 60, 5), (0, 3, 2)])
    @pytest.mark.parametrize("chunk", [1, 64, None])
    def test_greedy_match(self, shape, chunk):
        source, target = _embeddings(*shape, seed=17)
        dense_matrix = chunked_score_matrix(
            source, target, correction="lisi", n_neighbors=4
        )
        dense = greedy_match(dense_matrix)
        chunked = chunked_greedy_match(
            source, target, correction="lisi", n_neighbors=4, chunk_rows=chunk
        )
        assert dense == chunked

    @pytest.mark.parametrize("k", [1, 4, 200])
    @pytest.mark.parametrize("chunk", [1, 64, None])
    def test_top_k(self, k, chunk):
        source, target = _embeddings(150, 60, 9, seed=19)
        dense = top_k_indices(pearson_similarity(source, target), k)
        chunked = chunked_top_k_indices(
            source, target, k, measure="pearson", chunk_rows=chunk
        )
        np.testing.assert_array_equal(dense, chunked)

    def test_top_k_invalid(self):
        source, target = _embeddings(5, 5, 2)
        with pytest.raises(ValueError):
            chunked_top_k_indices(source, target, 0)

    def test_scorer_row_matches_matrix_row(self):
        source, target = _embeddings(200, 70, 6, seed=23)
        scorer = ChunkedScorer(
            source, target, correction="lisi", n_neighbors=3, chunk_rows=128
        )
        matrix = chunked_score_matrix(
            source, target, correction="lisi", n_neighbors=3
        )
        for i in (0, 63, 64, 199):
            np.testing.assert_array_equal(scorer.row(i), matrix[i])


class TestAlignerChunkedBitIdentity:
    """The acceptance criterion: score_chunk_size must not change HTC."""

    @pytest.mark.parametrize("chunk", [7, 64])
    def test_full_pipeline_identical(self, chunk):
        pair = load_dataset("tiny")
        base = dict(
            epochs=6, embedding_dim=12, random_state=0, orbit_cache="off"
        )
        dense = HTCAligner(HTCConfig(**base)).align(pair)
        chunked = HTCAligner(
            HTCConfig(score_chunk_size=chunk, **base)
        ).align(pair)
        np.testing.assert_array_equal(
            dense.alignment_matrix, chunked.alignment_matrix
        )
        assert dense.trusted_pair_counts == chunked.trusted_pair_counts
        for orbit in dense.orbit_matrices:
            np.testing.assert_array_equal(
                dense.orbit_matrices[orbit], chunked.orbit_matrices[orbit]
            )

    def test_config_rejects_invalid_chunk(self):
        with pytest.raises(ValueError):
            HTCConfig(score_chunk_size=0)


class TestNoComputeBackendArgument:
    """The kernels issue their GEMMs with ``np.matmul`` directly; none of
    them takes the compute-backend selector any more, and the dense kernels
    take no ``chunk_rows``, so a caller still passing either fails loudly
    instead of being silently ignored."""

    @pytest.mark.parametrize(
        "kernel",
        [
            pearson_similarity,
            cosine_similarity,
            lisi_matrix,
            csls_matrix,
            ChunkedScorer,
            chunked_score_matrix,
            streaming_hubness_degrees,
            build_index_from_embeddings,
        ],
        ids=lambda kernel: kernel.__name__,
    )
    def test_backend_keyword_is_rejected(self, kernel):
        source, target = _embeddings(12, 9, 4)
        with pytest.raises(TypeError, match="backend"):
            if kernel is streaming_hubness_degrees:
                kernel(source, target, 3, backend="numpy")
            else:
                kernel(source, target, backend="numpy")

    @pytest.mark.parametrize(
        "kernel",
        [pearson_similarity, cosine_similarity],
        ids=lambda kernel: kernel.__name__,
    )
    def test_chunk_rows_keyword_is_rejected(self, kernel):
        # The dense kernels always block by window; ``chunk_rows`` selects
        # the streamed path only in lisi_matrix/csls_matrix.
        source, target = _embeddings(12, 9, 4)
        with pytest.raises(TypeError, match="chunk_rows"):
            kernel(source, target, chunk_rows=4)
