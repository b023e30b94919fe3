"""Block-engine-vs-dense cross-validation: every score matrix the engine
builds must be bit-identical to the dense reference under every block
budget, including degenerate and empty shapes."""

import numpy as np
import pytest
from _helpers import BLOCK_BUDGETS, dense_score_matrix, set_block_budget

from repro.core import HTCAligner, HTCConfig
from repro.core.integration import integrate_alignment_matrices
from repro.datasets.synthetic import tiny_pair
from repro.serve.index import build_index, build_index_from_embeddings
from repro.similarity import chunked
from repro.similarity.chunked import (
    ChunkedScorer,
    _block_rows,
    chunked_mutual_nearest_neighbors,
)
from repro.similarity.csls import csls_matrix
from repro.similarity.lisi import hubness_degrees, lisi_matrix
from repro.similarity.matching import mutual_nearest_neighbors
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

BUDGETS = sorted(BLOCK_BUDGETS)


def _embeddings(n_source, n_target, dim, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((n_source, dim)),
        rng.standard_normal((n_target, dim)),
    )


def _block_bounds(scorer):
    return [(start, stop) for start, stop, _block in scorer.iter_blocks()]


class TestBlockRule:
    def test_rows_are_whole_windows(self, monkeypatch):
        monkeypatch.setattr(chunked, "_BLOCK_CELL_BUDGET", 5 * BLOCK_ROWS * 10 + 3)
        assert _block_rows(10) == 5 * BLOCK_ROWS
        monkeypatch.setattr(chunked, "_BLOCK_CELL_BUDGET", 5 * BLOCK_ROWS * 10 - 1)
        assert _block_rows(10) == 4 * BLOCK_ROWS

    def test_at_least_one_window(self, monkeypatch):
        monkeypatch.setattr(chunked, "_BLOCK_CELL_BUDGET", 1)
        for n_target in (0, 1, 1000):
            assert _block_rows(n_target) == BLOCK_ROWS

    @pytest.mark.parametrize("policy", ["float64", "float32"])
    @pytest.mark.parametrize("n_target", [380, 240])
    def test_perfbench_views_are_one_block(self, n_target, policy):
        # perfbench's align views (400×380 dense, 400×240 sparse) and their
        # integration each take one block, under both precision policies.
        source, target = _embeddings(400, n_target, 8)
        scorer = ChunkedScorer(source, target, correction="lisi", policy=policy)
        assert _block_bounds(scorer) == [(0, 400)]

    def test_height_ignores_the_dtype(self):
        source, target = _embeddings(1000, 1500, 2)
        heights = {
            policy: _block_bounds(ChunkedScorer(source, target, policy=policy))
            for policy in ("float64", "float32")
        }
        assert heights["float64"] == heights["float32"]
        assert len(heights["float64"]) > 1


class TestScoreMatrixBitIdentity:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_lisi_identical(self, monkeypatch, shape, budget):
        source, target = _embeddings(*shape)
        dense = dense_score_matrix(source, target, correction="lisi", n_neighbors=6)
        set_block_budget(monkeypatch, budget, shape[1])
        np.testing.assert_array_equal(
            lisi_matrix(source, target, n_neighbors=6), dense
        )

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_csls_identical(self, monkeypatch, shape, budget):
        source, target = _embeddings(*shape, seed=3)
        dense = dense_score_matrix(
            source, target, measure="cosine", correction="csls", n_neighbors=4
        )
        set_block_budget(monkeypatch, budget, shape[1])
        np.testing.assert_array_equal(csls_matrix(source, target, 4), dense)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_raw_measures_identical(self, monkeypatch, budget):
        source, target = _embeddings(150, 90, 12, seed=5)
        set_block_budget(monkeypatch, budget, 90)
        np.testing.assert_array_equal(
            pearson_similarity(source, target),
            ChunkedScorer(source, target, measure="pearson").full_matrix(),
        )
        np.testing.assert_array_equal(
            cosine_similarity(source, target),
            ChunkedScorer(source, target, measure="cosine").full_matrix(),
        )

    def test_lisi_default_budget_matches_dense(self):
        source, target = _embeddings(200, 80, 10, seed=7)
        np.testing.assert_array_equal(
            lisi_matrix(source, target, 5),
            dense_score_matrix(source, target, correction="lisi", n_neighbors=5),
        )

    def test_csls_default_budget_matches_dense(self):
        source, target = _embeddings(200, 80, 10, seed=8)
        np.testing.assert_array_equal(
            csls_matrix(source, target, 5),
            dense_score_matrix(
                source, target, measure="cosine", correction="csls", n_neighbors=5
            ),
        )

    def test_out_buffer_is_used(self):
        source, target = _embeddings(100, 50, 8)
        out = np.empty((100, 50))
        result = lisi_matrix(source, target, 10, out=out)
        assert result is out

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_scorer_blocks_match_matrix_rows(self, monkeypatch, budget):
        source, target = _embeddings(200, 70, 6, seed=23)
        dense = dense_score_matrix(source, target, correction="lisi", n_neighbors=3)
        set_block_budget(monkeypatch, budget, 70)
        scorer = ChunkedScorer(source, target, correction="lisi", n_neighbors=3)
        for start, stop in ((0, 64), (64, 128), (192, 200)):
            np.testing.assert_array_equal(
                scorer.block(start, stop), dense[start:stop]
            )

    def test_invalid_measure_and_correction(self):
        source, target = _embeddings(4, 4, 2)
        with pytest.raises(ValueError):
            ChunkedScorer(source, target, measure="hamming")
        with pytest.raises(ValueError):
            ChunkedScorer(source, target, correction="zscore")


class TestStreamingHubness:
    @pytest.mark.parametrize("shape", [(257, 119, 33), (40, 90, 7), (3, 3, 2)])
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_identical_to_dense(self, monkeypatch, shape, budget):
        source, target = _embeddings(*shape, seed=11)
        similarity = pearson_similarity(source, target)
        dense_s, dense_t = hubness_degrees(similarity, 5)
        set_block_budget(monkeypatch, budget, shape[1])
        scorer = ChunkedScorer(source, target, correction="lisi", n_neighbors=5)
        stream_s, stream_t = scorer.hubness()
        np.testing.assert_array_equal(dense_s, stream_s)
        np.testing.assert_array_equal(dense_t, stream_t)

    def test_empty_shapes(self):
        source, target = _embeddings(0, 4, 3)
        scorer = ChunkedScorer(source, target, correction="lisi", n_neighbors=3)
        stream_s, stream_t = scorer.hubness()
        assert stream_s.shape == (0,)
        np.testing.assert_array_equal(stream_t, np.zeros(4))


class TestChunkedMatching:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_mutual_nearest_neighbors(self, monkeypatch, shape, budget):
        source, target = _embeddings(*shape, seed=13)
        dense = mutual_nearest_neighbors(
            dense_score_matrix(source, target, correction="lisi", n_neighbors=4)
        )
        set_block_budget(monkeypatch, budget, shape[1])
        chunked_pairs = chunked_mutual_nearest_neighbors(
            source, target, correction="lisi", n_neighbors=4
        )
        assert dense == chunked_pairs


class TestAlignerBlockBitIdentity:
    """The block budget must not change HTC: the final matrix and every
    view's refined embeddings (which rebuild its matrix) are equal whether
    every score matrix is built one window or one block at a time."""

    def test_full_pipeline_identical(self, monkeypatch):
        pair = tiny_pair(150, random_state=1)
        assert pair.source.n_nodes > 2 * BLOCK_ROWS
        config = HTCConfig(
            epochs=4, embedding_dim=8, orbits=range(3), orbit_cache="off"
        )
        results = {}
        for budget in ("one-window", "one-block"):
            set_block_budget(monkeypatch, budget, pair.target.n_nodes)
            results[budget] = HTCAligner(config).align(pair)
        windowed, whole = results["one-window"], results["one-block"]
        np.testing.assert_array_equal(
            windowed.alignment_matrix, whole.alignment_matrix
        )
        assert windowed.trusted_pair_counts == whole.trusted_pair_counts
        assert sorted(whole.source_embeddings) == [0, 1, 2]
        for orbit in whole.source_embeddings:
            np.testing.assert_array_equal(
                windowed.source_embeddings[orbit], whole.source_embeddings[orbit]
            )
            np.testing.assert_array_equal(
                windowed.target_embeddings[orbit], whole.target_embeddings[orbit]
            )


class TestNoComputeBackendArgument:
    """The kernels run their GEMMs with ``np.matmul`` directly and take
    their block height from the engine's rule; none of them takes the
    compute-backend selector, ``chunk_rows`` or a precomputed
    ``similarity`` any more, so a caller still passing one fails loudly
    instead of being silently ignored."""

    @pytest.mark.parametrize(
        "kernel",
        [
            pearson_similarity,
            cosine_similarity,
            lisi_matrix,
            csls_matrix,
            ChunkedScorer,
            build_index_from_embeddings,
        ],
        ids=lambda kernel: kernel.__name__,
    )
    def test_backend_keyword_is_rejected(self, kernel):
        source, target = _embeddings(12, 9, 4)
        with pytest.raises(TypeError, match="backend"):
            kernel(source, target, backend="numpy")

    @pytest.mark.parametrize(
        "kernel",
        [
            pearson_similarity,
            cosine_similarity,
            lisi_matrix,
            csls_matrix,
            ChunkedScorer,
            chunked_mutual_nearest_neighbors,
            build_index_from_embeddings,
            pytest.param(
                lambda s, t, **kw: build_index(pearson_similarity(s, t), **kw),
                id="build_index",
            ),
            pytest.param(
                lambda s, t, **kw: integrate_alignment_matrices(
                    {0: pearson_similarity(s, t)}, {0: 1}, **kw
                ),
                id="integrate_alignment_matrices",
            ),
        ],
        ids=lambda kernel: kernel.__name__,
    )
    def test_chunk_rows_keyword_is_rejected(self, kernel):
        source, target = _embeddings(12, 9, 4)
        with pytest.raises(TypeError, match="chunk_rows"):
            kernel(source, target, chunk_rows=4)

    @pytest.mark.parametrize(
        "kernel", [lisi_matrix, csls_matrix], ids=lambda kernel: kernel.__name__
    )
    def test_similarity_keyword_is_rejected(self, kernel):
        source, target = _embeddings(12, 9, 4)
        with pytest.raises(TypeError, match="similarity"):
            kernel(source, target, similarity=pearson_similarity(source, target))
