"""Tests for stitch conflict resolution, padding, and refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import dense_matrix_stitch
from repro.datasets.synthetic import tiny_pair
from repro.serve.index import DEFAULT_INDEX_K, build_index
from repro.shard.partition import ShardPair, ShardPlan, build_shard_plan
from repro.shard.stitch import refine_stitched, stitch_alignments


def _plan_from_pairs(pairs, n_shards=None):
    return ShardPlan(
        pairs=pairs,
        source_partition=None,
        target_partition=None,
        n_shards=n_shards if n_shards is not None else len(pairs),
        overlap=1,
        seed=0,
    )


def _shard(index, source_nodes, target_nodes):
    source_nodes = np.asarray(source_nodes, dtype=np.int64)
    target_nodes = np.asarray(target_nodes, dtype=np.int64)
    return ShardPair(
        index=index,
        source_shard=index,
        target_shard=index,
        source_core=source_nodes,
        target_core=target_nodes,
        source_nodes=source_nodes,
        target_nodes=target_nodes,
    )


def _stitch(plan, matrices, n_source, n_target, k=DEFAULT_INDEX_K, reverse_k=None):
    """Stitch dense shard matrices through the serve indexes a shard job writes."""
    indexes = [
        build_index(matrix, k=k, reverse_k=reverse_k if reverse_k else k)
        for matrix in matrices
    ]
    return stitch_alignments(plan, indexes, n_source, n_target, k, reverse_k)


def _assert_same_stitch(stitched, expected):
    for name in ("indices", "scores", "reverse_indices", "reverse_scores"):
        got, want = getattr(stitched.index, name), getattr(expected.index, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert stitched.conflicts_resolved == expected.conflicts_resolved
    assert stitched.multi_shard_sources == expected.multi_shard_sources


@st.composite
def _stitch_cases(draw):
    """Random overlapping plans over tie-heavy or continuous shard scores."""
    n_source = draw(st.integers(1, 9))
    n_target = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pairs, matrices = [], []
    for index in range(draw(st.integers(1, 4))):
        sides = []
        for n_nodes in (n_source, n_target):
            member = draw(st.lists(st.booleans(), min_size=n_nodes, max_size=n_nodes))
            sides.append(np.flatnonzero(member))
        empty_side = draw(st.sampled_from([None, None, 0, 1]))
        if empty_side is not None:
            sides[empty_side] = sides[empty_side][:0]
        pairs.append(_shard(index, *sides))
        shape = (sides[0].size, sides[1].size)
        # Integer draws from {0, 1, 2} make most candidates tie.
        ties = draw(st.booleans())
        scores = rng.integers(0, 3, size=shape) if ties else rng.standard_normal(shape)
        dtype = draw(st.sampled_from([np.int64, np.float32, np.float64]))
        matrices.append(scores.astype(dtype))
    k = draw(st.integers(1, n_target + 2))
    reverse_k = draw(st.integers(1, n_source + 2))
    extra_width = draw(st.integers(0, 2))
    plan = _plan_from_pairs(pairs)
    return plan, matrices, n_source, n_target, k, reverse_k, extra_width


class TestDenseMatrixOracle:
    @given(_stitch_cases())
    @settings(max_examples=150, deadline=None)
    def test_stitch_of_shard_indexes_equals_dense_stitch(self, case):
        plan, matrices, n_source, n_target, k, reverse_k, extra_width = case
        # The shard indexes may be wider than the stitch; it reads a prefix.
        indexes = [
            build_index(m, k=k + extra_width, reverse_k=reverse_k + extra_width)
            for m in matrices
        ]
        stitched = stitch_alignments(plan, indexes, n_source, n_target, k, reverse_k)
        expected = dense_matrix_stitch(
            plan, matrices, n_source, n_target, k, reverse_k
        )
        _assert_same_stitch(stitched, expected)

    def test_partitioned_plan_equals_dense_stitch(self):
        pair = tiny_pair(n_nodes=60, random_state=0)
        plan = build_shard_plan(pair, 3, overlap=1)
        matrices = _float32_shard_matrices(plan)
        n_s, n_t = pair.source.n_nodes, pair.target.n_nodes
        stitched = _stitch(plan, matrices, n_s, n_t, k=5, reverse_k=7)
        expected = dense_matrix_stitch(plan, matrices, n_s, n_t, 5, 7)
        _assert_same_stitch(stitched, expected)
        assert stitched.multi_shard_sources > 0


class TestSingleShardParity:
    def test_one_full_shard_equals_dense_index(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((12, 9))
        plan = _plan_from_pairs([_shard(0, np.arange(12), np.arange(9))])
        stitched = _stitch(plan, [matrix], 12, 9, k=4)
        dense = build_index(matrix, k=4)
        assert np.array_equal(stitched.index.indices, dense.indices)
        assert np.array_equal(stitched.index.scores, dense.scores)
        assert np.array_equal(stitched.index.reverse_indices, dense.reverse_indices)

    def test_tied_scores_resolve_to_lowest_column(self):
        matrix = np.zeros((2, 5))  # every score ties
        plan = _plan_from_pairs([_shard(0, np.arange(2), np.arange(5))])
        stitched = _stitch(plan, [matrix], 2, 5, k=3)
        assert np.array_equal(
            stitched.index.indices, np.array([[0, 1, 2], [0, 1, 2]])
        )


class TestConflictResolution:
    def test_overlapping_boundary_keeps_best_score(self):
        """Node 1 is in both shards; its scores disagree — best wins."""
        shard_a = _shard(0, [0, 1], [0, 1])
        shard_b = _shard(1, [1, 2], [1, 2])
        matrix_a = np.array([[0.9, 0.1], [0.2, 0.8]])
        matrix_b = np.array([[0.5, 0.3], [0.1, 0.7]])
        plan = _plan_from_pairs([shard_a, shard_b])
        stitched = _stitch(plan, [matrix_a, matrix_b], 3, 3, k=2)
        # source 1: candidates {t1: max(0.8, 0.5), t0: 0.2, t2: 0.3}
        assert stitched.index.match([1])[0] == 1
        assert stitched.index.scores[1, 0] == pytest.approx(0.8)
        assert stitched.conflicts_resolved == 1  # (1, t1) scored twice
        assert stitched.multi_shard_sources == 1

    def test_tied_duplicate_resolves_to_lowest_shard(self):
        """Same (source, target) score from two shards: lowest shard wins
        (pure bookkeeping — the kept score value is identical)."""
        shard_a = _shard(0, [0], [0, 1])
        shard_b = _shard(1, [0], [0, 1])
        matrix = np.array([[0.5, 0.25]])
        plan = _plan_from_pairs([shard_a, shard_b])
        stitched = _stitch(plan, [matrix, matrix.copy()], 1, 2, k=2)
        assert stitched.conflicts_resolved == 2
        assert np.array_equal(stitched.index.indices[0], [0, 1])
        assert stitched.index.scores[0, 0] == pytest.approx(0.5)

    def test_cross_shard_tie_breaks_by_lower_target_index(self):
        """Equal scores for different targets order by global target id,
        regardless of which shard produced which."""
        shard_a = _shard(0, [0], [2])  # offers target 2 at 0.5
        shard_b = _shard(1, [0], [1])  # offers target 1 at 0.5
        plan = _plan_from_pairs([shard_a, shard_b])
        stitched = _stitch(
            plan, [np.array([[0.5]]), np.array([[0.5]])], 1, 3, k=2
        )
        assert np.array_equal(stitched.index.indices[0], [1, 2])


class TestPadding:
    def test_rows_without_candidates_are_minus_one(self):
        """Source 2 is in no shard: padded row, match returns -1."""
        plan = _plan_from_pairs([_shard(0, [0, 1], [0, 1])])
        matrix = np.array([[0.4, 0.6], [0.7, 0.3]])
        stitched = _stitch(plan, [matrix], 3, 2, k=2)
        assert np.array_equal(stitched.index.indices[2], [-1, -1])
        assert np.all(np.isneginf(stitched.index.scores[2]))

    def test_small_shard_pads_width(self):
        """A shard with fewer targets than k pads the remaining slots."""
        plan = _plan_from_pairs([_shard(0, [0], [1])])
        stitched = _stitch(plan, [np.array([[0.9]])], 1, 5, k=3)
        assert np.array_equal(stitched.index.indices[0], [1, -1, -1])


def _float32_shard_matrices(plan):
    return [
        np.random.default_rng(100 + p.index)
        .standard_normal((p.source_nodes.size, p.target_nodes.size))
        .astype(np.float32)
        for p in plan.pairs
    ]


class TestScoreDtype:
    @pytest.fixture(scope="class")
    def pair_and_plan(self):
        pair = tiny_pair(n_nodes=60, random_state=0)
        return pair, build_shard_plan(pair, 3, overlap=1)

    def test_float64_shard_promotes_the_merged_dtype(self, pair_and_plan):
        pair, plan = pair_and_plan
        matrices = _float32_shard_matrices(plan)
        matrices[1] = matrices[1].astype(np.float64)
        stitched = _stitch(
            plan, matrices, pair.source.n_nodes, pair.target.n_nodes, k=4
        )
        assert stitched.index.score_dtype == np.dtype(np.float64)
        assert stitched.index.reverse_scores.dtype == np.dtype(np.float64)

    def test_all_float32_stays_float32(self, pair_and_plan):
        pair, plan = pair_and_plan
        stitched = _stitch(
            plan,
            _float32_shard_matrices(plan),
            pair.source.n_nodes,
            pair.target.n_nodes,
            k=4,
        )
        assert stitched.index.score_dtype == np.dtype(np.float32)
        assert stitched.index.reverse_scores.dtype == np.dtype(np.float32)


class TestStitchedAlignment:
    @pytest.fixture(scope="class")
    def stitched(self):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((10, 10))
        plan = _plan_from_pairs([_shard(0, np.arange(10), np.arange(10))])
        return _stitch(plan, [matrix], 10, 10, k=4), matrix

    def test_to_result_argmax_matches_index(self, stitched):
        alignment, _ = stitched
        result = alignment.to_result()
        assert np.array_equal(
            result.alignment_matrix.argmax(axis=1),
            alignment.match(np.arange(10)),
        )

    def test_to_result_fill_below_all_candidates(self, stitched):
        alignment, matrix = stitched
        dense = alignment.to_result().alignment_matrix
        stored = alignment.index.scores[np.isfinite(alignment.index.scores)]
        assert dense.min() < stored.min()

    def test_shape_and_repr(self, stitched):
        alignment, _ = stitched
        assert alignment.shape == (10, 10)
        assert "shards=1" in repr(alignment)

    def test_index_shape_mismatch_raises(self):
        plan = _plan_from_pairs([_shard(0, [0, 1], [0, 1])])
        with pytest.raises(ValueError, match="does not match"):
            stitch_alignments(plan, [build_index(np.zeros((3, 2)))], 2, 2)

    def test_index_count_mismatch_raises(self):
        plan = _plan_from_pairs([_shard(0, [0], [0])])
        with pytest.raises(ValueError, match="shard pairs but 0 shard indexes"):
            stitch_alignments(plan, [], 1, 1)

    @pytest.mark.parametrize("kwargs", [{"k": 0}, {"reverse_k": 0}])
    def test_invalid_widths_raise(self, kwargs):
        plan = _plan_from_pairs([_shard(0, [0, 1], [0, 1])])
        index = build_index(np.zeros((2, 2)), k=2)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            stitch_alignments(plan, [index], 2, 2, **{"k": 2, **kwargs})

    @pytest.mark.parametrize(
        "index_k, reverse_k, side", [(2, 8, "index_k"), (8, 2, "reverse_k")]
    )
    def test_narrow_index_raises_with_reexport_hint(self, index_k, reverse_k, side):
        plan = _plan_from_pairs([_shard(0, np.arange(8), np.arange(8))])
        index = build_index(np.zeros((8, 8)), k=index_k, reverse_k=reverse_k)
        with pytest.raises(ValueError, match=f"larger {side}"):
            stitch_alignments(plan, [index], 8, 8, k=6)


class TestReverseOnlyCandidates:
    """Pairs stored only in the reverse index must survive refinement and
    densification (regression tests)."""

    @pytest.fixture(scope="class")
    def reverse_only_setup(self):
        # k=1 forward: s0->t0, s1->t0, s2->t2.  reverse_k=2 keeps (0, t1)
        # at 0.8 — a reverse-only pair (t1 ranks s0 highly, but s0's own
        # top-1 is t0).
        matrix = np.array(
            [
                [0.9, 0.8, 0.1],
                [0.85, 0.2, 0.1],
                [0.1, 0.1, 0.5],
            ]
        )
        plan = _plan_from_pairs([_shard(0, np.arange(3), np.arange(3))])
        stitched = _stitch(plan, [matrix], 3, 3, k=1, reverse_k=2)
        assert stitched.index.reverse_indices[1, 0] == 0  # reverse-only pair
        assert not np.any(stitched.index.indices[0] == 1)
        return stitched

    def test_refinement_keeps_reverse_only_pairs(self, reverse_only_setup):
        from repro.graph.builders import from_edge_list

        graph = from_edge_list([(0, 1), (1, 2)], n_nodes=3)
        refined = refine_stitched(
            reverse_only_setup, graph, graph, iterations=1, alpha=0.0
        )
        # alpha=0 leaves scores untouched; the rebuild must not drop the
        # reverse-only candidate (0, t1).
        assert refined.index.reverse_indices[1, 0] == 0
        assert refined.index.reverse_scores[1, 0] == pytest.approx(0.8)

    def test_to_result_fill_covers_reverse_only_scores(self, reverse_only_setup):
        dense = reverse_only_setup.to_result().alignment_matrix
        assert dense[0, 1] == pytest.approx(0.8)
        stored = np.concatenate(
            [
                reverse_only_setup.index.scores.ravel(),
                reverse_only_setup.index.reverse_scores.ravel(),
            ]
        )
        fill = dense.min()
        assert fill < stored[np.isfinite(stored)].min()


class TestRefinement:
    def test_zero_iterations_is_identity(self):
        pair = tiny_pair(n_nodes=40, random_state=0)
        plan = build_shard_plan(pair, 2, overlap=1, seed=0)
        matrices = [
            np.random.default_rng(i).standard_normal(
                (p.source_nodes.size, p.target_nodes.size)
            )
            for i, p in enumerate(plan.pairs)
        ]
        stitched = _stitch(plan, matrices, pair.source.n_nodes, pair.target.n_nodes)
        refined = refine_stitched(
            stitched, pair.source, pair.target, iterations=0
        )
        assert np.array_equal(refined.index.indices, stitched.index.indices)
        assert np.array_equal(refined.index.scores, stitched.index.scores)

    def test_refinement_promotes_seed_consistent_candidates(self):
        """Two isomorphic triangles plus a tie: the seed-consistency bonus
        must break the tie towards the structure-preserving match."""
        from repro.graph.builders import from_edge_list

        graph = from_edge_list([(0, 1), (1, 2), (0, 2)], n_nodes=4)
        plan = _plan_from_pairs([_shard(0, np.arange(4), np.arange(4))])
        # Node 2 ties between targets 2 and 3; 0<->0 and 1<->1 are mutual
        # seeds and both neighbour target 2, so refinement must pick 2.
        matrix = np.array(
            [
                [0.9, 0.1, 0.1, 0.1],
                [0.1, 0.9, 0.1, 0.1],
                [0.1, 0.1, 0.5, 0.5],
                [0.1, 0.1, 0.1, 0.2],
            ]
        )
        stitched = _stitch(plan, [matrix], 4, 4, k=4)
        assert stitched.match([2])[0] == 2  # tie broken by lowest index
        refined = refine_stitched(stitched, graph, graph, iterations=1)
        assert refined.match([2])[0] == 2
        assert refined.index.scores[2, 0] > refined.index.scores[2, 1]

    def test_rejects_bad_parameters(self):
        pair = tiny_pair(n_nodes=20, random_state=0)
        plan = _plan_from_pairs(
            [_shard(0, np.arange(20), np.arange(pair.target.n_nodes))]
        )
        matrix = np.zeros((20, pair.target.n_nodes))
        stitched = _stitch(plan, [matrix], 20, pair.target.n_nodes)
        with pytest.raises(ValueError, match="iterations"):
            refine_stitched(stitched, pair.source, pair.target, iterations=-1)
        with pytest.raises(ValueError, match="alpha"):
            refine_stitched(stitched, pair.source, pair.target, alpha=-0.1)
