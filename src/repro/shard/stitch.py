"""Merge per-shard top-k indexes into one global sparse alignment.

Every shard job exports a :class:`~repro.serve.index.SparseTopKIndex` of its
own ``(local source, local target)`` score block: each row's top-``k``
prefix, and each column's, under the total order *(score descending, index
ascending)*.  :func:`stitch_alignments` folds those indexes into one global
:class:`~repro.serve.index.SparseTopKIndex`:

* per global source node, the best ``k`` target candidates across every
  shard that contains the node,
* per global target node, the best ``reverse_k`` source candidates,

ordered by the same total order, with duplicate ``(source, target)``
candidates (a pair scored by two overlapping shards) resolved score-first
and ties by lowest shard id.  The resolution is pure sorting, so it is
deterministic and independent of shard execution order.  Because a stored
row is exactly the dense row's top-``k`` prefix, the result equals a stitch
of the shards' dense score matrices, which is never loaded.

Rows whose shard offered fewer than ``k`` candidates are padded with index
``-1`` and score ``-inf`` (the serve index always stores full rows); a
``-1`` in a query answer therefore means "no candidate", never a real node.

:func:`refine_stitched` optionally runs a seed-consistency pass over the
stitched candidate set: mutual best matches become trusted seeds, and every
candidate's score is boosted by how many of its source node's neighbours are
seeds whose targets neighbour the candidate target (normalised by degree).
This is the classic divide-and-conquer repair for boundary nodes whose
shard saw only part of their neighbourhood.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.backend.precision import score_dtype
from repro.core.result import AlignmentResult
from repro.obs.tracing import span
from repro.graph.attributed_graph import AttributedGraph
from repro.serve.index import DEFAULT_INDEX_K, SparseTopKIndex
from repro.shard.partition import ShardPair, ShardPlan


@dataclass
class StitchedAlignment:
    """Global alignment assembled from per-shard results.

    Attributes
    ----------
    index:
        The stitched sparse top-``k`` index (padding: index ``-1``, score
        ``-inf`` on rows with fewer candidates than the stored width).
    n_shards:
        Number of shard pairs merged.
    conflicts_resolved:
        Duplicate ``(source, target)`` candidates dropped during conflict
        resolution (a pair scored by more than one overlapping shard).
    multi_shard_sources:
        Source nodes that contributed candidates from more than one shard.
    stage_times:
        Wall-clock decomposition (partition / shard alignment / stitch /
        refine), filled by the executor.
    shard_stats:
        Per-shard job summaries (sizes, status, wall seconds), filled by the
        executor.
    """

    index: SparseTopKIndex
    n_shards: int
    conflicts_resolved: int = 0
    multi_shard_sources: int = 0
    stage_times: Dict[str, float] = field(default_factory=dict)
    shard_stats: List[Dict[str, object]] = field(default_factory=list)

    @property
    def shape(self) -> Tuple[int, int]:
        """Global ``(n_source, n_target)`` shape."""
        return self.index.shape

    @property
    def total_time(self) -> float:
        """Total wall-clock seconds across recorded stages."""
        return float(sum(self.stage_times.values()))

    def match(self, source_nodes) -> np.ndarray:
        """Best target per source node (``-1`` = no candidate)."""
        return self.index.match(source_nodes)

    def top_k(self, source_nodes, k: int) -> np.ndarray:
        """Top-``k`` targets per source node, ``-1``-padded."""
        return self.index.top_k(source_nodes, k)

    def to_result(self, fill: Optional[float] = None) -> AlignmentResult:
        """Densify into an :class:`AlignmentResult` (for metrics/export).

        Non-candidate cells get ``fill`` (default: one less than the lowest
        stitched score, so every stored candidate outranks every hole).
        Rankings are faithful up to the index width ``k``; use the sparse
        :attr:`index` directly when the dense matrix would not fit.
        """
        n_source, n_target = self.index.shape
        stored = np.concatenate(
            [self.index.scores.ravel(), self.index.reverse_scores.ravel()]
        )
        finite = stored[np.isfinite(stored)]
        if fill is None:
            fill = float(finite.min() - 1.0) if finite.size else 0.0
        dense = np.full(
            (n_source, n_target), fill, dtype=self.index.score_dtype
        )
        for rows_width, indices, scores in (
            (n_source, self.index.indices, self.index.scores),
            (n_target, self.index.reverse_indices, self.index.reverse_scores),
        ):
            valid = indices >= 0
            row_ids = np.broadcast_to(
                np.arange(rows_width)[:, None], indices.shape
            )[valid]
            col_ids = indices[valid]
            if indices is self.index.reverse_indices:
                dense[col_ids, row_ids] = scores[valid]
            else:
                dense[row_ids, col_ids] = scores[valid]
        return AlignmentResult(
            alignment_matrix=dense, stage_times=dict(self.stage_times)
        )

    def __repr__(self) -> str:
        n_s, n_t = self.index.shape
        return (
            f"StitchedAlignment({n_s}x{n_t}, shards={self.n_shards}, "
            f"k={self.index.k}, conflicts={self.conflicts_resolved})"
        )


def _assemble_side(
    rows: np.ndarray,
    cols: np.ndarray,
    scores: np.ndarray,
    shards: np.ndarray,
    n_rows: int,
    n_cols: int,
    width: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Fold candidate triples into dense ``(n_rows, width)`` top arrays.

    Candidates are sorted by the global total order *(row asc, score desc,
    col asc, shard asc)*; duplicate ``(row, col)`` pairs keep their best
    occurrence under that order.  Returns ``(indices, scores, n_duplicates)``
    with ``-1``/``-inf`` padding.  The output score array keeps the
    candidates' (float32/float64) dtype.
    """
    indices_out = np.full((n_rows, width), -1, dtype=np.intp)
    scores_out = np.full((n_rows, width), -np.inf, dtype=score_dtype(scores))
    if rows.size == 0:
        return indices_out, scores_out, 0

    order = np.lexsort((shards, cols, -scores, rows))
    rows, cols = rows[order], cols[order]
    scores, shards = scores[order], shards[order]

    # First occurrence per (row, col) in priority order wins; np.unique
    # returns the smallest input position of each key, which under the sort
    # above is exactly the highest-priority candidate.
    key = rows.astype(np.int64) * np.int64(n_cols) + cols.astype(np.int64)
    _, first_pos = np.unique(key, return_index=True)
    n_duplicates = int(key.size - first_pos.size)
    keep = np.sort(first_pos)  # ascending position keeps the global sort
    rows, cols, scores = rows[keep], cols[keep], scores[keep]

    starts = np.searchsorted(rows, np.arange(n_rows))
    rank = np.arange(rows.size) - starts[rows]
    fits = rank < width
    indices_out[rows[fits], rank[fits]] = cols[fits]
    scores_out[rows[fits], rank[fits]] = scores[fits]
    return indices_out, scores_out, n_duplicates


def _shard_index_candidates(
    index: SparseTopKIndex,
    shard_pair: ShardPair,
    width: int,
    reverse: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One shard's (global row, global col, score) triples for one side.

    ``reverse=False`` yields (source row, target col) candidates from the
    index rows; ``reverse=True`` yields (target row, source col) candidates
    from its reverse side.  Raises if the stored index is narrower than the
    stitch needs (the artifact must be re-exported with a larger
    ``index_k``).
    """
    if reverse:
        local, stored = index.reverse_indices, index.reverse_scores
        n_rows_local, n_cols_local = index.shape[1], index.shape[0]
        row_ids, col_ids = shard_pair.target_nodes, shard_pair.source_nodes
    else:
        local, stored = index.indices, index.scores
        n_rows_local, n_cols_local = index.shape
        row_ids, col_ids = shard_pair.source_nodes, shard_pair.target_nodes
    if (n_rows_local, n_cols_local) != (row_ids.size, col_ids.size):
        raise ValueError(
            f"shard {shard_pair.index}: index shape {index.shape} does not "
            f"match its node sets ({row_ids.size}, {col_ids.size})"
        )
    need = min(width, n_cols_local)
    if local.shape[1] < need:
        side = "reverse_k" if reverse else "index_k"
        raise ValueError(
            f"shard {shard_pair.index}: serve index stores only "
            f"{local.shape[1]} candidates per row but the stitch needs "
            f"{need}; re-export the shard artifacts with a larger {side}"
        )
    local = local[:, :need]
    valid = local >= 0  # stitched/padded inputs; dense-built rows are full
    rows_local = np.broadcast_to(
        np.arange(n_rows_local, dtype=np.intp)[:, None], local.shape
    )[valid]
    # Shard node-id arrays are sorted ascending, so the local (score desc,
    # local col asc) order of a stored row is already the global (score
    # desc, global col asc) order within the shard.
    return (
        row_ids[rows_local].astype(np.int64, copy=False),
        col_ids[local[valid]].astype(np.int64, copy=False),
        stored[:, :need][valid],
    )


def _side_candidates(
    plan: ShardPlan,
    shard_indexes: Sequence[SparseTopKIndex],
    width: int,
    reverse: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every shard's (row, col, score, shard) candidates for one side.

    Shards without candidates (an empty side) add nothing, not even their
    score dtype; with no candidates at all the scores are empty float64.
    """
    parts = []
    for shard_pair, index in zip(plan.pairs, shard_indexes):
        rows, cols, scores = _shard_index_candidates(index, shard_pair, width, reverse)
        if rows.size:
            shards = np.full(rows.size, shard_pair.index, dtype=np.int64)
            parts.append((rows, cols, scores, shards))
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.float64), empty
    return tuple(np.concatenate(column) for column in zip(*parts))


def stitch_alignments(
    plan: ShardPlan,
    shard_indexes: Sequence[SparseTopKIndex],
    n_source: int,
    n_target: int,
    k: int = DEFAULT_INDEX_K,
    reverse_k: Optional[int] = None,
) -> StitchedAlignment:
    """Merge per-shard serve indexes into a global sparse alignment.

    ``shard_indexes[i]`` must be the index of ``plan.pairs[i]``'s
    ``(|source_nodes|, |target_nodes|)`` score block, at least ``k`` wide
    (``reverse_k`` on its reverse side) wherever the shard has that many
    columns.  See the module docstring for the conflict resolution and
    padding contract.
    """
    if len(shard_indexes) != len(plan.pairs):
        raise ValueError(
            f"plan has {len(plan.pairs)} shard pairs but "
            f"{len(shard_indexes)} shard indexes were given"
        )
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    reverse_k = k if reverse_k is None else reverse_k
    if reverse_k < 1:
        raise ValueError(f"reverse_k must be >= 1, got {reverse_k}")
    width = min(k, n_target)
    reverse_width = min(reverse_k, n_source)

    with span("stitch.candidates"):
        rows, cols, scores, shards = _side_candidates(
            plan, shard_indexes, width, reverse=False
        )
    with span("stitch.merge"):
        indices, fwd_scores, n_duplicates = _assemble_side(
            rows, cols, scores, shards, n_source, n_target, width
        )
    multi_shard = 0
    if rows.size:
        pair_key = rows.astype(np.int64) * np.int64(len(plan.pairs) + 1) + shards
        sources_with_shards = np.unique(pair_key) // (len(plan.pairs) + 1)
        counts = np.bincount(sources_with_shards.astype(np.int64))
        multi_shard = int((counts > 1).sum())
    # The forward candidates go before the reverse ones are built: holding
    # both raised the stitch's own peak from 83.5 to 99.7 MB at 8000 nodes,
    # 16 shards and k=48.
    del rows, cols, scores, shards

    with span("stitch.candidates"):
        rows, cols, scores, shards = _side_candidates(
            plan, shard_indexes, reverse_width, reverse=True
        )
    with span("stitch.merge"):
        reverse_indices, reverse_scores, _ = _assemble_side(
            rows, cols, scores, shards, n_target, n_source, reverse_width
        )

    index = SparseTopKIndex(
        shape=(n_source, n_target),
        k=k,
        indices=indices,
        scores=fwd_scores,
        reverse_k=reverse_k,
        reverse_indices=reverse_indices,
        reverse_scores=reverse_scores,
    )
    return StitchedAlignment(
        index=index,
        n_shards=len(plan.pairs),
        conflicts_resolved=n_duplicates,
        multi_shard_sources=multi_shard,
    )


def _index_candidates(
    index: SparseTopKIndex,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Valid (source, target, score) triples stored on *either* index side.

    The union matters: a pair can be stored only in the reverse index (its
    target ranks the source highly, but the source's own top-``k`` is
    full of better targets).  Rebuilding from the forward side alone would
    silently drop such pairs.  A pair stored on both sides carries the same
    score — both sides are built from the same shard matrices — so
    duplicates are dropped by key.
    """
    valid = index.indices >= 0
    fwd_sources = np.broadcast_to(
        np.arange(index.shape[0])[:, None], index.indices.shape
    )[valid]
    fwd_targets = index.indices[valid]
    fwd_scores = index.scores[valid]

    rvalid = index.reverse_indices >= 0
    rev_targets = np.broadcast_to(
        np.arange(index.shape[1])[:, None], index.reverse_indices.shape
    )[rvalid]
    rev_sources = index.reverse_indices[rvalid]
    rev_scores = index.reverse_scores[rvalid]

    sources = np.concatenate([fwd_sources, rev_sources])
    targets = np.concatenate([fwd_targets, rev_targets])
    scores = np.concatenate([fwd_scores, rev_scores])
    key = sources.astype(np.int64) * np.int64(index.shape[1]) + targets
    _, first = np.unique(key, return_index=True)
    first = np.sort(first)
    return sources[first], targets[first], scores[first]


def refine_stitched(
    stitched: StitchedAlignment,
    source_graph: AttributedGraph,
    target_graph: AttributedGraph,
    iterations: int = 1,
    alpha: float = 0.2,
) -> StitchedAlignment:
    """Seed-consistency refinement over the stitched candidate set.

    Per iteration: mutual best matches (forward and reverse argmax agree)
    become trusted seeds; every stored candidate ``(i, j)`` earns a bonus of
    ``alpha * |{u in N(i) : u is a seed and seed(u) in N(j)}| /
    (1 + sqrt(deg(i) * deg(j)))`` and both index sides are rebuilt from the
    re-scored candidates.  Only stored candidates are touched, so the cost
    is sparse-matrix products over the two adjacencies — no dense
    ``(n_s, n_t)`` matrix is formed.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    index = stitched.index
    n_source, n_target = index.shape
    adj_source = (source_graph.adjacency != 0).astype(np.float64).tocsr()
    adj_target = (target_graph.adjacency != 0).astype(np.float64).tocsr()
    deg_source = np.asarray(adj_source.sum(axis=1)).ravel()
    deg_target = np.asarray(adj_target.sum(axis=1)).ravel()

    for _ in range(iterations):
        sources, targets, scores = _index_candidates(index)
        if sources.size == 0:
            break
        forward = index.indices[:, 0]
        reverse = index.reverse_indices[:, 0]
        has_match = forward >= 0
        clipped = np.clip(forward, 0, n_target - 1)
        mutual = has_match & (reverse[clipped] == np.arange(n_source))
        seed_sources = np.flatnonzero(mutual)
        if seed_sources.size == 0:
            break
        seed_map = sp.csr_matrix(
            (
                np.ones(seed_sources.size),
                (seed_sources, forward[seed_sources]),
            ),
            shape=(n_source, n_target),
        )
        # consistency[i, j] = #{u in N(i) seeded with t, t in N(j)}
        consistency = (adj_source @ seed_map @ adj_target).tocsr()
        bonus = np.asarray(consistency[sources, targets]).ravel()
        norm = 1.0 + np.sqrt(deg_source[sources] * deg_target[targets])
        # Bonus math runs in float64; the candidate scores keep their
        # stored (possibly float32) dtype through the rebuild.
        new_scores = (scores + alpha * bonus / norm).astype(
            scores.dtype, copy=False
        )

        shard_ids = np.zeros(sources.size, dtype=np.int64)
        indices, fwd_scores, _ = _assemble_side(
            sources,
            targets,
            new_scores,
            shard_ids,
            n_source,
            n_target,
            index.indices.shape[1],
        )
        reverse_indices, reverse_scores, _ = _assemble_side(
            targets,
            sources,
            new_scores,
            shard_ids,
            n_target,
            n_source,
            index.reverse_indices.shape[1],
        )
        index = SparseTopKIndex(
            shape=index.shape,
            k=index.k,
            indices=indices,
            scores=fwd_scores,
            reverse_k=index.reverse_k,
            reverse_indices=reverse_indices,
            reverse_scores=reverse_scores,
        )

    return StitchedAlignment(
        index=index,
        n_shards=stitched.n_shards,
        conflicts_resolved=stitched.conflicts_resolved,
        multi_shard_sources=stitched.multi_shard_sources,
        stage_times=dict(stitched.stage_times),
        shard_stats=list(stitched.shard_stats),
    )


__all__ = ["StitchedAlignment", "stitch_alignments", "refine_stitched"]
