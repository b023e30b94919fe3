"""Shared test helpers.

``tests/`` is intentionally not a package (pytest rootdir-based collection
inserts this directory onto ``sys.path``), so helper code shared between test
modules lives here and is imported absolutely: ``from _helpers import ...``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.backend import shm
from repro.backend.precision import as_score_matrix, score_dtype
from repro.core import training
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builders import from_edge_list
from repro.graph.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.nn.functional import frobenius_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.orbits.vectorized import EdgeStatistics
from repro.serve.index import SparseTopKIndex
from repro.shard.stitch import StitchedAlignment
from repro.similarity import chunked
from repro.similarity.chunked import _apply_hubness_correction
from repro.similarity.lisi import hubness_degrees
from repro.similarity.matching import top_k_indices
from repro.similarity.measures import (
    BLOCK_ROWS,
    cosine_similarity,
    pearson_similarity,
)

#: Block budgets of the similarity engine under test, as functions of the
#: number of targets: one window per block, two windows per block, and the
#: whole matrix as one block.
BLOCK_BUDGETS = {
    "one-window": lambda n_target: 1,
    "two-windows": lambda n_target: 2 * BLOCK_ROWS * max(n_target, 1),
    "one-block": lambda n_target: 1 << 62,
}


def set_block_budget(monkeypatch, budget: str, n_target: int) -> None:
    """Patch the engine's cell budget to the ``BLOCK_BUDGETS[budget]`` case."""
    monkeypatch.setattr(
        chunked, "_BLOCK_CELL_BUDGET", BLOCK_BUDGETS[budget](n_target)
    )


def dense_score_matrix(
    source, target, *, measure="pearson", correction=None, n_neighbors=10,
    policy=None,
):
    """The dense reference every block-built score matrix must equal.

    The whole-matrix windowed GEMM, then :func:`hubness_degrees` over the
    full matrix, then the shared correction — the route ``lisi_matrix`` and
    ``csls_matrix`` took before the block engine built every matrix.
    """
    measure_fn = pearson_similarity if measure == "pearson" else cosine_similarity
    similarity = measure_fn(source, target, policy=policy)
    if correction is None:
        return similarity
    source_hubness, target_hubness = hubness_degrees(similarity, n_neighbors)
    return _apply_hubness_correction(
        similarity, source_hubness, target_hubness, out=similarity
    )


def openblas_thread_counts() -> List[int]:
    """The thread count of every OpenBLAS this process has loaded."""
    return [get() for get in shm._openblas_functions("get_num_threads")]


def set_openblas_threads(count: int) -> None:
    """Set every loaded OpenBLAS to ``count`` threads (the
    ``restore_openblas_threads`` fixture puts the old counts back)."""
    for set_threads in shm._openblas_functions("set_num_threads"):
        set_threads(count)


def numerical_gradient(func, value, epsilon=1e-6):
    """Central-difference gradient of a scalar-valued function of an array."""
    value = np.asarray(value, dtype=np.float64)
    gradient = np.zeros_like(value)
    flat = value.ravel()
    grad_flat = gradient.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = func(value)
        flat[index] = original - epsilon
        minus = func(value)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return gradient


def lexsorted_edges(graph) -> Iterator[Tuple[int, int]]:
    """Oracle for ``AttributedGraph.edge_list``: the per-edge generator.

    Walks the lexsorted upper triangle in Python, one edge at a time;
    ``edge_list`` builds the same list from the CSR arrays at once.
    """
    coo = sp.triu(graph.adjacency, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    for idx in order:
        yield int(coo.row[idx]), int(coo.col[idx])


def orbit_stress_graphs() -> Dict[str, AttributedGraph]:
    """Orbit-counting inputs beyond sparse unit-weight graphs, by name.

    ``weighted``: a clustered graph whose adjacency carries weights in
    [0.5, 3] (counts depend on the pattern only); ``dense_er``: an ER graph
    with mean degree above n/2; ``k12``: the complete graph on 12 nodes.
    """
    base = powerlaw_cluster_graph(60, 4, 0.6, random_state=0)
    upper = sp.triu(base.adjacency, k=1).tocoo()
    weights = np.random.default_rng(0).uniform(0.5, 3.0, upper.nnz)
    weighted = sp.coo_matrix((weights, (upper.row, upper.col)), shape=upper.shape)
    return {
        "weighted": AttributedGraph(weighted + weighted.T, base.attributes),
        "dense_er": erdos_renyi_graph(40, 30.0, random_state=2),
        "k12": from_edge_list(
            [(u, v) for u in range(12) for v in range(u + 1, 12)], n_nodes=12
        ),
    }


# The loop oracle for per-edge class statistics: the same statistics the
# vectorized backend derives from sparse products, computed by a flat scan
# over the CSR arrays.
def _edge_statistics_kernel(
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    eu: np.ndarray,
    ev: np.ndarray,
    n_nodes: int,
) -> np.ndarray:
    """Per-edge class statistics, one flat pass per edge.

    Returns an ``(m, 12)`` int64 array with columns
    ``t, na, nb, e_aa, e_bb, e_cc, e_ab, e_ac, e_bc, p_a, p_b, p_c``
    matching :class:`EdgeStatistics` field order.  Written njit-compatible:
    arrays only, no Python containers.
    """
    m = eu.shape[0]
    stats = np.zeros((m, 12), dtype=np.int64)
    # stamp[w] == i marks w as surrounding edge i; cls gives its class.
    stamp = np.full(n_nodes, -1, dtype=np.int64)
    cls = np.zeros(n_nodes, dtype=np.int8)
    for i in range(m):
        u = eu[i]
        v = ev[i]
        for p in range(indptr[u], indptr[u + 1]):
            w = indices[p]
            if w != v:
                stamp[w] = i
                cls[w] = 0  # class a until v's list proves otherwise
        for p in range(indptr[v], indptr[v + 1]):
            w = indices[p]
            if w == u:
                continue
            if stamp[w] == i:
                cls[w] = 2  # class c: adjacent to both endpoints
            else:
                stamp[w] = i
                cls[w] = 1  # class b
        t = np.int64(0)
        na = np.int64(0)
        nb = np.int64(0)
        e_aa = np.int64(0)
        e_bb = np.int64(0)
        e_cc = np.int64(0)
        e_ab = np.int64(0)
        e_ac = np.int64(0)
        e_bc = np.int64(0)
        p_a = np.int64(0)
        p_b = np.int64(0)
        p_c = np.int64(0)
        # Walk each surrounding node once: u's list covers classes a and c,
        # v's list covers class b (its class-c entries are duplicates).
        for p in range(indptr[u], indptr[u + 1]):
            w = indices[p]
            if w == v:
                continue
            ca = np.int64(0)
            cb = np.int64(0)
            cc = np.int64(0)
            links = np.int64(0)
            for q in range(indptr[w], indptr[w + 1]):
                x = indices[q]
                if x == u or x == v:
                    links += 1
                elif stamp[x] == i:
                    cx = cls[x]
                    if cx == 0:
                        ca += 1
                    elif cx == 1:
                        cb += 1
                    else:
                        cc += 1
            private = degrees[w] - ca - cb - cc - links
            if cls[w] == 0:
                na += 1
                e_aa += ca
                e_ab += cb
                e_ac += cc
                p_a += private
            else:  # class c
                t += 1
                e_cc += cc
                p_c += private
        for p in range(indptr[v], indptr[v + 1]):
            w = indices[p]
            if w == u or cls[w] == 2:
                continue
            ca = np.int64(0)
            cb = np.int64(0)
            cc = np.int64(0)
            links = np.int64(0)
            for q in range(indptr[w], indptr[w + 1]):
                x = indices[q]
                if x == u or x == v:
                    links += 1
                elif stamp[x] == i:
                    cx = cls[x]
                    if cx == 0:
                        ca += 1
                    elif cx == 1:
                        cb += 1
                    else:
                        cc += 1
            private = degrees[w] - ca - cb - cc - links
            nb += 1
            e_bb += cb
            e_bc += cc
            p_b += private
        stats[i, 0] = t
        stats[i, 1] = na
        stats[i, 2] = nb
        stats[i, 3] = e_aa // 2  # within-class walks count both ends
        stats[i, 4] = e_bb // 2
        stats[i, 5] = e_cc // 2
        stats[i, 6] = e_ab
        stats[i, 7] = e_ac
        stats[i, 8] = e_bc
        stats[i, 9] = p_a
        stats[i, 10] = p_b
        stats[i, 11] = p_c
    return stats


def loop_edge_statistics(graph) -> EdgeStatistics:
    """Per-edge class statistics of ``graph`` via the loop oracle."""
    edges = graph.edge_list()
    if not edges:
        zero = np.zeros(0, dtype=np.int64)
        return EdgeStatistics(edges, *(zero.copy() for _ in range(12)))
    adjacency = graph.adjacency
    edge_array = np.asarray(edges, dtype=np.int64)
    stats = _edge_statistics_kernel(
        adjacency.indptr.astype(np.int64),
        adjacency.indices.astype(np.int64),
        graph.degrees.astype(np.int64),
        np.ascontiguousarray(edge_array[:, 0]),
        np.ascontiguousarray(edge_array[:, 1]),
        graph.n_nodes,
    )
    return EdgeStatistics(edges, *(stats[:, column] for column in range(12)))


def dense_frobenius_loss(reconstruction, target):
    """Dense oracle for ``repro.nn.functional.frobenius_loss``.

    ``||target - reconstruction||_F`` built from elementwise autograd nodes
    on the n x n reconstruction ``H @ H.T``; ``target`` may be dense or
    sparse.  The matrix-free op sums in another order, so tests compare it
    with this oracle at a tolerance, not bit for bit.
    """
    if sp.issparse(target):
        target = target.toarray()
    target = np.asarray(target, dtype=np.float64)
    if target.shape != reconstruction.shape:
        raise ValueError(
            f"target shape {target.shape} != reconstruction shape {reconstruction.shape}"
        )
    diff = reconstruction - Tensor(target)
    squared = (diff * diff).sum()
    return (squared + 1e-12) ** 0.5


def per_call_frobenius_loss(embedding, target, blocks=1):
    """Per-call oracle for ``repro.nn.functional.frobenius_loss``.

    The matrix-free loss as it ran before training operands existed: each
    call squares ``target`` elementwise for the block norms and multiplies
    by ``target.T`` in the vjp.  On the exactly symmetric views the library
    builds, the operand form must match it bit for bit.
    """
    n_nodes = embedding.shape[0]
    target = target.tocsr()
    h = embedding.data
    stacked = h.reshape(blocks, n_nodes // blocks, h.shape[1])
    gram = stacked.transpose(0, 2, 1) @ stacked
    propagated = target.dot(h)
    squares = target.multiply(target)
    bounds = squares.indptr[np.arange(blocks + 1) * (n_nodes // blocks)]
    squared = (
        np.sum(gram * gram, axis=(1, 2))
        - 2.0 * np.sum((h * propagated).reshape(blocks, -1), axis=1)
        + np.array([squares.data[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])])
    )
    values = np.sqrt(np.maximum(squared, 0.0) + 1e-12)
    out = Tensor(values.sum(), requires_grad=True, _parents=(embedding,))

    def backward(gradient):
        symmetric = (propagated + target.T.dot(h)).reshape(stacked.shape)
        block_grads = gradient * (2.0 * (stacked @ gram) - symmetric)
        embedding._accumulate((block_grads / values[:, None, None]).reshape(h.shape))

    out._backward = backward
    return out


def comprehension_mutual_nearest_neighbors(score_matrix):
    """Oracle for ``repro.similarity.matching.mutual_nearest_neighbors``.

    The per-row selection the vectorised kernel replaced; both must return
    the same pairs, in the same order, bit for bit.
    """
    scores = np.asarray(score_matrix, dtype=np.float64)
    if scores.ndim != 2 or scores.size == 0:
        return []
    best_target = scores.argmax(axis=1)
    best_source = scores.argmax(axis=0)
    return [
        (int(i), int(j)) for i, j in enumerate(best_target) if best_source[j] == i
    ]


def summed_loss_training_losses(
    encoder, config, source_views, target_views, source_attributes, target_attributes
) -> List[float]:
    """Bit-for-bit oracle for ``MultiOrbitTrainer.train`` on one BLAS thread.

    The autograd tape's training: each graph's stack goes through
    ``SharedGCNEncoder.forward`` and ``frobenius_loss``, both graphs' losses
    are summed into one node, and one backward pass per epoch runs on the
    calling thread.  The trainer's explicit pass replays the tape's numpy
    operations, and each weight gets one gradient term per graph in both,
    so losses and weights match to the bit.
    """
    optimizer = Adam(
        encoder.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
    )
    view_ids = list(source_views)
    source_stack = training._stack(source_views, view_ids, source_attributes)
    target_stack = training._stack(target_views, view_ids, target_attributes)
    losses = []
    for _ in range(config.epochs):
        optimizer.zero_grad()
        source_loss = frobenius_loss(encoder(source_stack), source_stack)
        target_loss = frobenius_loss(encoder(target_stack), target_stack)
        total = source_loss + target_loss
        total.backward()
        optimizer.step()
        losses.append(total.item())
    return losses


def per_view_training_losses(
    encoder, config, source_views, target_views, source_attributes, target_attributes
) -> List[float]:
    """Oracle for ``MultiOrbitTrainer.train``: one encoder pass per view.

    Algorithm 1 as written: each epoch encodes every view of both graphs
    separately and sums the per-view dense losses.  The stacked trainer
    encodes all views of a graph at once and sums in another order, so tests
    compare the two at a tolerance.
    """
    optimizer = Adam(
        encoder.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
    )
    losses = []
    for _ in range(config.epochs):
        optimizer.zero_grad()
        total = None
        for view_id in source_views:
            view_loss = None
            for views, attributes in (
                (source_views, source_attributes),
                (target_views, target_attributes),
            ):
                embedding = encoder(views[view_id], attributes)
                loss = dense_frobenius_loss(embedding @ embedding.T, views[view_id])
                view_loss = loss if view_loss is None else view_loss + loss
            total = view_loss if total is None else total + view_loss
        total.backward()
        optimizer.step()
        losses.append(total.item())
    return losses


def _assemble_side(rows, cols, scores, shards, n_rows, n_cols, width):
    """Fold candidate triples into ``(n_rows, width)`` top arrays.

    The dense-matrix stitch's fold, kept apart from
    ``repro.shard.stitch._assemble_side`` so the oracle shares no code with
    the stitch under test: sort by *(row asc, score desc, col asc, shard
    asc)*, keep the first occurrence of each ``(row, col)``, and pad with
    ``-1``/``-inf``.  Returns ``(indices, scores, n_duplicates)``.
    """
    indices_out = np.full((n_rows, width), -1, dtype=np.intp)
    scores_out = np.full((n_rows, width), -np.inf, dtype=score_dtype(scores))
    if rows.size == 0:
        return indices_out, scores_out, 0
    order = np.lexsort((shards, cols, -scores, rows))
    rows, cols = rows[order], cols[order]
    scores, shards = scores[order], shards[order]
    key = rows.astype(np.int64) * np.int64(n_cols) + cols.astype(np.int64)
    _, first_pos = np.unique(key, return_index=True)
    n_duplicates = int(key.size - first_pos.size)
    keep = np.sort(first_pos)
    rows, cols, scores = rows[keep], cols[keep], scores[keep]
    starts = np.searchsorted(rows, np.arange(n_rows))
    rank = np.arange(rows.size) - starts[rows]
    fits = rank < width
    indices_out[rows[fits], rank[fits]] = cols[fits]
    scores_out[rows[fits], rank[fits]] = scores[fits]
    return indices_out, scores_out, n_duplicates


def _candidates_from_shards(plan, matrices, per_row_k, reverse):
    """Each shard matrix's local top candidates, mapped to global ids.

    ``reverse=False`` yields (source row, target col) candidates from matrix
    rows; ``reverse=True`` yields (target row, source col) candidates from
    matrix columns.  Shards with an empty matrix add nothing.
    """
    all_rows, all_cols, all_scores, all_shards = [], [], [], []
    for shard_pair, matrix in zip(plan.pairs, matrices):
        matrix = as_score_matrix(matrix)
        if reverse:
            matrix = matrix.T
            row_ids, col_ids = shard_pair.target_nodes, shard_pair.source_nodes
        else:
            row_ids, col_ids = shard_pair.source_nodes, shard_pair.target_nodes
        if matrix.shape != (row_ids.size, col_ids.size):
            raise ValueError(
                f"shard {shard_pair.index}: matrix shape {matrix.shape} does "
                f"not match its node sets ({row_ids.size}, {col_ids.size})"
            )
        if matrix.size == 0:
            continue
        local_top = top_k_indices(matrix, min(per_row_k, matrix.shape[1]))
        local_scores = np.take_along_axis(matrix, local_top, axis=1)
        n_rows_local, got = local_top.shape
        all_rows.append(np.repeat(row_ids, got))
        all_cols.append(col_ids[local_top].ravel())
        all_scores.append(local_scores.ravel())
        all_shards.append(
            np.full(n_rows_local * got, shard_pair.index, dtype=np.int64)
        )
    if not all_rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.float64), empty
    return (
        np.concatenate(all_rows),
        np.concatenate(all_cols),
        np.concatenate(all_scores),
        np.concatenate(all_shards),
    )


def dense_matrix_stitch(plan, matrices, n_source, n_target, k, reverse_k=None):
    """Oracle for ``repro.shard.stitch.stitch_alignments``.

    The stitch as it ran over each shard's dense score matrix, before shards
    were stitched from their serve indexes: per shard, the top ``k`` of every
    row (and ``reverse_k`` of every column) by ``top_k_indices``, folded
    by :func:`_assemble_side`.  Returns a ``StitchedAlignment``.
    """
    reverse_k = k if reverse_k is None else reverse_k
    width, reverse_width = min(k, n_target), min(reverse_k, n_source)
    rows, cols, scores, shards = _candidates_from_shards(
        plan, matrices, width, reverse=False
    )
    indices, fwd_scores, n_duplicates = _assemble_side(
        rows, cols, scores, shards, n_source, n_target, width
    )
    multi_shard = 0
    if rows.size:
        pair_key = rows.astype(np.int64) * np.int64(len(plan.pairs) + 1) + shards
        sources_with_shards = np.unique(pair_key) // (len(plan.pairs) + 1)
        counts = np.bincount(sources_with_shards.astype(np.int64))
        multi_shard = int((counts > 1).sum())
    r_rows, r_cols, r_scores, r_shards = _candidates_from_shards(
        plan, matrices, reverse_width, reverse=True
    )
    reverse_indices, reverse_scores, _ = _assemble_side(
        r_rows, r_cols, r_scores, r_shards, n_target, n_source, reverse_width
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
