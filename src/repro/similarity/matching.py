"""Matching rules that turn an alignment-score matrix into node pairs.

Matching is dtype-preserving: a float32 score matrix (the
:mod:`repro.backend` float32 policy) is selected over directly, without a
densifying float64 copy; every other dtype is promoted to float64 exactly as
before (see :func:`repro.backend.precision.as_score_matrix`).  Selection
orders compare stored values, so results under either dtype follow the same
total orders.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.backend.precision import as_score_matrix


def mutual_nearest_neighbors(score_matrix: np.ndarray) -> List[Tuple[int, int]]:
    """Pairs ``(i, j)`` that are each other's argmax (the paper's trusted pairs).

    A source node ``i`` and target node ``j`` form a trusted pair when ``j`` is
    the best-scoring target for ``i`` *and* ``i`` is the best-scoring source
    for ``j`` (Eq. 12).
    """
    scores = as_score_matrix(score_matrix)
    if scores.ndim != 2 or scores.size == 0:
        return []
    best_target = scores.argmax(axis=1)
    best_source = scores.argmax(axis=0)
    rows = np.flatnonzero(best_source[best_target] == np.arange(len(best_target)))
    return list(zip(rows.tolist(), best_target[rows].tolist()))


def _best_unused(row: np.ndarray, used_target: np.ndarray) -> Tuple[float, int]:
    """Best (score, column) of ``row`` restricted to unused columns.

    Ties resolve to the lowest column index.  Requires at least one unused
    column.
    """
    unused = np.flatnonzero(~used_target)
    local = int(np.argmax(row[unused]))
    j = int(unused[local])
    return float(row[j]), j


def greedy_match(score_matrix: np.ndarray) -> List[Tuple[int, int]]:
    """Greedy one-to-one matching by descending score.

    Repeatedly picks the highest remaining score whose row and column are both
    unused (ties broken by lowest row, then lowest column).  Useful for
    producing a hard alignment from the final score matrix.

    The selection is heap-based with lazy per-row re-evaluation: each row
    contributes its best currently-unused column to a max-heap, and a row
    whose candidate column got taken is re-scanned on pop.  This replaces the
    former full ``argsort(scores, axis=None)`` — ``O(n_s·n_t·log(n_s·n_t))``
    time plus an ``(n_s·n_t)`` index array — with ``O(n_s + n_t)`` extra
    memory.
    """
    scores = as_score_matrix(score_matrix)
    if scores.ndim != 2 or scores.size == 0:
        return []
    n_source, n_target = scores.shape
    # (negated score, row, col): heapq pops the highest score first, ties by
    # lowest row then lowest column.
    maxima = scores.max(axis=1)
    argmaxima = scores.argmax(axis=1)
    heap = [
        (-float(maxima[i]), i, int(argmaxima[i])) for i in range(n_source)
    ]
    heapq.heapify(heap)
    used_source = np.zeros(n_source, dtype=bool)
    used_target = np.zeros(n_target, dtype=bool)
    pairs: List[Tuple[int, int]] = []
    limit = min(n_source, n_target)
    while heap and len(pairs) < limit:
        _, i, j = heapq.heappop(heap)
        if used_source[i]:
            continue
        if used_target[j]:
            # Stale candidate: re-evaluate this row over unused columns.
            if used_target.all():
                break
            score, j = _best_unused(scores[i], used_target)
            heapq.heappush(heap, (-score, i, j))
            continue
        pairs.append((i, j))
        used_source[i] = True
        used_target[j] = True
    return pairs


def top_k_indices(score_matrix: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best targets per source row, best first.

    Returns an ``(n_source, k)`` integer array.  ``k`` is clipped to the
    number of targets.

    Rows are ordered by the total order *(score descending, column index
    ascending)* — ties always resolve to the lowest column.  A total order
    makes the result prefix-consistent: ``top_k_indices(scores, j)`` equals
    ``top_k_indices(scores, k)[:, :j]`` for every ``j <= k``, which is what
    lets :class:`repro.serve.index.SparseTopKIndex` answer any ``k' <= k``
    query from a stored top-``k`` prefix bit-identically to the dense path.
    """
    scores = as_score_matrix(score_matrix)
    if scores.ndim != 2:
        raise ValueError("score_matrix must be 2-D")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_source, n_target = scores.shape
    k = min(k, n_target)
    if k == 0:
        return np.empty((n_source, 0), dtype=np.intp)
    if k == n_target or n_source == 0:
        # A stable sort of the negated scores yields exactly the
        # (score desc, column asc) total order.
        order = np.argsort(-scores, axis=1, kind="stable")
        return order[:, :k].astype(np.intp, copy=False)
    # Fast path: argpartition to k candidates (O(n_t + k log k) per row
    # instead of a full O(n_t log n_t) sort), then order the candidates by
    # (score desc, column asc).  lexsort keys are least-significant first.
    part = np.argpartition(-scores, k - 1, axis=1)[:, :k].astype(np.intp)
    rows = np.arange(n_source)[:, None]
    part_scores = scores[rows, part]
    order = np.lexsort((part, -part_scores), axis=1)
    result = np.take_along_axis(part, order, axis=1)
    # The partition picks an *arbitrary* candidate set when values tie
    # across its boundary, which can drop a lower-column tied entry; those
    # rows (and only those) need the full total-order sort.  A boundary tie
    # exists iff the row has more entries equal to the k-th selected value
    # than were selected.
    kth_value = part_scores.min(axis=1)
    selected_at_kth = (part_scores == kth_value[:, None]).sum(axis=1)
    total_at_kth = (scores == kth_value[:, None]).sum(axis=1)
    tie_rows = total_at_kth > selected_at_kth
    if np.any(tie_rows):
        result[tie_rows] = np.argsort(
            -scores[tie_rows], axis=1, kind="stable"
        )[:, :k]
    return result


def alignment_accuracy(
    score_matrix: np.ndarray, ground_truth: np.ndarray
) -> float:
    """Fraction of source nodes whose argmax equals their ground-truth target.

    Convenience wrapper used in quick tests; the full metrics live in
    :mod:`repro.eval.metrics`.
    """
    scores = as_score_matrix(score_matrix)
    ground_truth = np.asarray(ground_truth, dtype=np.int64)
    if scores.shape[0] != ground_truth.shape[0]:
        raise ValueError("ground truth length must equal the number of source nodes")
    predictions = scores.argmax(axis=1)
    return float((predictions == ground_truth).mean())


__all__ = [
    "mutual_nearest_neighbors",
    "greedy_match",
    "top_k_indices",
    "alignment_accuracy",
]
