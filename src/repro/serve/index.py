"""Sparse top-``k`` index over an alignment-score matrix.

A trained ``(n_s, n_t)`` score matrix answers three query families —
``match`` (argmax per source row), ``top_k`` (best targets per source row)
and their target→source reverses — yet holding the full float64 matrix in a
serving process costs ``O(n_s·n_t)`` memory.  :class:`SparseTopKIndex` keeps
only the ``k`` best ``(score, index)`` entries per row *and* per column:
``O((n_s + n_t)·k)`` memory, typically well over 10× smaller.

**Bit-identity guarantee.**  Every stored row is the prefix of the total
order *(score descending, index ascending)* — exactly the order
:func:`repro.similarity.matching.top_k_indices` produces.  Because the order
is total (index breaks every tie), the top-``k`` prefix is independent of
how the matrix was scanned, so

* ``index.top_k(rows, k')`` equals ``top_k_indices(dense, k')[rows]`` for
  every ``k' <= index.k``, including tie-heavy matrices, and
* ``index.match(rows)`` equals ``dense[rows].argmax(axis=1)`` (numpy's
  argmax also resolves ties to the lowest index).

:func:`build_index` and :func:`build_index_from_embeddings` fold the matrix
in the row blocks of the similarity engine (:mod:`repro.similarity.chunked`),
so the latter never materialises more of the dense matrix than one block.

Because a stored row is the dense row's exact top-``k`` prefix, an index is
also a complete input for merging: :func:`repro.shard.stitch.stitch_alignments`
builds a sharded alignment's global index from the shard jobs' own indexes,
in memory, without their dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.backend.precision import PolicyLike, as_score_matrix
from repro.similarity.chunked import ChunkedScorer, _row_blocks
from repro.similarity.matching import top_k_indices

#: Default number of stored candidates per row/column.
DEFAULT_INDEX_K = 10


def _topk_block(block: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` (indices, scores) of ``block`` in total order."""
    indices = top_k_indices(block, k) if k > 0 and block.shape[1] else (
        np.empty((block.shape[0], 0), dtype=np.intp)
    )
    scores = np.take_along_axis(block, indices, axis=1)
    return indices, scores


def _merge_columns(
    top_scores: Optional[np.ndarray],
    top_rows: Optional[np.ndarray],
    block: np.ndarray,
    row_start: int,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold a row chunk into the running per-column top-``k`` buffers.

    Both buffers are kept sorted by *(score desc, row asc)* per column.  The
    incoming block's rows are all larger than any row already in the buffer
    and arrive in ascending order, so a stable sort over the stacked
    candidates preserves exactly that total order — making the running
    selection equal to a one-shot top-``k`` over the full column.
    """
    n_rows, n_cols = block.shape
    block_rows = np.broadcast_to(
        row_start + np.arange(n_rows, dtype=np.intp)[:, None], (n_rows, n_cols)
    )
    if top_scores is None:
        cand_scores, cand_rows = block, block_rows
    else:
        cand_scores = np.vstack([top_scores, block])
        cand_rows = np.vstack([top_rows, block_rows])
    order = np.argsort(-cand_scores, axis=0, kind="stable")[:k]
    return (
        np.take_along_axis(cand_scores, order, axis=0),
        np.take_along_axis(cand_rows, order, axis=0),
    )


@dataclass(frozen=True)
class SparseTopKIndex:
    """Immutable sparse top-``k`` view of an ``(n_s, n_t)`` score matrix.

    Attributes
    ----------
    shape:
        The dense matrix shape ``(n_s, n_t)``.
    k, reverse_k:
        Requested candidates per source row / target column; the stored
        widths are clipped to the matrix dimensions.
    indices, scores:
        ``(n_s, min(k, n_t))`` per-row best target indices and their scores,
        best first, ties by lowest index.
    reverse_indices, reverse_scores:
        ``(n_t, min(reverse_k, n_s))`` per-column best source indices and
        scores under the same total order.
    """

    shape: Tuple[int, int]
    k: int
    indices: np.ndarray
    scores: np.ndarray
    reverse_k: int
    reverse_indices: np.ndarray
    reverse_scores: np.ndarray

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _check_nodes(self, nodes, axis: int) -> np.ndarray:
        # The wire rule of repro.api.models.parse_query_request: an empty
        # sequence is valid, any other non-integer dtype (floats, bools) is
        # rejected rather than truncated.
        nodes = np.atleast_1d(np.asarray(nodes))
        if nodes.ndim != 1:
            raise ValueError("node ids must be a scalar or 1-D sequence")
        if nodes.size == 0:
            return np.empty(0, dtype=np.intp)
        if nodes.dtype.kind not in "iu":
            raise ValueError(f"node ids must be integers, got dtype {nodes.dtype}")
        nodes = nodes.astype(np.intp, copy=False)
        if nodes.min() < 0 or nodes.max() >= self.shape[axis]:
            raise IndexError(
                f"node ids must be in [0, {self.shape[axis]}), "
                f"got range [{nodes.min()}, {nodes.max()}]"
            )
        return nodes

    def match(self, source_nodes) -> np.ndarray:
        """Best target per source node — equals ``dense.argmax(axis=1)``."""
        nodes = self._check_nodes(source_nodes, axis=0)
        if self.indices.shape[1] == 0:
            raise ValueError("cannot match against an empty target side")
        return self.indices[nodes, 0]

    def top_k(self, source_nodes, k: int) -> np.ndarray:
        """Top-``k`` targets per source node, best first (``k <= self.k``)."""
        nodes = self._check_nodes(source_nodes, axis=0)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        effective = min(k, self.shape[1])
        if effective > self.indices.shape[1]:
            raise ValueError(
                f"k={k} exceeds the indexed width {self.indices.shape[1]}; "
                "rebuild the index with a larger k"
            )
        return self.indices[nodes, :effective]

    def top_k_scores(self, source_nodes, k: int) -> np.ndarray:
        """Scores aligned with :meth:`top_k`."""
        nodes = self._check_nodes(source_nodes, axis=0)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        effective = min(k, self.shape[1])
        if effective > self.scores.shape[1]:
            raise ValueError(
                f"k={k} exceeds the indexed width {self.scores.shape[1]}; "
                "rebuild the index with a larger k"
            )
        return self.scores[nodes, :effective]

    def reverse_match(self, target_nodes) -> np.ndarray:
        """Best source per target node — equals ``dense.argmax(axis=0)``."""
        nodes = self._check_nodes(target_nodes, axis=1)
        if self.reverse_indices.shape[1] == 0:
            raise ValueError("cannot reverse-match against an empty source side")
        return self.reverse_indices[nodes, 0]

    def reverse_top_k(self, target_nodes, k: int) -> np.ndarray:
        """Top-``k`` sources per target node (``k <= self.reverse_k``)."""
        nodes = self._check_nodes(target_nodes, axis=1)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        effective = min(k, self.shape[0])
        if effective > self.reverse_indices.shape[1]:
            raise ValueError(
                f"k={k} exceeds the indexed reverse width "
                f"{self.reverse_indices.shape[1]}; rebuild with a larger reverse_k"
            )
        return self.reverse_indices[nodes, :effective]

    # ------------------------------------------------------------------
    # introspection / serialization
    # ------------------------------------------------------------------
    @property
    def score_dtype(self) -> np.dtype:
        """Dtype of the stored scores (the precision policy they carry)."""
        return self.scores.dtype

    @property
    def nbytes(self) -> int:
        """Resident bytes of the four index arrays."""
        return int(
            self.indices.nbytes
            + self.scores.nbytes
            + self.reverse_indices.nbytes
            + self.reverse_scores.nbytes
        )

    @property
    def dense_nbytes(self) -> int:
        """Bytes the equivalent dense matrix (same score dtype) would occupy."""
        return int(self.shape[0]) * int(self.shape[1]) * self.score_dtype.itemsize

    @property
    def compression_ratio(self) -> float:
        """``dense_nbytes / nbytes`` (``inf`` for an empty index)."""
        return self.dense_nbytes / self.nbytes if self.nbytes else float("inf")

    def array_payload(self) -> Dict[str, np.ndarray]:
        """Flat array dict consumed by :mod:`repro.serve.artifacts`."""
        return {
            "index_indices": self.indices,
            "index_scores": self.scores,
            "index_reverse_indices": self.reverse_indices,
            "index_reverse_scores": self.reverse_scores,
        }

    def meta_payload(self) -> Dict[str, object]:
        """JSON-serialisable index parameters for the artifact manifest."""
        return {
            "shape": [int(self.shape[0]), int(self.shape[1])],
            "k": int(self.k),
            "reverse_k": int(self.reverse_k),
            "score_dtype": str(self.score_dtype),
        }

    @classmethod
    def from_payload(
        cls, arrays: Dict[str, np.ndarray], meta: Dict[str, object]
    ) -> "SparseTopKIndex":
        """Rebuild an index from :meth:`array_payload` + :meth:`meta_payload`."""
        missing = [
            name
            for name in (
                "index_indices",
                "index_scores",
                "index_reverse_indices",
                "index_reverse_scores",
            )
            if name not in arrays
        ]
        if missing:
            raise ValueError(f"index payload is missing arrays: {missing}")
        shape = tuple(int(x) for x in meta["shape"])
        # Scores keep their stored dtype (float32 artifacts stay float32);
        # anything non-float is promoted to float64 as before.
        return cls(
            shape=shape,  # type: ignore[arg-type]
            k=int(meta["k"]),
            indices=np.asarray(arrays["index_indices"], dtype=np.intp),
            scores=as_score_matrix(arrays["index_scores"]),
            reverse_k=int(meta["reverse_k"]),
            reverse_indices=np.asarray(
                arrays["index_reverse_indices"], dtype=np.intp
            ),
            reverse_scores=as_score_matrix(arrays["index_reverse_scores"]),
        )


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def _build_from_blocks(
    blocks: Iterable[Tuple[int, np.ndarray]],
    n_source: int,
    n_target: int,
    k: int,
    reverse_k: int,
    score_dtype=np.float64,
) -> SparseTopKIndex:
    """Core builder: fold ``(row_start, block)`` chunks into both indexes.

    ``score_dtype`` is the dtype of the stored score arrays — the incoming
    blocks' compute dtype, so a float32 policy yields a ~2x smaller index.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if reverse_k < 1:
        raise ValueError(f"reverse_k must be >= 1, got {reverse_k}")
    score_dtype = np.dtype(score_dtype)
    k_eff = min(k, n_target)
    rk_eff = min(reverse_k, n_source)
    indices = np.empty((n_source, k_eff), dtype=np.intp)
    scores = np.empty((n_source, k_eff), dtype=score_dtype)
    col_scores: Optional[np.ndarray] = None
    col_rows: Optional[np.ndarray] = None
    for start, block in blocks:
        stop = start + block.shape[0]
        block_indices, block_scores = _topk_block(block, k_eff)
        indices[start:stop] = block_indices
        scores[start:stop] = block_scores
        if rk_eff:
            col_scores, col_rows = _merge_columns(
                col_scores, col_rows, block, start, rk_eff
            )
    if col_scores is None:
        col_scores = np.empty((rk_eff, n_target), dtype=score_dtype)
        col_rows = np.empty((rk_eff, n_target), dtype=np.intp)
    return SparseTopKIndex(
        shape=(n_source, n_target),
        k=k,
        indices=indices,
        scores=scores,
        reverse_k=reverse_k,
        reverse_indices=np.ascontiguousarray(col_rows.T, dtype=np.intp),
        reverse_scores=np.ascontiguousarray(col_scores.T, dtype=score_dtype),
    )


def build_index(
    score_matrix: np.ndarray,
    k: int = DEFAULT_INDEX_K,
    reverse_k: Optional[int] = None,
) -> SparseTopKIndex:
    """Index a dense score matrix, folding it in row blocks.

    The result is independent of the block height (the selection order is
    total).  The score matrix's float32/float64 dtype is preserved in the
    stored index.
    """
    scores = as_score_matrix(score_matrix)
    if scores.ndim != 2:
        raise ValueError(f"score_matrix must be 2-D, got shape {scores.shape}")
    n_source, n_target = scores.shape
    return _build_from_blocks(
        (
            (start, scores[start:stop])
            for start, stop in _row_blocks(n_source, n_target)
        ),
        n_source,
        n_target,
        k,
        reverse_k if reverse_k is not None else k,
        score_dtype=scores.dtype,
    )


def build_index_from_embeddings(
    source_embeddings: np.ndarray,
    target_embeddings: np.ndarray,
    k: int = DEFAULT_INDEX_K,
    reverse_k: Optional[int] = None,
    *,
    measure: str = "pearson",
    correction: Optional[str] = None,
    n_neighbors: int = 10,
    policy: PolicyLike = None,
) -> SparseTopKIndex:
    """Index the (corrected) similarity of two embedding matrices.

    Streams :class:`repro.similarity.chunked.ChunkedScorer` blocks, so the
    dense ``(n_s, n_t)`` matrix is never materialised; each block is
    bit-identical to the corresponding dense rows of the same policy.
    ``policy`` selects the scoring precision (:mod:`repro.backend.precision`);
    the stored score arrays use the policy's compute dtype.
    """
    scorer = ChunkedScorer(
        source_embeddings,
        target_embeddings,
        measure=measure,
        correction=correction,
        n_neighbors=n_neighbors,
        policy=policy,
    )
    return _build_from_blocks(
        ((start, block) for start, _stop, block in scorer.iter_blocks()),
        scorer.n_source,
        scorer.n_target,
        k,
        reverse_k if reverse_k is not None else k,
        score_dtype=scorer.policy.compute_dtype,
    )


__all__ = [
    "DEFAULT_INDEX_K",
    "SparseTopKIndex",
    "build_index",
    "build_index_from_embeddings",
]
