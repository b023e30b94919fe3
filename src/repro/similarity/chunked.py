"""Memory-bounded (chunked) similarity scoring and matching kernels.

Every scoring path in this package conceptually produces an ``(n_s, n_t)``
score matrix — Pearson/cosine similarity, optionally hubness-corrected (LISI
or CSLS).  For the paper-scale sweeps that matrix (×13 orbit views) is the
peak-memory driver, yet most consumers only reduce it: mutual nearest
neighbours, greedy matching and top-``k`` retrieval all need a handful of
per-row/per-column statistics.

This module streams the score matrix in *row chunks* instead:

* :func:`chunked_score_matrix` assembles the full matrix while bounding the
  temporary working set to one chunk (for callers that do need the matrix),
* :func:`chunked_mutual_nearest_neighbors`, :func:`chunked_greedy_match` and
  :func:`chunked_top_k_indices` never materialise it at all —
  ``O(chunk_rows × n_t)`` peak instead of ``O(n_s × n_t)``,
* :func:`streaming_hubness_degrees` computes the LISI/CSLS hubness terms from
  a running per-column top-``m`` buffer.

**Bit-identity.**  All results are bit-identical to the dense path.  Two
mechanisms guarantee this:

1. every GEMM is issued over the same absolute-aligned
   :data:`~repro.similarity.measures.BLOCK_ROWS` windows as the dense
   kernels (chunk sizes are rounded up to a multiple of the window), so each
   output element is produced by the exact same floating-point operations;
2. the per-column top-``m`` means are computed from a *sorted* top block in
   both paths (:func:`repro.similarity.lisi._column_top_mean`), so the
   summation order depends only on the selected values, not on whether they
   were found by a full partition or a running accumulator.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.backend.precision import PolicyLike, resolve_policy
from repro.similarity.lisi import (
    _apply_hubness_correction,
    _column_top_mean,
    _row_hubness,
)
from repro.similarity.matching import _greedy_core, top_k_indices
from repro.similarity.measures import (
    BLOCK_ROWS,
    _cosine_factors,
    _pearson_factors,
    _validate_embeddings,
    _windowed_product,
)

#: Supported base similarity measures.
MEASURES = ("pearson", "cosine")

#: Supported hubness corrections (``None`` = raw similarity).
CORRECTIONS = (None, "lisi", "csls")

#: Default streaming chunk (rows); a multiple of :data:`BLOCK_ROWS`.
DEFAULT_CHUNK_ROWS = 4 * BLOCK_ROWS


def resolve_chunk_rows(chunk_rows: Optional[int], n_rows: int) -> int:
    """Normalise a user chunk size to an aligned, positive row count.

    Chunk boundaries must fall on multiples of :data:`BLOCK_ROWS` so the
    chunked GEMM calls coincide with the dense path's aligned windows (the
    bit-identity requirement); arbitrary values are rounded up.
    """
    if chunk_rows is None:
        chunk_rows = DEFAULT_CHUNK_ROWS
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    aligned = ((chunk_rows + BLOCK_ROWS - 1) // BLOCK_ROWS) * BLOCK_ROWS
    return max(BLOCK_ROWS, min(aligned, max(n_rows, BLOCK_ROWS)))


class ChunkedScorer:
    """Streams aligned row blocks of the (corrected) score matrix.

    Parameters
    ----------
    source_embeddings, target_embeddings:
        ``(n_s, d)`` and ``(n_t, d)`` embedding matrices.
    measure:
        ``"pearson"`` or ``"cosine"``.
    correction:
        ``None`` (raw similarity), ``"lisi"`` or ``"csls"`` (both apply
        ``2·sim − D_s − D_t``; they differ only in their conventional base
        measure).
    n_neighbors:
        Hubness neighbourhood size (ignored without a correction).
    chunk_rows:
        Streaming granularity; rounded up to a multiple of
        :data:`~repro.similarity.measures.BLOCK_ROWS`.
    policy:
        Precision policy (see :mod:`repro.backend.precision`).  Blocks and
        factors are held in the policy's compute dtype; the hubness vectors
        are always float64 (reduction statistics accumulate in
        ``accum_dtype``).  The float64 default is bit-identical to the
        historical scorer.

    Only ``O(n·d)`` factor matrices and ``O(chunk_rows × n_t)`` block
    buffers are held at any time.
    """

    def __init__(
        self,
        source_embeddings: np.ndarray,
        target_embeddings: np.ndarray,
        *,
        measure: str = "pearson",
        correction: Optional[str] = None,
        n_neighbors: int = 10,
        chunk_rows: Optional[int] = None,
        policy: PolicyLike = None,
    ) -> None:
        if measure not in MEASURES:
            raise ValueError(f"measure must be one of {MEASURES}, got {measure!r}")
        if correction not in CORRECTIONS:
            raise ValueError(
                f"correction must be one of {CORRECTIONS}, got {correction!r}"
            )
        self.policy = resolve_policy(policy)
        source, target = _validate_embeddings(source_embeddings, target_embeddings)
        factorize = _pearson_factors if measure == "pearson" else _cosine_factors
        self._source_factor, self._target_factor = factorize(
            source, target, self.policy
        )
        self.n_source = source.shape[0]
        self.n_target = target.shape[0]
        self.measure = measure
        self.correction = correction
        self.n_neighbors = n_neighbors
        self.chunk_rows = resolve_chunk_rows(chunk_rows, self.n_source)
        self._source_hubness: Optional[np.ndarray] = None
        self._target_hubness: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # raw similarity blocks
    # ------------------------------------------------------------------
    def raw_block(
        self, start: int, stop: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Rows ``[start, stop)`` of the *uncorrected* similarity matrix."""
        if out is None:
            out = self.policy.empty((stop - start, self.n_target))
        return _windowed_product(
            self._source_factor[start:stop],
            self._target_factor,
            out,
            row_offset=start,
        )

    def _chunk_bounds(self) -> Iterator[Tuple[int, int]]:
        for start in range(0, self.n_source, self.chunk_rows):
            yield start, min(self.n_source, start + self.chunk_rows)

    # ------------------------------------------------------------------
    # hubness (pass 1)
    # ------------------------------------------------------------------
    def hubness(self) -> Tuple[np.ndarray, np.ndarray]:
        """The (source, target) hubness degree vectors, computed streaming."""
        if self._source_hubness is None:
            self._source_hubness, self._target_hubness = (
                self._streaming_hubness()
            )
        return self._source_hubness, self._target_hubness

    def _streaming_hubness(
        self, out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One streaming pass computing both hubness vectors.

        With ``out`` given, the raw similarity blocks are additionally
        written into it (so :meth:`full_matrix` pays for the GEMMs once).
        """
        if self.n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {self.n_neighbors}")
        m_source = min(self.n_neighbors, self.n_target)
        m_target = min(self.n_neighbors, self.n_source)
        source_hubness = np.zeros(self.n_source, dtype=np.float64)
        column_top: Optional[np.ndarray] = None
        for start, stop in self._chunk_bounds():
            block = self.raw_block(
                start, stop, out=None if out is None else out[start:stop]
            )
            source_hubness[start:stop] = _row_hubness(block, m_source)
            if m_target == 0 or self.n_target == 0:
                continue
            stacked = (
                block if column_top is None else np.vstack([column_top, block])
            )
            if stacked.shape[0] > m_target:
                kth = stacked.shape[0] - m_target
                column_top = np.partition(stacked, kth, axis=0)[kth:]
            else:
                # Copy: ``stacked`` may alias ``block`` (a view into ``out``
                # or a buffer the next iteration reuses).
                column_top = stacked.copy()
        if column_top is None:
            target_hubness = np.zeros(self.n_target, dtype=np.float64)
        else:
            target_hubness = _column_top_mean(column_top)
        return source_hubness, target_hubness

    # ------------------------------------------------------------------
    # corrected blocks / rows (pass 2)
    # ------------------------------------------------------------------
    def _apply_correction(self, block: np.ndarray, start: int) -> np.ndarray:
        source_hubness, target_hubness = self.hubness()
        return _apply_hubness_correction(
            block,
            source_hubness[start : start + block.shape[0]],
            target_hubness,
            out=block,
        )

    def block(
        self, start: int, stop: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Rows ``[start, stop)`` of the final (corrected) score matrix.

        ``start`` must be a multiple of ``BLOCK_ROWS`` for the result to be
        bit-identical to the dense matrix (the iterators guarantee this).
        """
        block = self.raw_block(start, stop, out=out)
        if self.correction is not None:
            block = self._apply_correction(block, start)
        return block

    def iter_blocks(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, block)`` row chunks of the score matrix."""
        if self.correction is not None:
            self.hubness()  # pass 1 before the first block is emitted
        for start, stop in self._chunk_bounds():
            yield start, stop, self.block(start, stop)

    def row(self, i: int) -> np.ndarray:
        """One score row, bit-identical to ``dense_matrix[i]``.

        Recomputes the aligned window containing ``i`` so the GEMM shape
        matches the dense path exactly.
        """
        window_start = (i // BLOCK_ROWS) * BLOCK_ROWS
        window_stop = min(self.n_source, window_start + BLOCK_ROWS)
        return self.block(window_start, window_stop)[i - window_start]

    def full_matrix(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Assemble the full score matrix chunk by chunk into ``out``.

        Peak temporary memory beyond the output buffer itself is one factor
        pair plus the hubness accumulators — no second ``(n_s, n_t)`` array.
        """
        if out is None:
            out = self.policy.empty((self.n_source, self.n_target))
        else:
            # Dtype-policy-aware validation: the error names the active
            # policy instead of hard-rejecting anything non-float64.
            self.policy.validate_out(out, (self.n_source, self.n_target))
        if self.correction is None:
            for start, stop in self._chunk_bounds():
                self.raw_block(start, stop, out=out[start:stop])
            return out
        # Fill raw similarity first, reusing it for the hubness pass so the
        # similarity GEMMs run once, then correct in place chunk by chunk.
        if self._source_hubness is None:
            self._source_hubness, self._target_hubness = (
                self._streaming_hubness(out=out)
            )
        else:
            for start, stop in self._chunk_bounds():
                self.raw_block(start, stop, out=out[start:stop])
        for start, stop in self._chunk_bounds():
            self._apply_correction(out[start:stop], start)
        return out


# ----------------------------------------------------------------------
# public convenience kernels
# ----------------------------------------------------------------------
def chunked_score_matrix(
    source_embeddings: np.ndarray,
    target_embeddings: np.ndarray,
    *,
    measure: str = "pearson",
    correction: Optional[str] = None,
    n_neighbors: int = 10,
    chunk_rows: Optional[int] = None,
    out: Optional[np.ndarray] = None,
    policy: PolicyLike = None,
) -> np.ndarray:
    """Full (corrected) score matrix assembled with bounded temporaries."""
    scorer = ChunkedScorer(
        source_embeddings,
        target_embeddings,
        measure=measure,
        correction=correction,
        n_neighbors=n_neighbors,
        chunk_rows=chunk_rows,
        policy=policy,
    )
    return scorer.full_matrix(out=out)


def streaming_hubness_degrees(
    source_embeddings: np.ndarray,
    target_embeddings: np.ndarray,
    n_neighbors: int,
    *,
    measure: str = "pearson",
    chunk_rows: Optional[int] = None,
    policy: PolicyLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Hubness degree vectors without materialising the similarity matrix.

    The vectors are float64 under every policy (reduction statistics
    accumulate in ``accum_dtype``).
    """
    scorer = ChunkedScorer(
        source_embeddings,
        target_embeddings,
        measure=measure,
        correction="lisi",
        n_neighbors=n_neighbors,
        chunk_rows=chunk_rows,
        policy=policy,
    )
    return scorer.hubness()


def chunked_mutual_nearest_neighbors(
    source_embeddings: np.ndarray,
    target_embeddings: np.ndarray,
    *,
    measure: str = "pearson",
    correction: Optional[str] = "lisi",
    n_neighbors: int = 10,
    chunk_rows: Optional[int] = None,
    policy: PolicyLike = None,
) -> List[Tuple[int, int]]:
    """Trusted pairs (mutual argmaxes) in ``O(chunk_rows × n_t)`` memory.

    Bit-identical to running
    :func:`repro.similarity.matching.mutual_nearest_neighbors` on the dense
    score matrix of the same policy, including argmax tie behaviour (lowest
    index wins on both axes).
    """
    scorer = ChunkedScorer(
        source_embeddings,
        target_embeddings,
        measure=measure,
        correction=correction,
        n_neighbors=n_neighbors,
        chunk_rows=chunk_rows,
        policy=policy,
    )
    if scorer.n_source == 0 or scorer.n_target == 0:
        return []
    best_target = np.zeros(scorer.n_source, dtype=np.intp)
    best_column_value = np.full(scorer.n_target, -np.inf)
    best_source = np.zeros(scorer.n_target, dtype=np.intp)
    for start, _stop, block in scorer.iter_blocks():
        best_target[start : start + block.shape[0]] = block.argmax(axis=1)
        block_max = block.max(axis=0)
        improved = block_max > best_column_value
        best_source[improved] = block.argmax(axis=0)[improved] + start
        best_column_value[improved] = block_max[improved]
    return [
        (int(i), int(j))
        for i, j in enumerate(best_target)
        if best_source[j] == i
    ]


def chunked_top_k_indices(
    source_embeddings: np.ndarray,
    target_embeddings: np.ndarray,
    k: int,
    *,
    measure: str = "pearson",
    correction: Optional[str] = None,
    n_neighbors: int = 10,
    chunk_rows: Optional[int] = None,
    policy: PolicyLike = None,
) -> np.ndarray:
    """Per-row top-``k`` target indices without the full score matrix."""
    scorer = ChunkedScorer(
        source_embeddings,
        target_embeddings,
        measure=measure,
        correction=correction,
        n_neighbors=n_neighbors,
        chunk_rows=chunk_rows,
        policy=policy,
    )
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    effective_k = min(k, scorer.n_target)
    result = np.empty((scorer.n_source, effective_k), dtype=np.intp)
    if effective_k == 0:
        return result
    for start, stop, block in scorer.iter_blocks():
        result[start:stop] = top_k_indices(block, k)
    return result


def chunked_greedy_match(
    source_embeddings: np.ndarray,
    target_embeddings: np.ndarray,
    *,
    measure: str = "pearson",
    correction: Optional[str] = None,
    n_neighbors: int = 10,
    chunk_rows: Optional[int] = None,
    policy: PolicyLike = None,
) -> List[Tuple[int, int]]:
    """Greedy one-to-one matching in ``O(chunk_rows × n_t)`` memory.

    Runs the same lazy heap algorithm as
    :func:`repro.similarity.matching.greedy_match`; rows whose candidate was
    taken are recomputed from their aligned GEMM window, so the produced
    matching is identical to the dense one.
    """
    scorer = ChunkedScorer(
        source_embeddings,
        target_embeddings,
        measure=measure,
        correction=correction,
        n_neighbors=n_neighbors,
        chunk_rows=chunk_rows,
        policy=policy,
    )
    if scorer.n_source == 0 or scorer.n_target == 0:
        return []
    heap: List[Tuple[float, int, int]] = []
    for start, _stop, block in scorer.iter_blocks():
        maxima = block.max(axis=1)
        argmaxima = block.argmax(axis=1)
        heap.extend(
            (-float(maxima[r]), start + r, int(argmaxima[r]))
            for r in range(block.shape[0])
        )
    return _greedy_core(heap, scorer.row, scorer.n_source, scorer.n_target)


__all__ = [
    "MEASURES",
    "CORRECTIONS",
    "DEFAULT_CHUNK_ROWS",
    "resolve_chunk_rows",
    "ChunkedScorer",
    "chunked_score_matrix",
    "streaming_hubness_degrees",
    "chunked_mutual_nearest_neighbors",
    "chunked_top_k_indices",
    "chunked_greedy_match",
]
