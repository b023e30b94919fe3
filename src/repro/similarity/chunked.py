"""The block engine that builds every score matrix.

Every scoring path in this package produces an ``(n_s, n_t)`` score matrix —
Pearson/cosine similarity, optionally hubness-corrected (LISI or CSLS).
:class:`ChunkedScorer` builds it in *row blocks*: ``lisi_matrix``,
``csls_matrix`` and ``build_index_from_embeddings`` assemble or fold them,
and :func:`chunked_mutual_nearest_neighbors` finds trusted pairs without
materialising the matrix at all — ``O(block × n_t)`` peak instead of
``O(n_s × n_t)``.

**Block height.**  No caller chooses it: a block holds about
:data:`_BLOCK_CELL_BUDGET` cells, so its height is that budget divided by
the number of targets, rounded down to a multiple of
:data:`~repro.similarity.measures.BLOCK_ROWS` (at least one window).  The
rule ignores the dtype, so the float32 policy halves the peak memory of
the float64 one.  Tests monkeypatch the budget to force one window per
block or a single block.

**Bit-identity.**  Results are bit-identical to the dense reference
(:func:`~repro.similarity.measures.pearson_similarity` →
:func:`~repro.similarity.lisi.hubness_degrees` →
:func:`_apply_hubness_correction`) for every block height.  Two mechanisms
guarantee this:

1. every GEMM is issued over the same absolute-aligned
   :data:`~repro.similarity.measures.BLOCK_ROWS` windows as the dense
   kernels, so each output element is produced by the exact same
   floating-point operations;
2. the per-column top-``m`` means are computed from a *sorted* top block in
   both paths (:func:`_column_top_mean`), so the summation order depends
   only on the selected values, not on whether they were found by a full
   partition or a running accumulator.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.backend.precision import PolicyLike, resolve_policy
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

#: Cells (rows × targets) per block.  2**18 puts perfbench's 400×380 and
#: 400×240 views in one block each, and gives 256-row blocks on the
#: 1200×1000 quick pair of ``benchmarks/bench_runner.py``; 2**19 would give
#: 512 rows there, where streamed MNN saves 1.1x memory against its gated 2x.
_BLOCK_CELL_BUDGET = 1 << 18


def _block_rows(n_target: int) -> int:
    """Rows per block: the cell budget over ``n_target``, in whole windows."""
    rows = _BLOCK_CELL_BUDGET // max(n_target, 1)
    return max(BLOCK_ROWS, rows - rows % BLOCK_ROWS)


def _row_blocks(n_rows: int, n_cols: int) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` row blocks of an ``(n_rows, n_cols)`` matrix."""
    step = _block_rows(n_cols)
    for start in range(0, n_rows, step):
        yield start, min(n_rows, start + step)


def _row_hubness(similarity: np.ndarray, m: int) -> np.ndarray:
    """Mean of the ``m`` largest entries of every row (float64 accumulated).

    Row-wise selection only touches the row's own entries, so calling this
    per row block gives bit-identical values.
    """
    n_cols = similarity.shape[1]
    if m == 0 or similarity.shape[0] == 0:
        return np.zeros(similarity.shape[0], dtype=np.float64)
    top = np.partition(similarity, n_cols - m, axis=1)[:, n_cols - m:]
    return top.mean(axis=1, dtype=np.float64)


def _column_top_mean(top_block: np.ndarray) -> np.ndarray:
    """Mean over a ``(m, n_cols)`` block of per-column top values.

    The block is sorted along axis 0 first so the summation order depends
    only on the *multiset* of selected values, not on how they were selected.
    This is what lets the streaming top-``m`` accumulator (which gathers the
    same values in a different order) reproduce the dense result bit for bit.
    """
    if top_block.shape[0] == 0:
        return np.zeros(top_block.shape[1], dtype=np.float64)
    return np.sort(top_block, axis=0).mean(axis=0, dtype=np.float64)


def _apply_hubness_correction(
    similarity: np.ndarray,
    source_hubness: np.ndarray,
    target_hubness: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``2·sim − D_s[:, None] − D_t[None, :]`` in the one shared op order.

    The blocks of :class:`ChunkedScorer` and the dense reference must
    perform these three elementwise operations in exactly this sequence for
    the bit-identity contract to hold; keep them here only.
    ``out is similarity`` applies the correction in place.  A float32
    ``out`` receives float64-computed values cast on store (numpy's
    in-place same-kind casting).
    """
    if out is None:
        out = np.empty_like(similarity)
    if out is similarity:
        out *= 2.0
    else:
        np.multiply(similarity, 2.0, out=out)
    out -= source_hubness[:, None]
    out -= target_hubness[None, :]
    return out


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
    policy:
        Precision policy (see :mod:`repro.backend.precision`).  Blocks and
        factors are held in the policy's compute dtype; the hubness vectors
        are always float64 (reduction statistics accumulate in
        ``accum_dtype``).

    Only ``O(n·d)`` factor matrices and one block buffer (see the module
    docstring for its height) are held at any time.
    """

    def __init__(
        self,
        source_embeddings: np.ndarray,
        target_embeddings: np.ndarray,
        *,
        measure: str = "pearson",
        correction: Optional[str] = None,
        n_neighbors: int = 10,
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

    def _block_bounds(self) -> Iterator[Tuple[int, int]]:
        return _row_blocks(self.n_source, self.n_target)

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
        for start, stop in self._block_bounds():
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
    # corrected blocks (pass 2)
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
        """Yield ``(start, stop, block)`` row blocks of the score matrix."""
        if self.correction is not None:
            self.hubness()  # pass 1 before the first block is emitted
        for start, stop in self._block_bounds():
            yield start, stop, self.block(start, stop)

    def full_matrix(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Assemble the full score matrix block by block into ``out``.

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
            for start, stop in self._block_bounds():
                self.raw_block(start, stop, out=out[start:stop])
            return out
        # Fill raw similarity first, reusing it for the hubness pass so the
        # similarity GEMMs run once, then correct in place block by block.
        if self._source_hubness is None:
            self._source_hubness, self._target_hubness = (
                self._streaming_hubness(out=out)
            )
        else:
            for start, stop in self._block_bounds():
                self.raw_block(start, stop, out=out[start:stop])
        for start, stop in self._block_bounds():
            self._apply_correction(out[start:stop], start)
        return out


def chunked_mutual_nearest_neighbors(
    source_embeddings: np.ndarray,
    target_embeddings: np.ndarray,
    *,
    measure: str = "pearson",
    correction: Optional[str] = "lisi",
    n_neighbors: int = 10,
    policy: PolicyLike = None,
) -> List[Tuple[int, int]]:
    """Trusted pairs (mutual argmaxes) in ``O(block × n_t)`` memory.

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


__all__ = [
    "MEASURES",
    "CORRECTIONS",
    "ChunkedScorer",
    "chunked_mutual_nearest_neighbors",
]
