"""Locally Isolated Similarity Index (LISI), paper Eq. 9-11.

In the roughly learned embedding space some nodes become *hubs*: nearest
neighbours of disproportionately many nodes of the other graph, which breaks
the nearest-neighbour alignment rule.  LISI discounts each pair's raw
similarity by the hubness of both endpoints:

``LISI(h_s, h_t) = 2 corr(h_s, h_t) - D_t(h_s) - D_s(h_t)``

where ``D_t(h_s)`` is the mean similarity of ``h_s`` to its ``m`` nearest
neighbours in the target space and ``D_s(h_t)`` the symmetric quantity.

Hubness vectors are *reduction statistics*, so under every precision policy
they are accumulated and stored in float64 (the policy's ``accum_dtype``):
a float32 similarity matrix yields float64 hubness degrees, and the
correction is applied with float64 operands cast on store — the
compute-low/accumulate-high contract of :mod:`repro.backend.precision`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend.precision import PolicyLike, as_score_matrix
from repro.similarity.measures import pearson_similarity


def _row_hubness(similarity: np.ndarray, m: int) -> np.ndarray:
    """Mean of the ``m`` largest entries of every row (float64 accumulated).

    Row-wise selection only touches the row's own entries, so the streaming
    kernels can call this per row chunk and obtain bit-identical values.
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


def hubness_degrees(
    similarity: np.ndarray, n_neighbors: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean similarity of each row/column to its top-``n_neighbors`` entries.

    The similarity matrix keeps its (float32 or float64) dtype; the
    returned hubness vectors are always float64.

    Returns
    -------
    source_hubness:
        ``(n_source,)`` — Eq. 10's ``D_t(h_s)`` for every source node.
    target_hubness:
        ``(n_target,)`` — ``D_s(h_t)`` for every target node.
    """
    similarity = as_score_matrix(similarity)
    if similarity.ndim != 2:
        raise ValueError("similarity must be a 2-D matrix")
    n_source, n_target = similarity.shape
    if n_neighbors < 1:
        raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")

    m_source = min(n_neighbors, n_target)
    m_target = min(n_neighbors, n_source)

    source_hubness = _row_hubness(similarity, m_source)
    if m_target == 0 or n_target == 0:
        target_hubness = np.zeros(n_target, dtype=np.float64)
    else:
        top_cols = np.partition(similarity, n_source - m_target, axis=0)[
            n_source - m_target:, :
        ]
        target_hubness = _column_top_mean(top_cols)
    return source_hubness, target_hubness


def _apply_hubness_correction(
    similarity: np.ndarray,
    source_hubness: np.ndarray,
    target_hubness: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``2·sim − D_s[:, None] − D_t[None, :]`` in the one shared op order.

    Every scoring path — dense LISI, dense CSLS, and the chunked blocks in
    :mod:`repro.similarity.chunked` — must perform these three elementwise
    operations in exactly this sequence for the bit-identity contract to
    hold; keep them here only.  ``out is similarity`` applies the correction
    in place.  A float32 ``out`` receives float64-computed values cast on
    store (numpy's in-place same-kind casting).
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


def _hubness_corrected_matrix(
    source_embeddings: np.ndarray,
    target_embeddings: np.ndarray,
    n_neighbors: int,
    similarity: Optional[np.ndarray],
    chunk_rows: Optional[int],
    out: Optional[np.ndarray],
    *,
    measure: str,
    correction: str,
    similarity_fn,
    policy: PolicyLike = None,
) -> np.ndarray:
    """Shared dense/chunked dispatch behind ``lisi_matrix``/``csls_matrix``."""
    if similarity is None and chunk_rows is not None:
        from repro.similarity.chunked import chunked_score_matrix

        return chunked_score_matrix(
            source_embeddings,
            target_embeddings,
            measure=measure,
            correction=correction,
            n_neighbors=n_neighbors,
            chunk_rows=chunk_rows,
            out=out,
            policy=policy,
        )
    owns_buffer = similarity is None
    if owns_buffer:
        similarity = similarity_fn(
            source_embeddings,
            target_embeddings,
            out=out,
            policy=policy,
        )
    source_hubness, target_hubness = hubness_degrees(similarity, n_neighbors)
    return _apply_hubness_correction(
        similarity,
        source_hubness,
        target_hubness,
        out=similarity if owns_buffer else out,
    )


def lisi_matrix(
    source_embeddings: np.ndarray,
    target_embeddings: np.ndarray,
    n_neighbors: int = 20,
    similarity: Optional[np.ndarray] = None,
    *,
    chunk_rows: Optional[int] = None,
    out: Optional[np.ndarray] = None,
    policy: PolicyLike = None,
) -> np.ndarray:
    """Compute the LISI alignment matrix between two embedding sets.

    Parameters
    ----------
    source_embeddings, target_embeddings:
        ``(n_s, d)`` and ``(n_t, d)`` embedding matrices.
    n_neighbors:
        Neighbourhood size ``m`` used for the hubness correction.
    similarity:
        Optional pre-computed Pearson similarity matrix (skips recomputation
        and makes ``chunk_rows`` a no-op — the matrix is already dense).
    chunk_rows:
        If set, the matrix is assembled in row chunks of (at most) this many
        rows via :mod:`repro.similarity.chunked`, bounding the temporary
        memory to one chunk instead of a full extra ``(n_s, n_t)`` matrix.
        The result is bit-identical to the dense path.
    out:
        Optional pre-allocated ``(n_s, n_t)`` output buffer in the policy's
        compute dtype; the result is written into it (a provided
        ``similarity`` is never mutated unless it *is* ``out``).
    policy:
        Precision policy (see :mod:`repro.backend.precision`); the float64
        default is bit-identical to the historical kernel.
    """
    return _hubness_corrected_matrix(
        source_embeddings,
        target_embeddings,
        n_neighbors,
        similarity,
        chunk_rows,
        out,
        measure="pearson",
        correction="lisi",
        similarity_fn=pearson_similarity,
        policy=policy,
    )


__all__ = ["hubness_degrees", "lisi_matrix"]
