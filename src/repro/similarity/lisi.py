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
from repro.similarity.chunked import ChunkedScorer, _column_top_mean, _row_hubness


def hubness_degrees(
    similarity: np.ndarray, n_neighbors: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean similarity of each row/column to its top-``n_neighbors`` entries.

    This is the dense reference of Eq. 10, which the block engine is tested
    against.  The similarity matrix keeps its (float32 or float64) dtype;
    the returned hubness vectors are always float64.

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


def lisi_matrix(
    source_embeddings: np.ndarray,
    target_embeddings: np.ndarray,
    n_neighbors: int = 20,
    *,
    out: Optional[np.ndarray] = None,
    policy: PolicyLike = None,
) -> np.ndarray:
    """Compute the LISI alignment matrix between two embedding sets.

    The matrix is built in row blocks by
    :class:`~repro.similarity.chunked.ChunkedScorer`, bit-identical to the
    dense Pearson → :func:`hubness_degrees` → correction route.

    Parameters
    ----------
    source_embeddings, target_embeddings:
        ``(n_s, d)`` and ``(n_t, d)`` embedding matrices.
    n_neighbors:
        Neighbourhood size ``m`` used for the hubness correction.
    out:
        Optional pre-allocated ``(n_s, n_t)`` output buffer in the policy's
        compute dtype; the result is written into it.
    policy:
        Precision policy (see :mod:`repro.backend.precision`).
    """
    scorer = ChunkedScorer(
        source_embeddings,
        target_embeddings,
        measure="pearson",
        correction="lisi",
        n_neighbors=n_neighbors,
        policy=policy,
    )
    return scorer.full_matrix(out=out)


__all__ = ["hubness_degrees", "lisi_matrix"]
