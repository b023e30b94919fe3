"""Cross-domain Similarity Local Scaling (CSLS).

CSLS (Conneau et al., 2018) is the hubness correction the paper's LISI is
closely related to: instead of subtracting the hubness degrees from twice the
similarity (LISI, Eq. 11), CSLS subtracts each endpoint's mean top-``k``
neighbourhood similarity once:

``CSLS(x, y) = 2·sim(x, y) − r_T(x) − r_S(y)``

with ``r_T(x)`` the mean similarity of ``x`` to its ``k`` nearest target
neighbours.  With Pearson similarity the two coincide; CSLS is provided on
cosine similarity as an alternative scoring function, and is used by the
extended ablation tests to check that HTC's gains are not an artefact of one
particular hubness correction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend.precision import PolicyLike
from repro.similarity.lisi import _hubness_corrected_matrix
from repro.similarity.measures import cosine_similarity


def csls_matrix(
    source_embeddings: np.ndarray,
    target_embeddings: np.ndarray,
    n_neighbors: int = 10,
    similarity: Optional[np.ndarray] = None,
    *,
    chunk_rows: Optional[int] = None,
    out: Optional[np.ndarray] = None,
    policy: PolicyLike = None,
) -> np.ndarray:
    """CSLS-adjusted cosine-similarity matrix between two embedding sets.

    Parameters
    ----------
    source_embeddings, target_embeddings:
        ``(n_s, d)`` and ``(n_t, d)`` embedding matrices.
    n_neighbors:
        Neighbourhood size ``k`` of the local scaling.
    similarity:
        Optional pre-computed cosine-similarity matrix (skips recomputation
        and makes ``chunk_rows`` a no-op).
    chunk_rows:
        If set, assemble the matrix in bounded row chunks (bit-identical to
        the dense path); see :mod:`repro.similarity.chunked`.
    out:
        Optional pre-allocated ``(n_s, n_t)`` output buffer in the active
        policy's compute dtype — a mismatched buffer is rejected with an
        error naming the policy; the result is written into it (a provided
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
        measure="cosine",
        correction="csls",
        similarity_fn=cosine_similarity,
        policy=policy,
    )


__all__ = ["csls_matrix"]
