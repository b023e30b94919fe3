"""Cross-domain Similarity Local Scaling (CSLS).

CSLS (Conneau et al., 2018) is the hubness correction the paper's LISI is
closely related to: instead of subtracting the hubness degrees from twice the
similarity (LISI, Eq. 11), CSLS subtracts each endpoint's mean top-``k``
neighbourhood similarity once:

``CSLS(x, y) = 2·sim(x, y) − r_T(x) − r_S(y)``

with ``r_T(x)`` the mean similarity of ``x`` to its ``k`` nearest target
neighbours.  With Pearson similarity the two coincide; CSLS is provided on
cosine similarity as a library-level alternative scoring function.  No
pipeline stage or ablation variant calls it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend.precision import PolicyLike
from repro.similarity.chunked import ChunkedScorer


def csls_matrix(
    source_embeddings: np.ndarray,
    target_embeddings: np.ndarray,
    n_neighbors: int = 10,
    *,
    out: Optional[np.ndarray] = None,
    policy: PolicyLike = None,
) -> np.ndarray:
    """CSLS-adjusted cosine-similarity matrix between two embedding sets.

    Built in row blocks by :class:`~repro.similarity.chunked.ChunkedScorer`.

    Parameters
    ----------
    source_embeddings, target_embeddings:
        ``(n_s, d)`` and ``(n_t, d)`` embedding matrices.
    n_neighbors:
        Neighbourhood size ``k`` of the local scaling.
    out:
        Optional pre-allocated ``(n_s, n_t)`` output buffer in the active
        policy's compute dtype — a mismatched buffer is rejected with an
        error naming the policy; the result is written into it.
    policy:
        Precision policy (see :mod:`repro.backend.precision`).
    """
    scorer = ChunkedScorer(
        source_embeddings,
        target_embeddings,
        measure="cosine",
        correction="csls",
        n_neighbors=n_neighbors,
        policy=policy,
    )
    return scorer.full_matrix(out=out)


__all__ = ["csls_matrix"]
