"""Shared spectral embedding helper used by the PALE and CENALP baselines.

Both baselines first embed each network independently.  The original papers
use skip-gram style training (LINE / DeepWalk); here the embedding is the
truncated SVD of the normalised adjacency, which approximates the same
first-order proximity signal deterministically and without a long training
loop: PALE and CENALP are stand-ins, not reproductions of their training.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.laplacian import normalized_laplacian


def spectral_embedding(
    graph: AttributedGraph, dim: int, use_attributes: bool = False
) -> np.ndarray:
    """First-order proximity embedding via truncated SVD of ``D^-1/2 (A+I) D^-1/2``.

    Parameters
    ----------
    graph:
        The network to embed.
    dim:
        Embedding dimension (clipped to ``n_nodes - 1``).
    use_attributes:
        If True, node attributes are concatenated to the spectral coordinates.

    ARPACK starts from a fixed-seed Gaussian vector and each column's
    largest-magnitude entry is made positive, so equal graphs embed equally.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    n = graph.n_nodes
    k = min(dim, max(n - 2, 1))
    laplacian = normalized_laplacian(graph.adjacency).astype(np.float64)
    try:
        v0 = np.random.default_rng(0).standard_normal(min(laplacian.shape))
        u, s, _ = spla.svds(laplacian, k=k, v0=v0)
    except Exception:  # very small or degenerate graphs: dense fallback
        dense = laplacian.toarray() if sp.issparse(laplacian) else laplacian
        u_full, s_full, _ = np.linalg.svd(dense)
        u, s = u_full[:, :k], s_full[:k]
    order = np.argsort(-s)
    u = u[:, order]
    u *= np.where(u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])] < 0, -1.0, 1.0)
    embedding = u * np.sqrt(np.maximum(s[order], 0.0))
    if embedding.shape[1] < dim:
        embedding = np.pad(embedding, ((0, 0), (0, dim - embedding.shape[1])))
    if use_attributes:
        embedding = np.hstack([embedding, graph.attributes])
    return embedding


__all__ = ["spectral_embedding"]
