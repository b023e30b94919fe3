"""Orbit-aware Laplacian construction (paper §IV-B).

The HTC encoder aggregates messages along orbit-weighted edges.  The pieces
are:

* :func:`self_connection_matrix` — Eq. (3): a node's self weight equals the
  weight of its strongest neighbour on that orbit (or 1 if it is isolated on
  the orbit), so the self term is not drowned out by large orbit counts.
* :func:`orbit_laplacian` — the modified orbit matrix
  ``~O_k = O_k + C_k`` symmetrically normalised:
  ``~L_k = ~F^{-1/2} ~O_k ~F^{-1/2}`` where ``~F`` is the diagonal of row sums.
* :func:`normalized_laplacian` — the same construction applied to a plain
  adjacency matrix with identity self-loops (the classic GCN propagation
  matrix used by GAlign and the low-order ablation).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.sparse import MatrixLike, safe_inverse_sqrt, to_csr


def self_connection_matrix(orbit_matrix: MatrixLike) -> sp.csr_matrix:
    """Return the diagonal self-connection matrix ``C_k`` of Eq. (3).

    ``C_k(i, i) = max_j O_k(i, j)`` when node ``i`` has at least one neighbour
    on orbit ``k``, else 1.
    """
    orbit = to_csr(orbit_matrix)
    n = orbit.shape[0]
    max_per_row = np.zeros(n, dtype=np.float64)
    if orbit.nnz:
        # CSR max over rows; sparse .max(axis=1) returns a matrix of maxima
        # over stored entries which is what we need (weights are positive).
        row_max = orbit.max(axis=1)
        max_per_row = np.asarray(row_max.todense()).ravel()
    diag = np.where(max_per_row > 0, max_per_row, 1.0)
    return sp.diags(diag).tocsr()


def _scale_both_sides(matrix: sp.csr_matrix, factors: np.ndarray) -> sp.csr_matrix:
    """``diag(f) M diag(f)``, scaling ``matrix`` in place entry by entry.

    Each stored ``m_ij`` becomes ``m_ij * (f_i * f_j)``.  The factor product
    commutes, so a symmetric ``M`` gives a result whose CSR arrays equal
    those of its transpose; two diagonal products would round
    ``(f_i * m_ij) * f_j`` and ``(f_j * m_ji) * f_i`` apart.
    """
    row_factors = np.repeat(factors, np.diff(matrix.indptr))
    matrix.data *= row_factors * factors[matrix.indices]
    return matrix


def _symmetric_normalize(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Symmetrically normalise a non-negative matrix by its row sums (in place)."""
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    return _scale_both_sides(matrix, safe_inverse_sqrt(row_sums))


def orbit_laplacian(orbit_matrix: MatrixLike) -> sp.csr_matrix:
    """Return ``~L_k`` for one orbit matrix (self connection + normalisation)."""
    orbit = to_csr(orbit_matrix)
    if orbit.shape[0] != orbit.shape[1]:
        raise ValueError(f"orbit matrix must be square, got {orbit.shape}")
    if orbit.nnz and orbit.data.min() < 0:
        raise ValueError("orbit matrix must be non-negative")
    modified = (orbit + self_connection_matrix(orbit)).tocsr()
    return _symmetric_normalize(modified)


def normalized_laplacian(adjacency: MatrixLike) -> sp.csr_matrix:
    """Classic GCN propagation matrix ``D^{-1/2} (A + I) D^{-1/2}``."""
    adj = to_csr(adjacency)
    if adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got {adj.shape}")
    with_self = (adj + sp.identity(adj.shape[0], format="csr")).tocsr()
    return _symmetric_normalize(with_self)


def reinforced_laplacian(
    laplacian: MatrixLike, reinforcement: np.ndarray
) -> sp.csr_matrix:
    """Apply a diagonal reinforcement matrix on both sides: ``R L R`` (Eq. 14)."""
    lap = to_csr(laplacian)
    reinforcement = np.asarray(reinforcement, dtype=np.float64).ravel()
    if reinforcement.shape[0] != lap.shape[0]:
        raise ValueError(
            f"reinforcement vector has length {reinforcement.shape[0]} "
            f"but Laplacian has {lap.shape[0]} rows"
        )
    if np.any(reinforcement <= 0):
        raise ValueError("reinforcement factors must be strictly positive")
    # ``to_csr`` copies, so scaling in place leaves the caller's view alone.
    return _scale_both_sides(lap, reinforcement)


__all__ = [
    "self_connection_matrix",
    "orbit_laplacian",
    "normalized_laplacian",
    "reinforced_laplacian",
]
