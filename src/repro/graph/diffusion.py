"""Graph diffusion matrices.

The HTC-DT ablation (paper Table III) replaces graphlet-orbit matrices with
diffusion matrices of varying order, following Klicpera et al. (2019).  Two
standard kernels are provided: truncated personalised PageRank and the heat
kernel.  Both operate on the symmetrically normalised adjacency (with self
loops), return dense or sparsified matrices, and are deterministic.
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.laplacian import normalized_laplacian


def _sparsify(matrix: np.ndarray, threshold: float) -> sp.csr_matrix:
    """Symmetrise, drop entries below ``threshold`` and return a CSR matrix.

    A sum of powers of the symmetric ``T`` is symmetric only up to rounding;
    ``(S + S^T) / 2`` is exactly symmetric, so the views built from it are
    too.
    """
    matrix = 0.5 * (matrix + matrix.T)
    dense = np.where(np.abs(matrix) >= threshold, matrix, 0.0)
    return sp.csr_matrix(dense)


def ppr_matrix(
    graph: AttributedGraph,
    alpha: float = 0.15,
    order: int = 5,
    threshold: float = 1e-4,
) -> sp.csr_matrix:
    """Truncated personalised-PageRank diffusion matrix.

    ``S = alpha * sum_{k=0}^{order} (1 - alpha)^k T^k`` where ``T`` is the
    symmetric GCN propagation matrix.  ``alpha`` is the teleport probability
    (paper uses 0.15, order 5 for the best HTC-DT result).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    transition = normalized_laplacian(graph.adjacency).toarray()
    n = transition.shape[0]
    result = np.zeros((n, n), dtype=np.float64)
    power = np.eye(n)
    coeff = alpha
    for _ in range(order + 1):
        result += coeff * power
        power = power @ transition
        coeff *= 1.0 - alpha
    return _sparsify(result, threshold)


def heat_kernel_matrix(
    graph: AttributedGraph,
    t: float = 3.0,
    order: int = 5,
    threshold: float = 1e-4,
) -> sp.csr_matrix:
    """Truncated heat-kernel diffusion ``S = sum_k e^{-t} t^k / k! * T^k``."""
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    transition = normalized_laplacian(graph.adjacency).toarray()
    n = transition.shape[0]
    result = np.zeros((n, n), dtype=np.float64)
    power = np.eye(n)
    coeff = np.exp(-t)
    factorial = 1.0
    for k in range(order + 1):
        if k > 0:
            factorial *= k
        result += coeff * (t**k) / factorial * power
        power = power @ transition
    return _sparsify(result, threshold)


def diffusion_matrix_family(
    graph: AttributedGraph,
    orders: List[int],
    alpha: float = 0.15,
    threshold: float = 1e-4,
) -> List[sp.csr_matrix]:
    """Return a list of PPR diffusion matrices, one per truncation order.

    The HTC-DT ablation feeds this family to the encoder in place of the
    graphlet-orbit matrices.
    """
    if not orders:
        raise ValueError("orders must be a non-empty list")
    return [
        ppr_matrix(graph, alpha=alpha, order=order, threshold=threshold)
        for order in orders
    ]


__all__ = ["ppr_matrix", "heat_kernel_matrix", "diffusion_matrix_family"]
