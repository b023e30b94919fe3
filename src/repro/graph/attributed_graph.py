"""The :class:`AttributedGraph` data structure.

An attributed network is ``G = (V, A, X)`` (paper §III): ``n`` nodes, a sparse
undirected adjacency matrix ``A`` and a dense node-attribute matrix ``X`` of
shape ``(n, d)``.  The class is an immutable value object; perturbation and
construction helpers live in :mod:`repro.graph.perturbation` and
:mod:`repro.graph.builders`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.utils.sparse import MatrixLike, is_symmetric, symmetrize, to_csr


class AttributedGraph:
    """An undirected attributed network ``G = (V, A, X)``.

    Parameters
    ----------
    adjacency:
        ``(n, n)`` adjacency matrix (dense or scipy sparse).  It is converted
        to CSR, symmetrised if requested, and its diagonal is cleared (the
        model adds its own self-connections, Eq. 3 of the paper).
    attributes:
        Optional ``(n, d)`` dense attribute matrix.  If omitted, a single
        constant attribute column is used so purely structural methods still
        work.
    name:
        Optional human-readable name (used in logs and reports).
    ensure_symmetric:
        If True (default) the adjacency is replaced by ``max(A, A^T)``.
    """

    def __init__(
        self,
        adjacency: MatrixLike,
        attributes: Optional[np.ndarray] = None,
        name: str = "graph",
        ensure_symmetric: bool = True,
    ) -> None:
        adj = to_csr(adjacency)
        if adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if ensure_symmetric:
            adj = symmetrize(adj)
        elif not is_symmetric(adj):
            raise ValueError(
                "adjacency is not symmetric; pass ensure_symmetric=True to fix"
            )
        adj = adj.tolil()
        adj.setdiag(0)
        adj = adj.tocsr()
        adj.eliminate_zeros()
        self._adjacency = adj

        n = adj.shape[0]
        if attributes is None:
            attributes = np.ones((n, 1), dtype=np.float64)
        attributes = np.asarray(attributes, dtype=np.float64)
        if attributes.ndim != 2:
            raise ValueError(
                f"attributes must be a 2-D array, got shape {attributes.shape}"
            )
        if attributes.shape[0] != n:
            raise ValueError(
                f"attributes has {attributes.shape[0]} rows but graph has {n} nodes"
            )
        self._attributes = attributes
        self.name = str(name)

    @classmethod
    def _from_validated_csr(
        cls,
        adjacency: sp.csr_matrix,
        attributes: np.ndarray,
        name: str,
    ) -> "AttributedGraph":
        """Trusted constructor for callers that guarantee a clean matrix.

        ``adjacency`` must already be a canonical CSR: symmetric, zero
        diagonal, sorted indices, no explicit zeros; ``attributes`` must be
        a validated ``(n, d)`` float64 matrix (e.g. taken from an existing
        graph).  Used where a graph is rebuilt from arrays of one that was
        already validated: :mod:`repro.backend.shm` attaches staged graphs
        as read-only shared-memory views, which the public constructor's
        symmetrise/clean pass would copy.
        """
        graph = cls.__new__(cls)
        graph._adjacency = adjacency
        graph._attributes = attributes
        graph.name = str(name)
        return graph

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> sp.csr_matrix:
        """The ``(n, n)`` CSR adjacency matrix (no self loops)."""
        return self._adjacency

    @property
    def attributes(self) -> np.ndarray:
        """The ``(n, d)`` dense node-attribute matrix."""
        return self._attributes

    @property
    def n_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._adjacency.nnz // 2)

    @property
    def n_attributes(self) -> int:
        """Attribute dimensionality ``d``."""
        return self._attributes.shape[1]

    @property
    def degrees(self) -> np.ndarray:
        """Unweighted node degrees as an ``(n,)`` int array."""
        binary = (self._adjacency != 0).astype(np.int64)
        return np.asarray(binary.sum(axis=1)).ravel()

    @property
    def average_degree(self) -> float:
        """Average unweighted node degree."""
        if self.n_nodes == 0:
            return 0.0
        return float(self.degrees.mean())

    # ------------------------------------------------------------------
    # neighbourhood / edge iteration
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> np.ndarray:
        """Return the sorted neighbour indices of ``node``."""
        if not (0 <= node < self.n_nodes):
            raise IndexError(f"node {node} out of range [0, {self.n_nodes})")
        row = self._adjacency.getrow(node)
        return np.sort(row.indices)

    def has_edge(self, u: int, v: int) -> bool:
        """Return True if the undirected edge ``(u, v)`` exists."""
        if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
            return False
        return bool(self._adjacency[u, v] != 0)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges as ``(u, v)`` with ``u < v``."""
        return iter(self.edge_list())

    def edge_list(self) -> List[Tuple[int, int]]:
        """Return the undirected edge list as a list of ``(u, v)``, ``u < v``.

        Edges come in row-major order: by ``u``, then by ``v``.
        """
        upper = sp.triu(self._adjacency, k=1, format="csr")
        upper.sort_indices()
        rows = np.repeat(np.arange(self.n_nodes), np.diff(upper.indptr))
        return list(zip(rows.tolist(), upper.indices.tolist()))

    def adjacency_sets(self) -> List[set]:
        """Return per-node neighbour sets (used by the orbit counters)."""
        indptr = self._adjacency.indptr
        indices = self._adjacency.indices
        return [
            set(indices[indptr[i]:indptr[i + 1]].tolist())
            for i in range(self.n_nodes)
        ]

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: np.ndarray) -> "AttributedGraph":
        """Induced subgraph on ``nodes`` (relabelled to 0..len(nodes)-1)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1:
            raise ValueError("nodes must be a 1-D index array")
        sub_adj = self._adjacency[nodes][:, nodes]
        sub_attr = self._attributes[nodes]
        return AttributedGraph(sub_adj, sub_attr, name=f"{self.name}[sub]")

    def with_attributes(self, attributes: np.ndarray) -> "AttributedGraph":
        """Return a copy of the graph with a different attribute matrix."""
        return AttributedGraph(
            self._adjacency.copy(), attributes, name=self.name, ensure_symmetric=False
        )

    def copy(self) -> "AttributedGraph":
        """Deep copy of the graph."""
        return AttributedGraph(
            self._adjacency.copy(),
            self._attributes.copy(),
            name=self.name,
            ensure_symmetric=False,
        )

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        if self.n_nodes != other.n_nodes:
            return False
        same_adj = (self._adjacency != other._adjacency).nnz == 0
        same_attr = np.array_equal(self._attributes, other._attributes)
        return bool(same_adj and same_attr)

    def __repr__(self) -> str:
        return (
            f"AttributedGraph(name={self.name!r}, n_nodes={self.n_nodes}, "
            f"n_edges={self.n_edges}, n_attributes={self.n_attributes})"
        )


__all__ = ["AttributedGraph"]
