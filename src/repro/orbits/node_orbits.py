"""Node-orbit (graphlet degree vector) counting for 2-4-node graphlets.

The paper's higher-order consistency is defined on *edge* orbits, but node
orbits — each node's graphlet degree vector (GDV) over the 15 node orbits —
are the structural signature used by graphlet-based alignment baselines
(H-GRAAL / GREAT / GraphletAlign family) and make useful structural node
features.  2- and 3-node orbits come from closed-form neighbourhood counts;
4-node orbits come from an exact ESU enumeration of connected induced
subgraphs, classified by degree sequence.

This is the reference node counter: the tests use it as the oracle, and
:mod:`repro.orbits.engine` runs it on NumPy < 2.0.  Log-scaled GDV features
come from :func:`repro.orbits.engine.graphlet_degree_vectors`.

Orbit numbering (see :mod:`repro.orbits.graphlets`): 0 edge; 1 chain end,
2 chain middle; 3 triangle; 4 path end, 5 path middle; 6 star leaf,
7 star centre; 8 cycle; 9 paw pendant, 10 paw far-triangle, 11 paw
attachment; 12 diamond degree-2, 13 diamond degree-3; 14 clique.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.graph.attributed_graph import AttributedGraph
from repro.orbits.esu import enumerate_connected_subgraphs
from repro.orbits.graphlets import NODE_ORBIT_COUNT


def count_node_orbits(graph: AttributedGraph) -> np.ndarray:
    """Return the ``(n_nodes, 15)`` graphlet degree vector matrix (exact)."""
    adjacency_sets = graph.adjacency_sets()
    n = graph.n_nodes
    counts = np.zeros((n, NODE_ORBIT_COUNT), dtype=np.int64)

    counts[:, 0] = graph.degrees

    # 3-node graphlets from closed-form neighbourhood enumeration.
    for center in range(n):
        neighbours = sorted(adjacency_sets[center])
        for u, v in combinations(neighbours, 2):
            if v in adjacency_sets[u]:
                # Triangle {center, u, v}: attribute it once, when the center
                # is the smallest node of the triangle.
                if center < u:
                    counts[center, 3] += 1
                    counts[u, 3] += 1
                    counts[v, 3] += 1
            else:
                # Two-edge chain with `center` in the middle; always unique.
                counts[center, 2] += 1
                counts[u, 1] += 1
                counts[v, 1] += 1

    # 4-node graphlets via exact ESU enumeration.
    for quad in enumerate_connected_subgraphs(adjacency_sets, 4):
        _count_quad(quad, adjacency_sets, counts)

    return counts


def _count_quad(quad, adjacency_sets, counts: np.ndarray) -> None:
    """Add the node-orbit contributions of one connected 4-node subgraph."""
    a, b, c, d = quad
    pairs = [(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)]
    deg = {node: 0 for node in quad}
    n_edges = 0
    for u, v in pairs:
        if v in adjacency_sets[u]:
            n_edges += 1
            deg[u] += 1
            deg[v] += 1

    if n_edges == 3:
        if max(deg.values()) == 3:
            # Star.
            for node in quad:
                counts[node, 7 if deg[node] == 3 else 6] += 1
        else:
            # Three-edge chain.
            for node in quad:
                counts[node, 5 if deg[node] == 2 else 4] += 1
    elif n_edges == 4:
        if max(deg.values()) == 2:
            # Quadrangle.
            for node in quad:
                counts[node, 8] += 1
        else:
            # Tailed triangle: degrees are [1, 2, 2, 3].
            for node in quad:
                if deg[node] == 1:
                    counts[node, 9] += 1
                elif deg[node] == 3:
                    counts[node, 11] += 1
                else:
                    counts[node, 10] += 1
    elif n_edges == 5:
        for node in quad:
            counts[node, 13 if deg[node] == 3 else 12] += 1
    else:
        for node in quad:
            counts[node, 14] += 1


__all__ = ["count_node_orbits"]
