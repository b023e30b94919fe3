"""Fast combinatorial edge-orbit counting for 2-4-node graphlets.

For every undirected edge ``(u, v)`` the counter reports how many times the
edge occurs on each of the 13 edge orbits (Eq. 1 of the paper).  The algorithm
is the pure-Python counterpart of the Orca edge-orbit counter:

* orbit 0 is trivially 1 per edge,
* the two 3-node orbits come from closed-form neighbourhood counts
  (``orbit1 = (deg(u)-1) + (deg(v)-1) - 2·t`` and ``orbit2 = t`` where ``t`` is
  the number of common neighbours),
* the ten 4-node orbits come from enumerating, for each edge, every pair of
  additional nodes that yields a connected induced subgraph.  A pair is either
  (case 1) two nodes from ``S = N(u) ∪ N(v)``, classified by the five adjacency
  bits of the quad, or (case 2) one node ``w ∈ S`` plus one of ``w``'s
  neighbours outside ``S`` (which can only form an end three-edge chain or a
  tailed triangle).

The per-quad classification is resolved through a 32-entry lookup table built
once from structural rules (degrees and triangle membership inside the quad),
so the per-edge work is ``O(|S|^2 + Σ_{w∈S} deg(w))`` — the same ``O(e·D²)``
class the paper reports for Orca.

This is the reference edge counter: the tests use it as the oracle, and
:mod:`repro.orbits.engine` runs it on NumPy < 2.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.attributed_graph import AttributedGraph
from repro.orbits.graphlets import EDGE_ORBIT_COUNT


def _classify_quad(a: bool, b: bool, c: bool, d: bool, e: bool) -> Optional[int]:
    """Classify the orbit of edge ``(u, v)`` inside the quad ``{u, v, w, x}``.

    The five booleans are the possible extra adjacencies: ``a=(u,w)``,
    ``b=(v,w)``, ``c=(u,x)``, ``d=(v,x)``, ``e=(w,x)``; the edge ``(u, v)``
    always exists.  Returns the edge-orbit id of ``(u, v)`` or ``None`` when
    the induced quad is disconnected.
    """
    # Degrees inside the quad.
    deg_u = 1 + int(a) + int(c)
    deg_v = 1 + int(b) + int(d)
    deg_w = int(a) + int(b) + int(e)
    deg_x = int(c) + int(d) + int(e)
    if deg_w == 0 or deg_x == 0:
        return None
    # w and x both have at least one edge; the quad is disconnected only when
    # {w, x} forms its own component, i.e. they are joined to each other but
    # not to {u, v}.
    if e and not (a or b or c or d):
        return None

    n_edges = 1 + int(a) + int(b) + int(c) + int(d) + int(e)

    if n_edges == 3:
        # Star (one centre of degree 3) or three-edge chain.
        if deg_u == 3 or deg_v == 3:
            return 5  # star edge
        if deg_u == 2 and deg_v == 2:
            return 4  # middle edge of the three-edge chain
        return 3  # end edge of the three-edge chain

    if n_edges == 4:
        if deg_u == deg_v == deg_w == deg_x == 2:
            return 6  # quadrangle
        # Tailed triangle.  Is (u, v) part of the triangle?
        uv_in_triangle = (a and b) or (c and d)
        if not uv_in_triangle:
            return 7  # (u, v) is the tail edge
        # (u, v) is a triangle edge; the pendant node is the degree-1 node.
        if deg_w == 1 or deg_x == 1:
            pendant_on_u_or_v = (deg_w == 1 and (a or b)) or (deg_x == 1 and (c or d))
            if pendant_on_u_or_v:
                return 8  # incident to the tailed node
            return 9  # opposite the tail
        return 9

    if n_edges == 5:
        # Diamond: the diagonal joins the two degree-3 nodes.
        if deg_u == 3 and deg_v == 3:
            return 11
        return 10

    if n_edges == 6:
        return 12

    # n_edges <= 2 cannot connect four nodes.
    return None


def _build_quad_lookup() -> Dict[Tuple[bool, bool, bool, bool, bool], Optional[int]]:
    lookup: Dict[Tuple[bool, bool, bool, bool, bool], Optional[int]] = {}
    for code in range(32):
        bits = tuple(bool((code >> i) & 1) for i in range(5))
        lookup[bits] = _classify_quad(*bits)
    return lookup


_QUAD_LOOKUP = _build_quad_lookup()


@dataclass
class EdgeOrbitCounts:
    """Edge-orbit counts of a graph.

    Attributes
    ----------
    edges:
        List of undirected edges ``(u, v)`` with ``u < v`` in the order the
        counts are stored.
    counts:
        ``(n_edges, 13)`` integer array; ``counts[i, k]`` is the number of
        times ``edges[i]`` occurs on edge orbit ``k``.
    """

    edges: List[Tuple[int, int]]
    counts: np.ndarray

    def as_dict(self) -> Dict[Tuple[int, int], np.ndarray]:
        """Return a mapping from edge to its 13-dimensional count vector."""
        return {edge: self.counts[i] for i, edge in enumerate(self.edges)}

    def orbit_total(self, orbit: int) -> int:
        """Total count of ``orbit`` summed over all edges."""
        if not 0 <= orbit < EDGE_ORBIT_COUNT:
            raise ValueError(f"orbit must be in [0, {EDGE_ORBIT_COUNT}), got {orbit}")
        return int(self.counts[:, orbit].sum())

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def count_edge_orbits(graph: AttributedGraph) -> EdgeOrbitCounts:
    """Count, for every edge of ``graph``, its occurrences on all 13 edge orbits."""
    adjacency_sets = graph.adjacency_sets()
    degrees = graph.degrees
    edges = graph.edge_list()
    counts = np.zeros((len(edges), EDGE_ORBIT_COUNT), dtype=np.int64)

    for edge_index, (u, v) in enumerate(edges):
        neighbours_u = adjacency_sets[u]
        neighbours_v = adjacency_sets[v]
        common = (neighbours_u & neighbours_v) - {u, v}
        n_common = len(common)

        counts[edge_index, 0] = 1
        counts[edge_index, 2] = n_common
        counts[edge_index, 1] = (degrees[u] - 1) + (degrees[v] - 1) - 2 * n_common

        # Candidate third/fourth nodes adjacent to u or v.
        surrounding = sorted((neighbours_u | neighbours_v) - {u, v})
        in_surrounding = set(surrounding)

        # Case 1: both extra nodes drawn from the surrounding set.
        for i, w in enumerate(surrounding):
            w_adj = adjacency_sets[w]
            a = w in neighbours_u
            b = w in neighbours_v
            for x in surrounding[i + 1 :]:
                orbit = _QUAD_LOOKUP[
                    (a, b, x in neighbours_u, x in neighbours_v, x in w_adj)
                ]
                if orbit is not None:
                    counts[edge_index, orbit] += 1

        # Case 2: one node from the surrounding set plus one of its private
        # neighbours (attached to neither u nor v).  The quad is always
        # connected and can only be an end three-edge chain (orbit 3) or a
        # tailed triangle whose tail hangs off the common neighbour (orbit 9).
        for w in surrounding:
            a = w in neighbours_u
            b = w in neighbours_v
            private = adjacency_sets[w] - in_surrounding - {u, v}
            if not private:
                continue
            orbit = 9 if (a and b) else 3
            counts[edge_index, orbit] += len(private)

    return EdgeOrbitCounts(edges=edges, counts=counts)


__all__ = ["EdgeOrbitCounts", "count_edge_orbits"]
