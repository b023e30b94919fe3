"""Vectorized (numpy/scipy) orbit counting — the engine's counter on NumPy >= 2.0.

The pure-Python counters in :mod:`repro.orbits.edge_orbits` and
:mod:`repro.orbits.node_orbits` classify every 4-node quad with nested Python
loops (the ``O(e·D²)`` work Orca does in C).  This module does the same exact
counting with a few whole-graph sparse products and closed-form identities,
so the hot path runs inside SciPy and NumPy.

For an edge ``(u, v)`` partition every other node into four classes by its
adjacency to the endpoints:

* ``a`` — adjacent to ``u`` only,
* ``b`` — adjacent to ``v`` only,
* ``c`` — adjacent to both (the common neighbours, ``|c| = t``),
* ``n`` — adjacent to neither.

Every connected quad ``{u, v, w, x}`` is then one of twelve cases given the
classes of ``w, x`` and whether ``w ~ x``, and each case is a fixed edge
orbit.  With ``E_xy`` the number of graph edges between class ``x`` and class
``y`` and ``P_x`` the number of (class-``x`` node, private-neighbour) pairs —
a private neighbour being adjacent to a surrounding node but to neither
endpoint — the 13 edge-orbit counts are::

    orbit  0 = 1
    orbit  1 = |a| + |b|                      (wedge, (u,v) an edge of it)
    orbit  2 = t                              (triangle edge)
    orbit  3 = P_a + P_b                      (end edge of a 3-edge chain)
    orbit  4 = |a|·|b| − E_ab                 (middle edge of a 3-edge chain)
    orbit  5 = C(|a|,2) − E_aa + C(|b|,2) − E_bb   (star edge)
    orbit  6 = E_ab                           (quadrangle edge)
    orbit  7 = E_aa + E_bb                    (paw tail edge)
    orbit  8 = |a|·t − E_ac + |b|·t − E_bc    (paw triangle edge at the tail)
    orbit  9 = P_c                            (paw triangle edge opposite tail)
    orbit 10 = E_ac + E_bc                    (diamond cycle edge)
    orbit 11 = C(t,2) − E_cc                  (diamond diagonal)
    orbit 12 = E_cc                           (clique edge)

The same per-edge statistics, kept *oriented* (which endpoint owns the ``a``
side), also yield all 4-node node orbits: each case fixes the role of both
endpoints, and summing role counts over a node's incident edges counts every
graphlet exactly ``r`` times, where ``r`` is the node's degree inside the
graphlet (fixed per orbit).  2- and 3-node node orbits come from degrees and
per-edge triangle counts.

**The statistics from sparse products.**  Following ORCA (Hočevar &
Demšar, Bioinformatics 2014), only the complete graphlet is enumerated; the
other statistics follow from linear relations over common-neighbour counts.
With ``A`` the 0/1 pattern of the adjacency (never its weights), ``d`` the
degrees, ``T = A∘A²`` (each edge's triangle count), ``tri(x) = ½·Σ_w T_xw``
(the edges inside ``N(x)``) and ``s = A·d`` (each node's sum of neighbour
degrees), an edge ``(u, v)`` has::

    t   = (A²)_uv
    Q   = (A³)_uv − d_u − d_v + 1     pairs w ∈ N(u)∖{v}, x ∈ N(v)∖{u}, w ~ x
    X_u = (T·A)_uv = Σ_{w∈c} t_uw     X_v = (T·A)_vu
    D_c = (A·diag(d)·A)_uv = Σ_{w∈c} d_w

and with ``K`` the number of edges among its common neighbours (its 4-clique
count, the one enumerated term)::

    na, nb      = d_u − 1 − t,  d_v − 1 − t
    e_cc        = K
    e_ac, e_bc  = X_u − t − 2K,  X_v − t − 2K
    e_aa, e_bb  = tri(u) − t − e_ac − K,  tri(v) − t − e_bc − K
    e_ab        = Q − e_ac − e_bc − 2K
    p_a         = s_u − d_v − D_c − na − 2·e_aa − e_ab − e_ac
    p_b         = s_v − d_u − D_c − nb − 2·e_bb − e_ab − e_bc
    p_c         = D_c − 2t − 2K − e_ac − e_bc

``K`` is counted with bitsets over the common-neighbour incidences alone:
each ``w ∈ c`` contributes ``popcount(N(w) & c)``, and the sum counts every
edge inside ``c`` twice.

**Memory.**  ``A²`` is held whole.  The length-3 products (``A³`` as
``A·A²``, ``T·A`` and ``A·diag(d)·A``) are computed in row blocks whose
estimated size stays within ``_CHUNK_BYTE_BUDGET``, and only their values at
the edges are kept.  ``K`` holds the bit-packed adjacency (``n²/8`` bytes)
plus, per chunk of edges, ``Σt·n/8`` bytes of incidence rows under the same
budget, where ``Σt`` is the chunk's number of common-neighbour incidences.
All arithmetic is int64 and exact, so counts are bit-identical to the
reference counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.attributed_graph import AttributedGraph
from repro.orbits.edge_orbits import EdgeOrbitCounts
from repro.orbits.graphlets import EDGE_ORBIT_COUNT, NODE_ORBIT_COUNT

#: Degree of a node inside its graphlet, per 4-node node orbit (4..14); the
#: multiplicity with which edge-incidence accumulation counts each graphlet.
_ROLE_MULTIPLICITY = np.array([1, 2, 1, 3, 2, 1, 2, 3, 2, 3, 3], dtype=np.int64)

#: ``_BIT_MASK[j]`` selects bit ``j`` of a byte in ``np.packbits`` big-endian
#: order.
_BIT_MASK = np.array([0x80 >> j for j in range(8)], dtype=np.uint8)

#: Per-chunk budget (bytes) for the row blocks of the length-3 products and
#: for the ``(incidences, n/8)`` bitset rows of the 4-clique term.
_CHUNK_BYTE_BUDGET = 64 * 1024 * 1024

#: Bytes one stored entry of a sparse product costs (int64 value + index).
_ENTRY_BYTES = 16


@dataclass
class EdgeStatistics:
    """Oriented per-edge neighbourhood statistics (one int64 array per field).

    For edge ``i`` with endpoints ``(u, v) = edges[i]`` (``u < v``): ``t`` is
    the common-neighbour count, ``na``/``nb`` the exclusive-neighbour counts
    of ``u``/``v``, ``e_xy`` the number of edges between the classes, and
    ``p_a``/``p_b``/``p_c`` the private-neighbour pair counts per class.
    """

    edges: List[Tuple[int, int]]
    t: np.ndarray
    na: np.ndarray
    nb: np.ndarray
    e_aa: np.ndarray
    e_bb: np.ndarray
    e_cc: np.ndarray
    e_ab: np.ndarray
    e_ac: np.ndarray
    e_bc: np.ndarray
    p_a: np.ndarray
    p_b: np.ndarray
    p_c: np.ndarray


_FIELD_NAMES = (
    "t", "na", "nb", "e_aa", "e_bb", "e_cc",
    "e_ab", "e_ac", "e_bc", "p_a", "p_b", "p_c",
)


def _pack_adjacency(n: int, rows: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Bit-pack the pattern of CSR ``rows``/``indices`` into ``(n, ⌈n/8⌉)`` uint8."""
    packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(packed, (rows, indices >> 3), _BIT_MASK[indices & 7])
    return packed


def _has_bit(packed: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Vectorized bit test: is bit ``cols[i]`` set in row ``rows[i]``?"""
    return (packed[rows, cols >> 3] & _BIT_MASK[cols & 7]) != 0


def _neighbour_incidences(
    nodes: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten the CSR neighbour lists of ``nodes``.

    Returns ``(flat_neighbours, owner)`` where ``owner[i]`` is the position in
    ``nodes`` whose neighbour list produced ``flat_neighbours[i]``.
    """
    counts = (indptr[nodes + 1] - indptr[nodes]).astype(np.int64)
    total = int(counts.sum())
    owner = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
    starts = np.repeat(indptr[nodes].astype(np.int64), counts)
    bases = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(bases, counts)
    return indices[starts + within].astype(np.int64), owner


def _chunk_boundaries(cost: np.ndarray, budget: int) -> List[Tuple[int, int]]:
    """Split ``range(len(cost))`` into spans whose ``cost`` sums stay in budget.

    Greedy and in order; a span always holds at least one item.
    """
    ends = np.cumsum(cost)
    spans = []
    start = 0
    while start < len(cost):
        base = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, base + budget, side="right"))
        stop = max(stop, start + 1)
        spans.append((start, stop))
        start = stop
    return spans


def _sample(matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``matrix[rows[i], cols[i]]`` as a flat array (no index sorting needed)."""
    return np.asarray(matrix[rows, cols]).ravel()


def compute_edge_statistics(graph: AttributedGraph) -> EdgeStatistics:
    """Compute every per-edge class statistic from sparse products."""
    adjacency = graph.adjacency
    if not adjacency.has_sorted_indices:
        adjacency = adjacency.sorted_indices()
    n = adjacency.shape[0]
    indptr, indices = adjacency.indptr, adjacency.indices
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    upper = np.flatnonzero(indices > rows)
    eu, ev = rows[upper], indices[upper].astype(np.int64)
    edges = list(zip(eu.tolist(), ev.tolist()))
    m = len(edges)
    if m == 0:
        fields = {name: np.zeros(0, dtype=np.int64) for name in _FIELD_NAMES}
        return EdgeStatistics(edges=edges, **fields)

    # Lower-triangle positions in column-major order: mirror[i] is the
    # position of (v, u) for the i-th upper-triangle edge (u, v).
    lower = np.flatnonzero(indices < rows)
    mirror = lower[np.argsort(indices[lower], kind="stable")]

    def shaped(values: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((values, indices, indptr), shape=(n, n))

    pattern = shaped(np.ones(indices.size, dtype=np.int64))
    degrees = np.diff(indptr).astype(np.int64)
    neighbour_degrees = pattern @ degrees                      # s = A·d
    scaled = shaped(degrees[rows])                             # diag(d)·A
    square = pattern @ pattern                                 # A²
    t = _sample(square, eu, ev)
    t_full = np.empty(indices.size, dtype=np.int64)
    t_full[upper] = t
    t_full[mirror] = t
    triangles = shaped(t_full)                                 # T = A∘A²
    inside = np.asarray(triangles.sum(axis=1)).ravel() // 2    # tri(x)

    # Row blocks of the length-3 products, sized by an upper bound on the
    # nnz of their rows (an A³ row, plus an A²-shaped row).
    square_row_nnz = np.diff(square.indptr).astype(np.int64)
    row_cost = _ENTRY_BYTES * (
        np.minimum(pattern @ square_row_nnz, n) + square_row_nnz
    )
    budget = max(int(row_cost.max()), _CHUNK_BYTE_BUDGET)
    first_edge = np.searchsorted(eu, np.arange(n + 1))
    cube = np.empty(m, dtype=np.int64)                         # (A³)_uv
    degree_sum = np.empty(m, dtype=np.int64)                   # D_c
    walks = np.empty(indices.size, dtype=np.int64)             # T·A at edges
    for r0, r1 in _chunk_boundaries(row_cost, budget):
        block = pattern[r0:r1]
        e0, e1 = first_edge[r0], first_edge[r1]
        local, cols = eu[e0:e1] - r0, ev[e0:e1]
        cube[e0:e1] = _sample(block @ square, local, cols)
        degree_sum[e0:e1] = _sample(block @ scaled, local, cols)
        p0, p1 = indptr[r0], indptr[r1]
        walks[p0:p1] = _sample(
            triangles[r0:r1] @ pattern, rows[p0:p1] - r0, indices[p0:p1]
        )

    e_cc = _four_clique_counts(rows, indptr, indices, eu, ev, t)
    d_u, d_v = degrees[eu], degrees[ev]
    na = d_u - 1 - t
    nb = d_v - 1 - t
    e_ac = walks[upper] - t - 2 * e_cc
    e_bc = walks[mirror] - t - 2 * e_cc
    e_aa = inside[eu] - t - e_ac - e_cc
    e_bb = inside[ev] - t - e_bc - e_cc
    e_ab = (cube - d_u - d_v + 1) - e_ac - e_bc - 2 * e_cc
    return EdgeStatistics(
        edges=edges,
        t=t, na=na, nb=nb,
        e_aa=e_aa, e_bb=e_bb, e_cc=e_cc,
        e_ab=e_ab, e_ac=e_ac, e_bc=e_bc,
        p_a=neighbour_degrees[eu] - d_v - degree_sum - na - 2 * e_aa - e_ab - e_ac,
        p_b=neighbour_degrees[ev] - d_u - degree_sum - nb - 2 * e_bb - e_ab - e_bc,
        p_c=degree_sum - 2 * t - 2 * e_cc - e_ac - e_bc,
    )


def _four_clique_counts(
    rows: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    eu: np.ndarray,
    ev: np.ndarray,
    t: np.ndarray,
) -> np.ndarray:
    """K per edge: the edges among its common neighbours, by bitset popcounts."""
    counts = np.zeros(eu.size, dtype=np.int64)
    candidates = np.flatnonzero(t >= 2)  # fewer than two common neighbours: K = 0
    if candidates.size == 0:
        return counts
    degrees = np.diff(indptr)
    packed = _pack_adjacency(degrees.size, rows, indices)
    width = packed.shape[1]

    cost = t[candidates] * width
    budget = max(int(cost.max()), _CHUNK_BYTE_BUDGET)
    for start, stop in _chunk_boundaries(cost, budget):
        chunk = candidates[start:stop]
        u, v = eu[chunk], ev[chunk]
        # Walk the shorter neighbour list; keep the nodes the other end has.
        shorter = degrees[u] <= degrees[v]
        walk, other = np.where(shorter, u, v), np.where(shorter, v, u)
        common, owner = _neighbour_incidences(walk, indptr, indices)
        keep = _has_bit(packed, other[owner], common)
        common, owner = common[keep], owner[keep]

        mask = packed[u]
        mask &= packed[v]
        bits = packed[common]
        bits &= mask[owner]
        per_incidence = np.bitwise_count(bits, out=bits).sum(axis=1, dtype=np.int64)
        # bincount's float64 accumulation is exact: every partial sum is an
        # integer far below 2**53.  Each inside edge is seen from both ends.
        counts[chunk] = np.bincount(
            owner, weights=per_incidence, minlength=chunk.size
        ).astype(np.int64) // 2
    return counts


def edge_orbits_from_statistics(stats: EdgeStatistics) -> EdgeOrbitCounts:
    """Assemble the 13 per-edge orbit counts from the class statistics."""
    m = len(stats.edges)
    counts = np.zeros((m, EDGE_ORBIT_COUNT), dtype=np.int64)
    if m == 0:
        return EdgeOrbitCounts(edges=stats.edges, counts=counts)
    t, na, nb = stats.t, stats.na, stats.nb
    counts[:, 0] = 1
    counts[:, 1] = na + nb
    counts[:, 2] = t
    counts[:, 3] = stats.p_a + stats.p_b
    counts[:, 4] = na * nb - stats.e_ab
    counts[:, 5] = na * (na - 1) // 2 - stats.e_aa + nb * (nb - 1) // 2 - stats.e_bb
    counts[:, 6] = stats.e_ab
    counts[:, 7] = stats.e_aa + stats.e_bb
    counts[:, 8] = (na + nb) * t - stats.e_ac - stats.e_bc
    counts[:, 9] = stats.p_c
    counts[:, 10] = stats.e_ac + stats.e_bc
    counts[:, 11] = t * (t - 1) // 2 - stats.e_cc
    counts[:, 12] = stats.e_cc
    return EdgeOrbitCounts(edges=stats.edges, counts=counts)


def node_orbits_from_statistics(
    stats: EdgeStatistics, degrees: np.ndarray
) -> np.ndarray:
    """Assemble the ``(n, 15)`` graphlet degree vectors from the statistics."""
    n = degrees.shape[0]
    degrees = degrees.astype(np.int64)
    gdv = np.zeros((n, NODE_ORBIT_COUNT), dtype=np.int64)
    gdv[:, 0] = degrees
    if not stats.edges:
        return gdv

    edge_array = np.asarray(stats.edges, dtype=np.int64)
    eu, ev = edge_array[:, 0], edge_array[:, 1]
    t, na, nb = stats.t, stats.na, stats.nb

    # 3-node orbits: triangles per node (each triangle is seen by two of a
    # node's incident edges), wedge ends, wedge centres.
    triangle_halves = np.zeros(n, dtype=np.int64)
    np.add.at(triangle_halves, eu, t)
    np.add.at(triangle_halves, ev, t)
    triangles = triangle_halves // 2
    wedge_ends = np.zeros(n, dtype=np.int64)
    np.add.at(wedge_ends, eu, degrees[ev] - 1 - t)
    np.add.at(wedge_ends, ev, degrees[eu] - 1 - t)
    gdv[:, 1] = wedge_ends
    gdv[:, 2] = degrees * (degrees - 1) // 2 - triangles
    gdv[:, 3] = triangles

    # 4-node orbits: per-edge role counts, oriented.  Case names follow the
    # module docstring; ``_u`` marks the count in which u owns the exclusive
    # (`a`) side.
    star_u = na * (na - 1) // 2 - stats.e_aa    # star centred at u, v a leaf
    star_v = nb * (nb - 1) // 2 - stats.e_bb
    chain_mid = na * nb - stats.e_ab            # 3-edge chain, (u,v) middle
    paw_att_u = na * t - stats.e_ac             # paw, tail attached at u
    paw_att_v = nb * t - stats.e_bc
    diamond_u = stats.e_ac                      # diamond, u the degree-3 end
    diamond_v = stats.e_bc
    diamond_diag = t * (t - 1) // 2 - stats.e_cc

    contrib_u = np.stack(
        [
            stats.p_b,                          # 4  chain end
            chain_mid + stats.p_a,              # 5  chain middle
            star_v,                             # 6  star leaf
            star_u,                             # 7  star centre
            stats.e_ab,                         # 8  cycle
            stats.e_bb,                         # 9  paw pendant
            paw_att_v + stats.p_c,              # 10 paw far-triangle
            stats.e_aa + paw_att_u,             # 11 paw attachment
            stats.e_bc,                         # 12 diamond degree-2
            diamond_u + diamond_diag,           # 13 diamond degree-3
            stats.e_cc,                         # 14 clique
        ],
        axis=1,
    )
    contrib_v = np.stack(
        [
            stats.p_a,
            chain_mid + stats.p_b,
            star_u,
            star_v,
            stats.e_ab,
            stats.e_aa,
            paw_att_u + stats.p_c,
            stats.e_bb + paw_att_v,
            stats.e_ac,
            diamond_v + diamond_diag,
            stats.e_cc,
        ],
        axis=1,
    )
    accumulator = np.zeros((n, _ROLE_MULTIPLICITY.shape[0]), dtype=np.int64)
    np.add.at(accumulator, eu, contrib_u)
    np.add.at(accumulator, ev, contrib_v)
    gdv[:, 4:] = accumulator // _ROLE_MULTIPLICITY
    return gdv


def count_edge_orbits_numpy(graph: AttributedGraph) -> EdgeOrbitCounts:
    """Vectorized edge-orbit counts, bit-identical to the reference counter."""
    return edge_orbits_from_statistics(compute_edge_statistics(graph))


def count_node_orbits_numpy(graph: AttributedGraph) -> np.ndarray:
    """Vectorized node-orbit counts, bit-identical to the reference counter."""
    return node_orbits_from_statistics(compute_edge_statistics(graph), graph.degrees)


__all__ = [
    "EdgeStatistics",
    "compute_edge_statistics",
    "edge_orbits_from_statistics",
    "node_orbits_from_statistics",
    "count_edge_orbits_numpy",
    "count_node_orbits_numpy",
]
