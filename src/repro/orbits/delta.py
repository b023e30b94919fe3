"""Delta orbit recounting for edge append/remove batches.

A 4-node graphlet containing node ``n`` lives entirely inside ``n``'s 2-hop
neighbourhood, so adding or removing one edge ``(u, v)`` can only change the
graphlet degree vectors of nodes within two hops of ``u`` or ``v``.  This
module exploits that locality with *graphlet-transition accounting*: for one
changed edge it enumerates, in closed form, every connected node set
``S ⊇ {u, v}`` with ``|S| ≤ 4`` and applies the orbit-role difference
between the subgraph with and without the edge to the GDV rows of the nodes
in ``S`` — ``O(Σ_{w∈N(u)∪N(v)} deg(w))`` per changed edge instead of a full
``O(e·D²)`` recount.

The accounting reuses the class partition of :mod:`repro.orbits.vectorized`
(``a``/``b``/``c`` by adjacency to the endpoints): the *with-edge* role
counts are exactly the per-edge statistics identities of the numpy backend,
and the *without-edge* roles follow from reclassifying each case after
dropping ``(u, v)`` (a paw becomes a star, a diamond a tailed triangle, a
4-cycle a chain, ...).  All arithmetic is exact int64 addition/subtraction,
so the patched matrix is **bit-identical** to a from-scratch recount — the
delta-vs-full invariant is gated in ``benchmarks/bench_orbit_counting.py``.

Batches are applied sequentially (removals first, then additions), with the
adjacency state updated edge by edge, which keeps the accounting exact for
arbitrarily overlapping neighbourhoods.  The result can be keyed straight
into the content-hash orbit cache under the *mutated* graph's hash, where a
later from-scratch count of the same graph will find (and agree with) it.

Edge orbits are per-edge records whose index set changes with the edge list,
so they are not patched incrementally here; mutated graphs fall back to a
full edge-orbit recount through the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp

from repro.backend.executor import AUTO_BACKEND
from repro.graph.attributed_graph import AttributedGraph
from repro.orbits.cache import OrbitCache, graph_content_hash
from repro.orbits.graphlets import NODE_ORBIT_COUNT

Edge = Tuple[int, int]


@dataclass(frozen=True)
class DeltaRecount:
    """The outcome of one delta recount.

    Attributes
    ----------
    graph:
        The mutated graph (same attributes/name, updated adjacency).
    node_orbits:
        The patched ``(n, 15)`` int64 GDV matrix — bit-identical to a
        from-scratch recount of ``graph``.
    touched:
        Sorted node ids whose rows the delta pass rewrote (all within two
        hops of a changed edge; a superset of the rows that changed value).
    n_added / n_removed:
        Edges applied from the batch.
    """

    graph: AttributedGraph
    node_orbits: np.ndarray
    touched: np.ndarray
    n_added: int
    n_removed: int


def _normalize_edges(edges: Iterable[Sequence[int]], n_nodes: int) -> List[Edge]:
    """Validate and canonicalise ``(u, v)`` pairs (``u < v``, in range)."""
    out: List[Edge] = []
    for pair in edges:
        u, v = int(pair[0]), int(pair[1])
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not a valid edge")
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise ValueError(
                f"edge ({u}, {v}) out of range for a {n_nodes}-node graph"
            )
        out.append((u, v) if u < v else (v, u))
    return out


@dataclass
class _Transitions:
    """GDV increments of one batch phase, recorded per edge, applied at once.

    Each toggled edge changes whole rows for its endpoints and surrounding
    nodes (``rows``/``values``) and one fixed column pair for the private
    neighbours of its surrounding nodes.  Recording reads only the
    adjacency state, never the matrix, so a phase's edges can all be
    recorded first and summed into the matrix afterwards; integer addition
    makes that exact.
    """

    rows: List[int] = field(default_factory=list)
    values: List[int] = field(default_factory=list)  # 15 per row, flat
    chain_ends: List[int] = field(default_factory=list)  # +1 in column 4
    paw_ends: List[int] = field(default_factory=list)  # +1 in 9, -1 in 6

    def add_to(self, gdv: np.ndarray, sign: int, reached: np.ndarray) -> None:
        """Add ``sign`` times the increments to ``gdv``; mark their rows."""
        width = gdv.shape[1]
        rows = np.array(self.rows, dtype=np.int64)
        chain = np.array(self.chain_ends, dtype=np.int64)
        paw = np.array(self.paw_ends, dtype=np.int64)
        cells = np.concatenate([
            (rows[:, None] * width + np.arange(width)).ravel(),
            chain * width + 4,
            paw * width + 9,
            paw * width + 6,
        ])
        increments = np.concatenate([
            np.fromiter(self.values, dtype=np.int64, count=len(self.values)),
            np.ones(chain.size + paw.size, dtype=np.int64),
            np.full(paw.size, -1, dtype=np.int64),
        ])
        np.add.at(gdv.reshape(-1), cells, sign * increments)
        reached[rows] = True
        reached[chain] = True
        reached[paw] = True


def _record_edge_transition(adj: dict, u: int, v: int, out: _Transitions) -> None:
    """Record the GDV transition of adding edge ``(u, v)`` into ``out``.

    ``adj`` must be the adjacency state *without* the edge, with sets for
    the batch endpoints (see :func:`_batch_adjacency`).  A removal is the
    same set of graphlet differences mirrored, so the caller subtracts its
    transitions instead of adding them.
    """
    nu, nv = adj[u], adj[v]
    common = nu & nv
    only_u = nu - nv  # class a
    only_v = nv - nu  # class b
    t, na, nb = len(common), len(only_u), len(only_v)
    beyond = nu | nv | {u, v}  # a partner outside this set is private
    rows, values = out.rows, out.values
    chain_ends, paw_ends = out.chain_ends, out.paw_ends
    in_a, in_b = only_u.intersection, only_v.intersection

    # Surrounding nodes.  |S| = 3: a class-a/b node gains a wedge end; a
    # common neighbour's wedge (centred on it) becomes a triangle.  |S| = 4:
    # each surrounding node w is walked once, counting its partners by
    # class; each (class(w), class(x), w~x) case is one fixed
    # with-edge/without-edge role pair (see the case table in the docstring
    # of repro/orbits/vectorized.py for the with-edge halves).
    e_aa2 = e_bb2 = e_cc2 = 0  # both-end sums, halved below
    e_ab = e_ac = e_bc = 0
    p_a = p_b = p_c = 0
    for w in only_u:  # w adjacent to u only
        nw = adj[w]
        ca = len(in_a(nw))
        cb = len(in_b(nw))
        private = [x for x in nw if x not in beyond]
        p = len(private)
        cc = len(nw) - 1 - ca - cb - p  # the rest, less the link to u
        rows.append(w)
        values += (
            0, 1, 0, 0, nb - cb - (t - cc), p - cb, na - 1 - ca, 0,
            cb, t - cc, ca - cc, 0, cc, 0, 0,
        )
        chain_ends += private
        e_aa2 += ca
        e_ab += cb
        e_ac += cc
        p_a += p
    for w in only_v:  # w adjacent to v only (mirror of class a)
        nw = adj[w]
        ca = len(in_a(nw))
        cb = len(in_b(nw))
        private = [x for x in nw if x not in beyond]
        p = len(private)
        cc = len(nw) - 1 - ca - cb - p  # the rest, less the link to v
        rows.append(w)
        values += (
            0, 1, 0, 0, na - ca - (t - cc), p - ca, nb - 1 - cb, 0,
            ca, t - cc, cb - cc, 0, cc, 0, 0,
        )
        chain_ends += private
        e_bb2 += cb
        e_bc += cc
        p_b += p
    for w in common:  # w adjacent to both endpoints
        nw = adj[w]
        ca = len(in_a(nw))
        cb = len(in_b(nw))
        private = [x for x in nw if x not in beyond]
        p = len(private)
        cc = len(nw) - 2 - ca - cb - p  # the rest, less the links to u and v
        exclusive = na - ca + nb - cb
        rows.append(w)
        values += (
            0, 0, -1, 1, 0, -exclusive, 0, -p, -(t - 1 - cc), 0,
            exclusive, p - (ca + cb), t - 1 - cc, ca + cb - cc, cc,
        )
        paw_ends += private
        e_cc2 += cc
        p_c += p

    e_aa, e_bb, e_cc = e_aa2 // 2, e_bb2 // 2, e_cc2 // 2
    star_u = na * (na - 1) // 2 - e_aa
    star_v = nb * (nb - 1) // 2 - e_bb
    chain_mid = na * nb - e_ab
    paw_u = na * t - e_ac  # paw with the tail attached at u
    paw_v = nb * t - e_bc
    diag = t * (t - 1) // 2 - e_cc

    # The endpoints: |S| = 2 (the edge itself), |S| = 3 (wedges gained,
    # triangles closed) and |S| = 4, columns 0..14.
    rows += (u, v)
    values += (
        1, nb - t, na, t,
        p_b - e_ab - paw_v, chain_mid + p_a - paw_u, star_v - p_c, star_u,
        e_ab - diag, e_bb - e_bc, paw_v + p_c - e_ac, e_aa + paw_u,
        e_bc - e_cc, e_ac + diag, e_cc,
    )
    values += (
        1, na - t, nb, t,
        p_a - e_ab - paw_u, chain_mid + p_b - paw_v, star_u - p_c, star_v,
        e_ab - diag, e_aa - e_ac, paw_u + p_c - e_bc, e_bb + paw_v,
        e_ac - e_cc, e_bc + diag, e_cc,
    )


def _batch_adjacency(graph: AttributedGraph, endpoints: Set[int]) -> dict:
    """The neighbours a batch reads: sets for its endpoints, lists otherwise.

    A toggled edge reads the neighbourhoods of its endpoints and of their
    neighbours.  Toggling changes only the endpoints' rows, so every other
    node keeps its CSR row (a list) for the whole batch; the endpoints get
    fresh sets, free to mutate.
    """
    indptr = graph.adjacency.indptr.tolist()
    indices = graph.adjacency.indices.tolist()
    adj: dict = {
        node: set(indices[indptr[node]:indptr[node + 1]]) for node in endpoints
    }
    for node in set().union(*adj.values()) - endpoints:
        adj[node] = indices[indptr[node]:indptr[node + 1]]
    return adj


def _mutated_graph(
    graph: AttributedGraph, removals: List[Edge], additions: List[Edge]
) -> AttributedGraph:
    """Rebuild the graph after the batch, straight from the original CSR.

    The batch was validated sequentially (removals first), so the final
    edge set is ``(original − removals) ∪ additions``.  The adjacency is
    treated as binary — mutated graphs carry unit edge weights, matching
    every builder in :mod:`repro.graph.generators`.
    """
    adjacency = graph.adjacency
    n = graph.n_nodes

    def keys(pairs: List[Edge]) -> np.ndarray:
        """Row-major positions ``u·n + v`` of both directions of ``pairs``."""
        array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return np.concatenate(
            [array[:, 0] * n + array[:, 1], array[:, 1] * n + array[:, 0]]
        )

    positions = np.repeat(
        np.arange(n, dtype=np.int64) * n, np.diff(adjacency.indptr)
    ) + adjacency.indices
    if additions:
        positions = np.concatenate([positions, keys(additions)])
    positions.sort()
    if removals:
        # Each removed edge is present once, or twice when re-added later in
        # the batch; deleting the first occurrence is right in both cases.
        positions = np.delete(positions, np.searchsorted(positions, keys(removals)))
    rows, cols = np.divmod(positions, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    matrix = sp.csr_matrix(
        (np.ones(positions.size, dtype=np.float64), cols, indptr), shape=(n, n)
    )
    return AttributedGraph._from_validated_csr(
        matrix, graph.attributes, graph.name
    )


def apply_edge_batch(
    graph: AttributedGraph,
    add_edges: Iterable[Sequence[int]] = (),
    remove_edges: Iterable[Sequence[int]] = (),
) -> AttributedGraph:
    """The mutated graph after one removal/addition batch (no recounting)."""
    return delta_count_node_orbits(
        graph,
        add_edges=add_edges,
        remove_edges=remove_edges,
        node_orbits=np.zeros((graph.n_nodes, NODE_ORBIT_COUNT), dtype=np.int64),
    ).graph


def delta_count_node_orbits(
    graph: AttributedGraph,
    add_edges: Iterable[Sequence[int]] = (),
    remove_edges: Iterable[Sequence[int]] = (),
    *,
    node_orbits: Optional[np.ndarray] = None,
    backend: str = AUTO_BACKEND,
    cache: Optional[OrbitCache] = None,
) -> DeltaRecount:
    """Patch the GDV matrix of ``graph`` through an edge mutation batch.

    Removals are applied before additions, each edge sequentially.  The
    base matrix comes from ``node_orbits`` if given, else from ``cache``
    (keyed by the unmutated graph's content hash), else from a from-scratch
    count via the engine.  When a cache is passed, the patched matrix is
    stored under the *mutated* graph's content hash, so later counts of the
    mutated graph are cache hits that compare bit-identically.

    Raises :class:`ValueError` for self-loops, out-of-range endpoints,
    removing an absent edge or adding a present one (relative to the state
    the batch has reached when that edge is applied).
    """
    n = graph.n_nodes
    removals = _normalize_edges(remove_edges, n)
    additions = _normalize_edges(add_edges, n)

    base = node_orbits
    if base is None and cache is not None:
        base = cache.get_node_orbits(graph_content_hash(graph))
    if base is None:
        from repro.orbits import engine

        base = engine.count_node_orbits(graph, backend=backend, cache=cache)
    base = np.asarray(base, dtype=np.int64)
    if base.shape != (n, NODE_ORBIT_COUNT):
        raise ValueError(
            f"node_orbits has shape {base.shape}, expected "
            f"({n}, {NODE_ORBIT_COUNT})"
        )
    endpoints = {node for edge in removals + additions for node in edge}
    adj = _batch_adjacency(graph, endpoints)
    removed, added = _Transitions(), _Transitions()
    for u, v in removals:
        if v not in adj[u]:
            raise ValueError(f"cannot remove absent edge ({u}, {v})")
        adj[u].discard(v)
        adj[v].discard(u)
        _record_edge_transition(adj, u, v, removed)
    for u, v in additions:
        if v in adj[u]:
            raise ValueError(f"cannot add already-present edge ({u}, {v})")
        _record_edge_transition(adj, u, v, added)
        adj[u].add(v)
        adj[v].add(u)

    gdv = base.copy()
    reached = np.zeros(n, dtype=bool)
    removed.add_to(gdv, -1, reached)
    added.add_to(gdv, 1, reached)
    mutated = _mutated_graph(graph, removals, additions)
    if cache is not None:
        cache.put_node_orbits(graph_content_hash(mutated), gdv)
    return DeltaRecount(
        graph=mutated,
        node_orbits=gdv,
        touched=np.flatnonzero(reached),
        n_added=len(additions),
        n_removed=len(removals),
    )


__all__ = [
    "DeltaRecount",
    "apply_edge_batch",
    "delta_count_node_orbits",
]
