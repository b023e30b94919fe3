"""Loop-shaped orbit counting — the ``"numba"`` engine backend.

The vectorized backend (:mod:`repro.orbits.vectorized`) derives per-edge
class statistics from whole-graph sparse products; this module computes the
*same* statistics with a flat scan over the CSR arrays, written in the
restricted subset of Python that ``numba.njit`` compiles to native code.
The kernel marks each surrounding node of an edge ``(u, v)`` with its class
(``a``/``b``/``c``, per the partition documented in ``vectorized.py``) in a
stamp array, then walks every surrounding node's neighbour list once —
``O(e · D²)`` like Orca, but without interpreter overhead once compiled.

Orbit assembly is **shared** with the numpy backend: the kernel fills an
:class:`~repro.orbits.vectorized.EdgeStatistics` and the closed-form
``edge_orbits_from_statistics`` / ``node_orbits_from_statistics`` functions
do the rest, so the two backends cannot drift — they differ only in how the
integer statistics are produced, and all arithmetic is exact int64.

numba is optional.  Availability is probed lazily via
``importlib.util.find_spec`` (the module is never imported just to answer
"is it there?"), and the kernel runs uncompiled as plain Python when numba
is absent — slower, but bit-identical, which is what the cross-validation
tests exercise on numba-less interpreters.
"""

from __future__ import annotations

import importlib.util
from typing import Callable, Optional

import numpy as np

from repro.graph.attributed_graph import AttributedGraph
from repro.orbits.edge_orbits import EdgeOrbitCounts
from repro.orbits.vectorized import (
    EdgeStatistics,
    edge_orbits_from_statistics,
    node_orbits_from_statistics,
)

#: Registry name of this backend (kind ``"orbit"``).
JIT_BACKEND_NAME = "numba"

_NUMBA_SPEC_CHECKED = False
_NUMBA_PRESENT = False


def numba_available() -> bool:
    """Whether numba is importable — probed once, without importing it."""
    global _NUMBA_SPEC_CHECKED, _NUMBA_PRESENT
    if not _NUMBA_SPEC_CHECKED:
        try:
            _NUMBA_PRESENT = importlib.util.find_spec("numba") is not None
        except (ImportError, ValueError):  # pragma: no cover - broken meta_path
            _NUMBA_PRESENT = False
        _NUMBA_SPEC_CHECKED = True
    return _NUMBA_PRESENT


def _edge_statistics_kernel(
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    eu: np.ndarray,
    ev: np.ndarray,
    n_nodes: int,
) -> np.ndarray:
    """Per-edge class statistics, one flat pass per edge.

    Returns an ``(m, 12)`` int64 array with columns
    ``t, na, nb, e_aa, e_bb, e_cc, e_ab, e_ac, e_bc, p_a, p_b, p_c``
    matching :class:`EdgeStatistics` field order.  Written njit-compatible:
    arrays only, no Python containers.
    """
    m = eu.shape[0]
    stats = np.zeros((m, 12), dtype=np.int64)
    # stamp[w] == i marks w as surrounding edge i; cls gives its class.
    stamp = np.full(n_nodes, -1, dtype=np.int64)
    cls = np.zeros(n_nodes, dtype=np.int8)
    for i in range(m):
        u = eu[i]
        v = ev[i]
        for p in range(indptr[u], indptr[u + 1]):
            w = indices[p]
            if w != v:
                stamp[w] = i
                cls[w] = 0  # class a until v's list proves otherwise
        for p in range(indptr[v], indptr[v + 1]):
            w = indices[p]
            if w == u:
                continue
            if stamp[w] == i:
                cls[w] = 2  # class c: adjacent to both endpoints
            else:
                stamp[w] = i
                cls[w] = 1  # class b
        t = np.int64(0)
        na = np.int64(0)
        nb = np.int64(0)
        e_aa = np.int64(0)
        e_bb = np.int64(0)
        e_cc = np.int64(0)
        e_ab = np.int64(0)
        e_ac = np.int64(0)
        e_bc = np.int64(0)
        p_a = np.int64(0)
        p_b = np.int64(0)
        p_c = np.int64(0)
        # Walk each surrounding node once: u's list covers classes a and c,
        # v's list covers class b (its class-c entries are duplicates).
        for p in range(indptr[u], indptr[u + 1]):
            w = indices[p]
            if w == v:
                continue
            ca = np.int64(0)
            cb = np.int64(0)
            cc = np.int64(0)
            links = np.int64(0)
            for q in range(indptr[w], indptr[w + 1]):
                x = indices[q]
                if x == u or x == v:
                    links += 1
                elif stamp[x] == i:
                    cx = cls[x]
                    if cx == 0:
                        ca += 1
                    elif cx == 1:
                        cb += 1
                    else:
                        cc += 1
            private = degrees[w] - ca - cb - cc - links
            if cls[w] == 0:
                na += 1
                e_aa += ca
                e_ab += cb
                e_ac += cc
                p_a += private
            else:  # class c
                t += 1
                e_cc += cc
                p_c += private
        for p in range(indptr[v], indptr[v + 1]):
            w = indices[p]
            if w == u or cls[w] == 2:
                continue
            ca = np.int64(0)
            cb = np.int64(0)
            cc = np.int64(0)
            links = np.int64(0)
            for q in range(indptr[w], indptr[w + 1]):
                x = indices[q]
                if x == u or x == v:
                    links += 1
                elif stamp[x] == i:
                    cx = cls[x]
                    if cx == 0:
                        ca += 1
                    elif cx == 1:
                        cb += 1
                    else:
                        cc += 1
            private = degrees[w] - ca - cb - cc - links
            nb += 1
            e_bb += cb
            e_bc += cc
            p_b += private
        stats[i, 0] = t
        stats[i, 1] = na
        stats[i, 2] = nb
        stats[i, 3] = e_aa // 2  # within-class walks count both ends
        stats[i, 4] = e_bb // 2
        stats[i, 5] = e_cc // 2
        stats[i, 6] = e_ab
        stats[i, 7] = e_ac
        stats[i, 8] = e_bc
        stats[i, 9] = p_a
        stats[i, 10] = p_b
        stats[i, 11] = p_c
    return stats


_KERNEL: Optional[Callable] = None


def _kernel() -> Callable:
    """The statistics kernel — njit-compiled when numba is present."""
    global _KERNEL
    if _KERNEL is None:
        function = _edge_statistics_kernel
        if numba_available():
            import numba

            function = numba.njit(cache=True, nogil=True)(function)
        _KERNEL = function
    return _KERNEL


def compute_edge_statistics_jit(graph: AttributedGraph) -> EdgeStatistics:
    """Per-edge class statistics via the loop kernel (numba when present)."""
    adjacency = graph.adjacency
    edges = graph.edge_list()
    if not edges:
        zero = np.zeros(0, dtype=np.int64)
        return EdgeStatistics(
            edges=edges,
            t=zero, na=zero.copy(), nb=zero.copy(),
            e_aa=zero.copy(), e_bb=zero.copy(), e_cc=zero.copy(),
            e_ab=zero.copy(), e_ac=zero.copy(), e_bc=zero.copy(),
            p_a=zero.copy(), p_b=zero.copy(), p_c=zero.copy(),
        )
    edge_array = np.asarray(edges, dtype=np.int64)
    stats = _kernel()(
        adjacency.indptr.astype(np.int64),
        adjacency.indices.astype(np.int64),
        graph.degrees.astype(np.int64),
        np.ascontiguousarray(edge_array[:, 0]),
        np.ascontiguousarray(edge_array[:, 1]),
        graph.n_nodes,
    )
    return EdgeStatistics(
        edges=edges,
        t=stats[:, 0], na=stats[:, 1], nb=stats[:, 2],
        e_aa=stats[:, 3], e_bb=stats[:, 4], e_cc=stats[:, 5],
        e_ab=stats[:, 6], e_ac=stats[:, 7], e_bc=stats[:, 8],
        p_a=stats[:, 9], p_b=stats[:, 10], p_c=stats[:, 11],
    )


def count_edge_orbits_jit(graph: AttributedGraph) -> EdgeOrbitCounts:
    """JIT edge-orbit counts, bit-identical to the numpy/python backends."""
    return edge_orbits_from_statistics(compute_edge_statistics_jit(graph))


def count_node_orbits_jit(graph: AttributedGraph) -> np.ndarray:
    """JIT node-orbit counts, bit-identical to the numpy/python backends."""
    return node_orbits_from_statistics(
        compute_edge_statistics_jit(graph), graph.degrees
    )


__all__ = [
    "JIT_BACKEND_NAME",
    "numba_available",
    "compute_edge_statistics_jit",
    "count_edge_orbits_jit",
    "count_node_orbits_jit",
]
