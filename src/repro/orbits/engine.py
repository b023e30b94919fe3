"""Orbit-counting engine: backend selection + caching.

This is the single entry point the rest of the system uses for orbit
counting.  It holds two backends:

* ``"python"`` — the original pure-Python counters
  (:mod:`repro.orbits.edge_orbits`, :mod:`repro.orbits.node_orbits`), kept as
  the exact reference oracle and as the fallback on NumPy < 2.0,
* ``"numpy"`` — the vectorized counters (:mod:`repro.orbits.vectorized`):
  per-edge statistics from whole-graph sparse products and closed-form
  identities, with only the 4-clique term enumerated; bit-identical and
  one to two orders of magnitude faster (see
  ``benchmarks/bench_orbit_counting.py``).  It needs ``np.bitwise_count``
  (NumPy >= 2.0).

``backend="auto"`` (the default) resolves to ``numpy`` where it can run and
to ``python`` otherwise.  Passing a :class:`repro.orbits.cache.OrbitCache`
(or a cache spec via ``HTCConfig.orbit_cache``) memoises results by graph
content hash, so repeated alignments of the same graph — robustness sweeps,
hyper-parameter sweeps, repeated benchmark runs — skip the counting stage
entirely.  Both backends are bit-identical, so they share cache records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.backend.executor import AUTO_BACKEND
from repro.graph.attributed_graph import AttributedGraph
from repro.orbits import edge_orbits as _edge_reference
from repro.orbits import node_orbits as _node_reference
from repro.orbits import vectorized as _vectorized
from repro.orbits.cache import OrbitCache, graph_content_hash
from repro.orbits.edge_orbits import EdgeOrbitCounts

#: The vectorized backend needs ``np.bitwise_count`` (NumPy >= 2.0); on older
#: NumPy ``"auto"`` falls back to the reference implementation.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


@dataclass(frozen=True)
class OrbitBackend:
    """One orbit-counting implementation: paired edge and node counters."""

    name: str
    count_edge_orbits: Callable[[AttributedGraph], EdgeOrbitCounts]
    count_node_orbits: Callable[[AttributedGraph], np.ndarray]


_BACKENDS: Dict[str, OrbitBackend] = {
    "python": OrbitBackend(
        name="python",
        count_edge_orbits=_edge_reference.count_edge_orbits,
        count_node_orbits=_node_reference.count_node_orbits,
    ),
    "numpy": OrbitBackend(
        name="numpy",
        count_edge_orbits=_vectorized.count_edge_orbits_numpy,
        count_node_orbits=_vectorized.count_node_orbits_numpy,
    ),
}


def available_backends() -> Tuple[str, ...]:
    """Usable backend names, sorted (without the ``"auto"`` alias)."""
    if _HAS_BITWISE_COUNT:
        return tuple(sorted(_BACKENDS))
    return ("python",)


def resolve_backend(backend: str) -> str:
    """Normalise a backend name, resolving ``"auto"`` to the default."""
    if backend == AUTO_BACKEND:
        return "numpy" if _HAS_BITWISE_COUNT else "python"
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown orbit backend {backend!r}; expected '{AUTO_BACKEND}' "
            f"or one of {available_backends()}"
        )
    if backend not in available_backends():
        raise ValueError(
            f"orbit backend {backend!r} needs NumPy >= 2.0 (np.bitwise_count); "
            f"this is NumPy {np.__version__}, available: {available_backends()}"
        )
    return backend


#: The spelled-out backend the ``"auto"`` alias resolves to.
DEFAULT_BACKEND = resolve_backend(AUTO_BACKEND)


def count_edge_orbits(
    graph: AttributedGraph,
    backend: str = AUTO_BACKEND,
    cache: Optional[OrbitCache] = None,
) -> EdgeOrbitCounts:
    """Per-edge counts on all 13 edge orbits, via ``backend``, memoised.

    Backends are bit-identical, so cached results are shared across them.
    """
    counter = _BACKENDS[resolve_backend(backend)].count_edge_orbits
    if cache is None:
        return counter(graph)
    key = graph_content_hash(graph)
    cached = cache.get_edge_orbits(key)
    if cached is not None:
        return cached
    counts = counter(graph)
    cache.put_edge_orbits(key, counts)
    return counts


def count_node_orbits(
    graph: AttributedGraph,
    backend: str = AUTO_BACKEND,
    cache: Optional[OrbitCache] = None,
) -> np.ndarray:
    """The ``(n_nodes, 15)`` node-orbit (GDV) matrix, via ``backend``, memoised."""
    counter = _BACKENDS[resolve_backend(backend)].count_node_orbits
    if cache is None:
        return counter(graph)
    key = graph_content_hash(graph)
    cached = cache.get_node_orbits(key)
    if cached is not None:
        return cached
    gdv = counter(graph)
    cache.put_node_orbits(key, gdv)
    return gdv


def graphlet_degree_vectors(
    graph: AttributedGraph,
    backend: str = AUTO_BACKEND,
    cache: Optional[OrbitCache] = None,
    log_scale: bool = True,
) -> np.ndarray:
    """Node features from GDVs, optionally log-scaled (``log(1 + count)``)."""
    gdv = count_node_orbits(graph, backend=backend, cache=cache).astype(np.float64)
    if log_scale:
        gdv = np.log1p(gdv)
    return gdv


__all__ = [
    "AUTO_BACKEND",
    "DEFAULT_BACKEND",
    "OrbitBackend",
    "available_backends",
    "resolve_backend",
    "count_edge_orbits",
    "count_node_orbits",
    "graphlet_degree_vectors",
]
