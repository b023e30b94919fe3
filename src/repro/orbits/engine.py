"""Pluggable orbit-counting engine: backend selection + caching.

This is the single entry point the rest of the system uses for orbit
counting.  Two backends are registered out of the box:

* ``"python"`` — the original pure-Python counters
  (:mod:`repro.orbits.edge_orbits`, :mod:`repro.orbits.node_orbits`), kept as
  the exact reference oracle,
* ``"numpy"`` — the vectorized counters (:mod:`repro.orbits.vectorized`):
  per-edge statistics from whole-graph sparse products and closed-form
  identities, with only the 4-clique term enumerated; bit-identical and
  one to two orders of magnitude faster (see
  ``benchmarks/bench_orbit_counting.py``),
* ``"numba"`` — the JIT loop kernel (:mod:`repro.orbits.jit`), registered
  with a lazy availability probe so it only resolves when numba is
  importable; bit-identical by construction (it shares the closed-form
  orbit assembly with the numpy backend).

Backend selection lives in the shared :mod:`repro.backend` registry (kind
``"orbit"``): this module registers its counters there and the
``available_backends`` / ``resolve_backend`` / ``register_backend``
functions below are thin views over that registry, kept for backward
compatibility with PR-1-era callers (``HTCConfig.orbit_backend`` resolves
through the same path).

``backend="auto"`` (the default) resolves to the fastest available backend.
Passing a :class:`repro.orbits.cache.OrbitCache` (or a cache spec via
``HTCConfig.orbit_cache``) memoises results by graph content hash, so
repeated alignments of the same graph — robustness sweeps, hyper-parameter
sweeps, repeated benchmark runs — skip the counting stage entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.backend.registry import AUTO_BACKEND, BackendRegistry, get_registry
from repro.graph.attributed_graph import AttributedGraph
from repro.orbits import edge_orbits as _edge_reference
from repro.orbits import jit as _jit
from repro.orbits import node_orbits as _node_reference
from repro.orbits import vectorized as _vectorized
from repro.orbits.cache import OrbitCache, graph_content_hash
from repro.orbits.edge_orbits import EdgeOrbitCounts

#: Registry kind the orbit counters live under in :mod:`repro.backend`.
ORBIT_KIND = "orbit"

#: The vectorized backend needs ``np.bitwise_count`` (NumPy >= 2.0); on older
#: NumPy it is registered as unavailable and ``"auto"`` falls back to the
#: reference implementation.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


@dataclass(frozen=True)
class OrbitBackend:
    """One orbit-counting implementation: paired edge and node counters."""

    name: str
    count_edge_orbits: Callable[[AttributedGraph], EdgeOrbitCounts]
    count_node_orbits: Callable[[AttributedGraph], np.ndarray]


def orbit_registry() -> BackendRegistry:
    """The shared ``"orbit"`` registry, with the built-ins registered.

    Each built-in is (re-)registered individually if missing, so an
    ``unregister`` of one (e.g. a test tearing down a fake) can never take
    the other down with it for the rest of the process.
    """
    registry = get_registry(ORBIT_KIND)
    if "python" not in registry.names():
        registry.register(
            "python",
            OrbitBackend(
                name="python",
                count_edge_orbits=_edge_reference.count_edge_orbits,
                count_node_orbits=_node_reference.count_node_orbits,
            ),
            priority=0,
        )
    if "numpy" not in registry.names():
        registry.register(
            "numpy",
            OrbitBackend(
                name="numpy",
                count_edge_orbits=_vectorized.count_edge_orbits_numpy,
                count_node_orbits=_vectorized.count_node_orbits_numpy,
            ),
            priority=10,
            available=_HAS_BITWISE_COUNT,
        )
    if "numba" not in registry.names():
        registry.register(
            "numba",
            OrbitBackend(
                name="numba",
                count_edge_orbits=_jit.count_edge_orbits_jit,
                count_node_orbits=_jit.count_node_orbits_jit,
            ),
            priority=20,
            available=_jit.numba_available,
        )
    return registry


#: The spelled-out backend the ``"auto"`` alias resolves to.
DEFAULT_BACKEND = orbit_registry().default()

#: Backends proven bit-identical; only these share cache records.  Externally
#: registered backends get backend-qualified cache keys so an approximate
#: counter can never serve (or be served) another backend's results.
_VERIFIED_BACKENDS = frozenset(("python", "numpy", "numba"))


def _cache_key(graph: AttributedGraph, backend: str) -> str:
    key = graph_content_hash(graph)
    if backend not in _VERIFIED_BACKENDS:
        key = f"{key}:{backend}"
    return key


def available_backends() -> Tuple[str, ...]:
    """Registered backend names (without the ``"auto"`` alias)."""
    return orbit_registry().available()


def resolve_backend(backend: str) -> str:
    """Normalise a backend name, resolving ``"auto"`` to the default."""
    return orbit_registry().resolve(backend)


def register_backend(
    name: str,
    edge_counter: Callable[[AttributedGraph], EdgeOrbitCounts],
    node_counter: Callable[[AttributedGraph], np.ndarray],
    *,
    priority: int = 0,
) -> None:
    """Register an additional orbit-counting backend (e.g. a C extension)."""
    orbit_registry().register(
        name,
        OrbitBackend(
            name=name,
            count_edge_orbits=edge_counter,
            count_node_orbits=node_counter,
        ),
        priority=priority,
    )


def _get(backend: str) -> OrbitBackend:
    implementation = orbit_registry().get(backend)
    if not isinstance(implementation, OrbitBackend):
        raise TypeError(
            f"orbit backend {backend!r} is not an OrbitBackend "
            f"(got {type(implementation).__name__}); register orbit counters "
            "via repro.orbits.engine.register_backend"
        )
    return implementation


def count_edge_orbits(
    graph: AttributedGraph,
    backend: str = AUTO_BACKEND,
    cache: Optional[OrbitCache] = None,
) -> EdgeOrbitCounts:
    """Per-edge counts on all 13 edge orbits, via ``backend``, memoised.

    Backends are bit-identical, so cached results are shared across them.
    """
    backend = resolve_backend(backend)
    if cache is None:
        return _get(backend).count_edge_orbits(graph)
    key = _cache_key(graph, backend)
    cached = cache.get_edge_orbits(key)
    if cached is not None:
        return cached
    counts = _get(backend).count_edge_orbits(graph)
    cache.put_edge_orbits(key, counts)
    return counts


def count_node_orbits(
    graph: AttributedGraph,
    backend: str = AUTO_BACKEND,
    cache: Optional[OrbitCache] = None,
) -> np.ndarray:
    """The ``(n_nodes, 15)`` node-orbit (GDV) matrix, via ``backend``, memoised."""
    backend = resolve_backend(backend)
    if cache is None:
        return _get(backend).count_node_orbits(graph)
    key = _cache_key(graph, backend)
    cached = cache.get_node_orbits(key)
    if cached is not None:
        return cached
    gdv = _get(backend).count_node_orbits(graph)
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
    "ORBIT_KIND",
    "OrbitBackend",
    "orbit_registry",
    "available_backends",
    "resolve_backend",
    "register_backend",
    "count_edge_orbits",
    "count_node_orbits",
    "graphlet_degree_vectors",
]
