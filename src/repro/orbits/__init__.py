"""Graphlet and orbit counting substrate.

The paper defines higher-order topological consistency on *edge orbits* of the
nine connected graphlets with 2–4 nodes (13 edge orbits in total, Fig. 4).
This package provides:

* :mod:`repro.orbits.graphlets` — the graphlet catalogue: templates, names,
  node-orbit and edge-orbit labellings,
* :mod:`repro.orbits.engine` — the counting engine (``python``/``numpy``
  backend selection + content-hash caching); the package-level
  ``count_edge_orbits`` and ``count_node_orbits`` are its entry points,
* :mod:`repro.orbits.edge_orbits` — the pure-Python combinatorial edge-orbit
  counter (the role Orca plays in the paper), kept as the exact reference
  oracle behind the ``"python"`` backend,
* :mod:`repro.orbits.vectorized` — the sparse-product/closed-form numpy
  counters behind the ``"numpy"`` backend,
* :mod:`repro.orbits.cache` — content-hash-keyed orbit caching (memory and
  on-disk),
* :mod:`repro.orbits.brute_force` — an independent reference counter based on
  induced-subgraph enumeration and template isomorphism, used in tests,
* :mod:`repro.orbits.node_orbits` — pure-Python node graphlet-degree-vector
  counting (the ``"python"`` node backend),
* :mod:`repro.orbits.orbit_matrix` — Graphlet Orbit Matrix (GOM) construction
  (Eq. 1), weighted or binary.
"""

from repro.orbits.cache import OrbitCache, graph_content_hash, resolve_cache
from repro.orbits.edge_orbits import EdgeOrbitCounts
from repro.orbits.engine import (
    available_backends,
    count_edge_orbits,
    count_node_orbits,
    graphlet_degree_vectors,
    resolve_backend,
)
from repro.orbits.graphlets import (
    EDGE_ORBIT_COUNT,
    EDGE_ORBIT_NAMES,
    GRAPHLET_NAMES,
    NODE_ORBIT_COUNT,
    graphlet_templates,
)
from repro.orbits.orbit_matrix import build_orbit_matrices

__all__ = [
    "EDGE_ORBIT_COUNT",
    "NODE_ORBIT_COUNT",
    "EDGE_ORBIT_NAMES",
    "GRAPHLET_NAMES",
    "graphlet_templates",
    "count_edge_orbits",
    "count_node_orbits",
    "graphlet_degree_vectors",
    "EdgeOrbitCounts",
    "OrbitCache",
    "graph_content_hash",
    "resolve_cache",
    "available_backends",
    "resolve_backend",
    "build_orbit_matrices",
]
