"""Graphlet and orbit counting substrate.

The paper defines higher-order topological consistency on *edge orbits* of the
nine connected graphlets with 2–4 nodes (13 edge orbits in total, Fig. 4).
This package provides:

* :mod:`repro.orbits.graphlets` — the graphlet catalogue: templates, names,
  node-orbit and edge-orbit labellings,
* :mod:`repro.orbits.engine` — the counting engine (one exact counter +
  content-hash caching); the package-level ``count_edge_orbits`` and
  ``count_node_orbits`` are its entry points,
* :mod:`repro.orbits.vectorized` — the sparse-product/closed-form numpy
  counters the engine runs (the role Orca plays in the paper); they need
  NumPy >= 2.0,
* :mod:`repro.orbits.edge_orbits` — the pure-Python combinatorial edge-orbit
  counter, kept as the exact reference oracle and as the engine's counter
  on NumPy < 2.0,
* :mod:`repro.orbits.cache` — content-hash-keyed orbit caching (memory and
  on-disk),
* :mod:`repro.orbits.brute_force` — an independent reference counter based on
  induced-subgraph enumeration and template isomorphism, used in tests,
* :mod:`repro.orbits.node_orbits` — pure-Python node graphlet-degree-vector
  counting (the node-orbit reference, and the engine's on NumPy < 2.0),
* :mod:`repro.orbits.orbit_matrix` — Graphlet Orbit Matrix (GOM) construction
  (Eq. 1), weighted or binary.
"""

from repro.orbits.cache import OrbitCache, graph_content_hash, resolve_cache
from repro.orbits.edge_orbits import EdgeOrbitCounts
from repro.orbits.engine import (
    count_edge_orbits,
    count_node_orbits,
    graphlet_degree_vectors,
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
    "build_orbit_matrices",
]
