"""Orbit-weighted encoding (paper §IV-B).

This module builds, for one graph, the family of propagation matrices the
shared GCN encoder aggregates over — one per topology *view*:

* ``orbit`` mode: the modified, normalised graphlet-orbit Laplacians
  ``~L_k`` built from the GOMs (Eq. 1-3),
* ``adjacency`` mode: the single classic GCN Laplacian (the low-order
  ablation),
* ``diffusion`` mode: PPR diffusion matrices of increasing order (the HTC-DT
  ablation).

It also provides the forward encoding helper that runs the shared encoder on
every view and returns per-view embeddings (Eq. 4-5).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.core.config import HTCConfig
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.diffusion import diffusion_matrix_family
from repro.graph.laplacian import normalized_laplacian, orbit_laplacian
from repro.nn.gcn import encode
from repro.nn.layers import SharedGCNEncoder
from repro.orbits.cache import resolve_cache
from repro.orbits.edge_orbits import EdgeOrbitCounts
from repro.orbits.engine import count_edge_orbits
from repro.orbits.orbit_matrix import build_orbit_matrices


def build_topology_views(
    graph: AttributedGraph,
    config: HTCConfig,
    orbit_counts: Optional[EdgeOrbitCounts] = None,
) -> Dict[int, sp.csr_matrix]:
    """Return the propagation matrices (views) of ``graph`` keyed by view id.

    In ``orbit`` mode the keys are the orbit ids of ``config.resolved_orbits``;
    in ``adjacency`` mode there is a single view with key 0; in ``diffusion``
    mode keys are the diffusion orders' positions.
    """
    if config.topology_mode == "adjacency":
        return {0: normalized_laplacian(graph.adjacency)}

    if config.topology_mode == "diffusion":
        family = diffusion_matrix_family(
            graph, orders=list(config.diffusion_orders), alpha=config.diffusion_alpha
        )
        return {index: orbit_laplacian(matrix) for index, matrix in enumerate(family)}

    # "orbit" mode.
    orbits = config.resolved_orbits
    matrices = build_orbit_matrices(
        graph, orbits=orbits, weighted=config.weighted_orbits, counts=orbit_counts
    )
    return {orbit: orbit_laplacian(matrix) for orbit, matrix in zip(orbits, matrices)}


def count_orbits_if_needed(
    graph: AttributedGraph, config: HTCConfig
) -> Optional[EdgeOrbitCounts]:
    """Run edge-orbit counting only when the configuration requires it.

    Per-graph memoisation is taken from the config's ``orbit_cache`` field,
    so repeated alignments of the same graph (robustness and
    hyper-parameter sweeps) skip the stage.
    """
    if config.topology_mode != "orbit":
        return None
    return count_edge_orbits(graph, cache=resolve_cache(config.orbit_cache))


def make_encoder(in_features: int, config: HTCConfig) -> SharedGCNEncoder:
    """Instantiate the shared GCN encoder described by ``config``."""
    activations = [config.activation] * (config.n_layers - 1) + ["identity"]
    return SharedGCNEncoder(
        in_features=in_features,
        hidden_dims=config.hidden_dims,
        activations=activations,
        random_state=config.random_state,
    )


def encode_views(
    encoder: SharedGCNEncoder,
    views: Dict[int, sp.csr_matrix],
    attributes: np.ndarray,
) -> Dict[int, np.ndarray]:
    """Forward-encode ``attributes`` through every topology view (no gradients).

    Returns the final-layer embedding per view id, as plain numpy arrays,
    from the encoder's forward-only explicit pass.
    """
    return {
        view_id: encode(encoder, laplacian, attributes)
        for view_id, laplacian in views.items()
    }


__all__ = [
    "build_topology_views",
    "count_orbits_if_needed",
    "make_encoder",
    "encode_views",
]
