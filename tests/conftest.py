"""Shared fixtures for the test suite.

Expensive fixtures (trained aligners, larger pairs) are session-scoped so the
whole suite stays fast while still exercising the full pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import shm
from repro.core import HTCAligner, HTCConfig
from repro.datasets.synthetic import tiny_pair
from repro.graph.builders import from_edge_list

from _helpers import openblas_thread_counts


@pytest.fixture
def restore_openblas_threads():
    """Put back this process's OpenBLAS thread counts after a test sets them."""
    before = openblas_thread_counts()
    yield
    for set_threads, count in zip(shm._openblas_functions("set_num_threads"), before):
        set_threads(count)


@pytest.fixture
def triangle_graph():
    """A single triangle (3 nodes, 3 edges)."""
    return from_edge_list([(0, 1), (1, 2), (0, 2)], n_nodes=3, name="triangle")


@pytest.fixture
def path_graph():
    """A 4-node path 0-1-2-3."""
    return from_edge_list([(0, 1), (1, 2), (2, 3)], n_nodes=4, name="path4")


@pytest.fixture
def star_graph():
    """A star with centre 0 and three leaves."""
    return from_edge_list([(0, 1), (0, 2), (0, 3)], n_nodes=4, name="star")


@pytest.fixture
def clique_graph():
    """The complete graph K4."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return from_edge_list(edges, n_nodes=4, name="k4")


@pytest.fixture
def paw_graph():
    """A tailed triangle: triangle {0,1,2} plus tail edge (2,3)."""
    return from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3)], n_nodes=4, name="paw")


@pytest.fixture
def diamond_graph():
    """A diagonal quadrangle: C4 0-1-2-3 plus chord (1,3)."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    return from_edge_list(edges, n_nodes=4, name="diamond")


@pytest.fixture
def figure5_graph():
    """The illustrative 5-node graph of the paper's Fig. 5.

    Nodes a=0, b=1, c=2, d=3, e=4 with edges a-b, b-c, c-d, c-e, d-e.
    """
    edges = [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)]
    return from_edge_list(edges, n_nodes=5, name="figure5")


@pytest.fixture
def attributed_graph():
    """A small attributed graph with 2-dimensional features."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    attrs = np.array(
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]], dtype=np.float64
    )
    return from_edge_list(edges, n_nodes=4, attributes=attrs, name="attributed")


@pytest.fixture(scope="session")
def small_pair():
    """A small self-alignment pair with light noise (40 nodes)."""
    return tiny_pair(n_nodes=40, random_state=0, noise=0.05)


@pytest.fixture(scope="session")
def clean_pair():
    """A noise-free permuted pair: every consistency assumption holds exactly."""
    return tiny_pair(n_nodes=30, random_state=1, noise=0.0)


@pytest.fixture(scope="session")
def fast_config():
    """An HTC configuration small enough for unit tests."""
    return HTCConfig(
        epochs=15,
        embedding_dim=16,
        orbits=range(5),
        n_neighbors=5,
        random_state=0,
    )


@pytest.fixture(scope="session")
def trained_result(small_pair, fast_config):
    """A full HTC alignment result on the small pair (computed once)."""
    return HTCAligner(fast_config).align(small_pair)
