"""Tests for node-orbit (GDV) counting."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builders import from_networkx
from repro.orbits.brute_force import brute_force_node_orbits
from repro.orbits.graphlets import NODE_ORBIT_COUNT
from repro.orbits.engine import graphlet_degree_vectors
from repro.orbits.node_orbits import count_node_orbits


class TestCanonicalGraphlets:
    def test_triangle(self, triangle_graph):
        counts = count_node_orbits(triangle_graph)
        for node in range(3):
            assert counts[node, 0] == 2  # degree
            assert counts[node, 3] == 1  # one triangle
            assert counts[node, 1] == 0 and counts[node, 2] == 0

    def test_path4(self, path_graph):
        counts = count_node_orbits(path_graph)
        # End nodes: orbit 4 (path end); middle nodes: orbit 5.
        assert counts[0, 4] == 1 and counts[0, 5] == 0
        assert counts[1, 5] == 1 and counts[1, 4] == 0
        # Two-edge chain orbits.
        assert counts[0, 1] == 1  # end of one 2-chain
        assert counts[1, 2] == 1  # middle of one 2-chain

    def test_star(self, star_graph):
        counts = count_node_orbits(star_graph)
        assert counts[0, 7] == 1  # centre
        for leaf in (1, 2, 3):
            assert counts[leaf, 6] == 1
        assert counts[0, 2] == 3  # centre of three 2-chains

    def test_clique(self, clique_graph):
        counts = count_node_orbits(clique_graph)
        for node in range(4):
            assert counts[node, 14] == 1
            assert counts[node, 3] == 3  # each node in 3 triangles

    def test_paw(self, paw_graph):
        counts = count_node_orbits(paw_graph)
        assert counts[3, 9] == 1  # pendant
        assert counts[2, 11] == 1  # attachment node
        assert counts[0, 10] == 1 and counts[1, 10] == 1

    def test_diamond(self, diamond_graph):
        counts = count_node_orbits(diamond_graph)
        assert counts[1, 13] == 1 and counts[3, 13] == 1  # degree-3 nodes
        assert counts[0, 12] == 1 and counts[2, 12] == 1


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs(self, seed):
        nx_graph = nx.gnp_random_graph(12, 0.3, seed=seed)
        graph = from_networkx(nx_graph)
        np.testing.assert_array_equal(
            count_node_orbits(graph), brute_force_node_orbits(graph)
        )

    def test_tree(self):
        graph = from_networkx(nx.balanced_tree(2, 3))
        np.testing.assert_array_equal(
            count_node_orbits(graph), brute_force_node_orbits(graph)
        )

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_graphs_property(self, seed):
        nx_graph = nx.gnp_random_graph(10, 0.35, seed=seed)
        graph = from_networkx(nx_graph)
        np.testing.assert_array_equal(
            count_node_orbits(graph), brute_force_node_orbits(graph)
        )


class TestAggregateIdentities:
    @pytest.mark.parametrize("seed", range(3))
    def test_orbit0_is_degree(self, seed):
        graph = from_networkx(nx.gnp_random_graph(15, 0.3, seed=seed))
        counts = count_node_orbits(graph)
        np.testing.assert_array_equal(counts[:, 0], graph.degrees)

    @pytest.mark.parametrize("seed", range(3))
    def test_triangle_orbit_sums(self, seed):
        nx_graph = nx.gnp_random_graph(15, 0.3, seed=seed)
        graph = from_networkx(nx_graph)
        counts = count_node_orbits(graph)
        np.testing.assert_array_equal(
            counts[:, 3], [nx.triangles(nx_graph, node) for node in range(15)]
        )

    def test_shape(self, figure5_graph):
        assert count_node_orbits(figure5_graph).shape == (5, NODE_ORBIT_COUNT)


class TestGraphletDegreeVectors:
    def test_log_scale(self, clique_graph):
        raw = graphlet_degree_vectors(clique_graph, log_scale=False)
        logged = graphlet_degree_vectors(clique_graph, log_scale=True)
        np.testing.assert_allclose(logged, np.log1p(raw))

    def test_dtype_is_float(self, triangle_graph):
        assert graphlet_degree_vectors(triangle_graph).dtype == np.float64
