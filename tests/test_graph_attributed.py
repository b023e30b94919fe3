"""Tests for repro.graph.attributed_graph."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builders import from_edge_list
from repro.graph.generators import erdos_renyi_graph

from _helpers import lexsorted_edges


class TestConstruction:
    def test_basic_shape(self, triangle_graph):
        assert triangle_graph.n_nodes == 3
        assert triangle_graph.n_edges == 3

    def test_default_attributes_are_constant_column(self, triangle_graph):
        assert triangle_graph.attributes.shape == (3, 1)
        np.testing.assert_array_equal(triangle_graph.attributes, np.ones((3, 1)))

    def test_self_loops_removed(self):
        adjacency = np.array([[1.0, 1.0], [1.0, 1.0]])
        graph = AttributedGraph(adjacency)
        assert graph.adjacency.diagonal().sum() == 0
        assert graph.n_edges == 1

    def test_asymmetric_input_symmetrized(self):
        adjacency = np.array([[0.0, 1.0], [0.0, 0.0]])
        graph = AttributedGraph(adjacency)
        assert graph.has_edge(1, 0)

    def test_asymmetric_rejected_when_not_symmetrizing(self):
        adjacency = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            AttributedGraph(adjacency, ensure_symmetric=False)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            AttributedGraph(np.zeros((2, 3)))

    def test_attribute_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AttributedGraph(np.zeros((3, 3)), attributes=np.zeros((2, 4)))

    def test_attribute_1d_rejected(self):
        with pytest.raises(ValueError):
            AttributedGraph(np.zeros((3, 3)), attributes=np.zeros(3))


class TestAccessors:
    def test_degrees(self, star_graph):
        np.testing.assert_array_equal(star_graph.degrees, [3, 1, 1, 1])

    def test_average_degree(self, star_graph):
        assert star_graph.average_degree == pytest.approx(1.5)

    def test_neighbors_sorted(self, star_graph):
        np.testing.assert_array_equal(star_graph.neighbors(0), [1, 2, 3])

    def test_neighbors_out_of_range(self, star_graph):
        with pytest.raises(IndexError):
            star_graph.neighbors(10)

    def test_has_edge(self, path_graph):
        assert path_graph.has_edge(0, 1)
        assert path_graph.has_edge(1, 0)
        assert not path_graph.has_edge(0, 3)
        assert not path_graph.has_edge(0, 99)

    def test_edge_list_ordered(self, path_graph):
        assert path_graph.edge_list() == [(0, 1), (1, 2), (2, 3)]

    def test_adjacency_sets(self, triangle_graph):
        sets = triangle_graph.adjacency_sets()
        assert sets[0] == {1, 2}
        assert sets[1] == {0, 2}

    def test_n_attributes(self, attributed_graph):
        assert attributed_graph.n_attributes == 2


class TestDerivedGraphs:
    def test_subgraph_relabels(self, path_graph):
        sub = path_graph.subgraph(np.array([1, 2, 3]))
        assert sub.n_nodes == 3
        assert sub.edge_list() == [(0, 1), (1, 2)]

    def test_subgraph_keeps_attributes(self, attributed_graph):
        sub = attributed_graph.subgraph(np.array([0, 2]))
        np.testing.assert_array_equal(sub.attributes, attributed_graph.attributes[[0, 2]])

    def test_with_attributes(self, triangle_graph):
        new_attrs = np.arange(6, dtype=float).reshape(3, 2)
        replaced = triangle_graph.with_attributes(new_attrs)
        np.testing.assert_array_equal(replaced.attributes, new_attrs)
        assert replaced.n_edges == triangle_graph.n_edges

    def test_copy_is_independent(self, triangle_graph):
        copy = triangle_graph.copy()
        copy.attributes[0, 0] = 99.0
        assert triangle_graph.attributes[0, 0] != 99.0

    def test_equality(self, triangle_graph):
        assert triangle_graph == triangle_graph.copy()
        assert triangle_graph != from_edge_list([(0, 1)], n_nodes=3)

    def test_repr_mentions_size(self, triangle_graph):
        assert "n_nodes=3" in repr(triangle_graph)


class TestEmptyAndEdgeCases:
    def test_empty_graph(self):
        graph = AttributedGraph(sp.csr_matrix((4, 4)))
        assert graph.n_edges == 0
        assert graph.edge_list() == []
        assert graph.average_degree == 0.0

    def test_isolated_nodes_have_empty_neighbourhood(self):
        graph = from_edge_list([(0, 1)], n_nodes=4)
        assert graph.neighbors(3).size == 0


class TestEdgeListOracle:
    """``edge_list``/``edges`` equal the per-edge lexsort generator."""

    @staticmethod
    def _assert_matches_oracle(graph):
        expected = list(lexsorted_edges(graph))
        edges = graph.edge_list()
        assert edges == expected
        assert list(graph.edges()) == expected
        assert all(type(u) is int and type(v) is int for u, v in edges)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs(self, seed):
        graph = erdos_renyi_graph(30 + 20 * seed, 1.0 + 2 * seed, random_state=seed)
        self._assert_matches_oracle(graph)

    def test_weighted_graph(self):
        rng = np.random.default_rng(0)
        dense = np.triu(rng.uniform(0.5, 3.0, (40, 40)) * (rng.random((40, 40)) < 0.2), 1)
        graph = AttributedGraph(dense + dense.T)
        assert graph.n_edges > 0
        self._assert_matches_oracle(graph)

    def test_empty_and_single_node_graphs(self):
        self._assert_matches_oracle(AttributedGraph(sp.csr_matrix((4, 4))))
        self._assert_matches_oracle(AttributedGraph(np.zeros((1, 1))))

    def test_unsorted_csr_indices(self):
        # A trusted CSR whose rows list their columns out of order.
        matrix = sp.csr_matrix(
            (np.ones(6), np.array([2, 1, 2, 0, 1, 0]), np.array([0, 2, 4, 6])),
            shape=(3, 3),
        )
        assert not matrix.has_sorted_indices
        graph = AttributedGraph._from_validated_csr(matrix, np.ones((3, 1)), "g")
        self._assert_matches_oracle(graph)
