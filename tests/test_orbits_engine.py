"""Tests for the orbit-counting engine: backend equivalence and selection.

The central property: the ``"numpy"`` backend must be *bit-identical* to the
``"python"`` reference on every graph, including disconnected and
triangle-free edge cases.  The cross-validation sweep covers 50+ random
ER/BA-style graphs spanning sparse (disconnected), dense, and clustered
regimes, plus deterministic structured graphs.
"""

import tracemalloc

import networkx as nx
import numpy as np
import pytest

from repro.graph.builders import from_edge_list, from_networkx
from repro.graph.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.orbits import engine, vectorized
from repro.orbits.brute_force import brute_force_edge_orbits, brute_force_node_orbits
from repro.orbits.cache import OrbitCache
from repro.orbits.edge_orbits import EdgeOrbitCounts
from repro.orbits.graphlets import EDGE_ORBIT_COUNT, NODE_ORBIT_COUNT

from _helpers import orbit_stress_graphs

# The vectorized backend needs numpy >= 2.0 (np.bitwise_count); the whole
# module is about cross-validating it against the reference.
pytestmark = pytest.mark.skipif(
    "numpy" not in engine.available_backends(),
    reason="vectorized orbit backend unavailable (numpy < 2.0)",
)


def _assert_backends_identical(graph):
    reference = engine.count_edge_orbits(graph, backend="python")
    fast = engine.count_edge_orbits(graph, backend="numpy")
    assert reference.edges == fast.edges
    np.testing.assert_array_equal(reference.counts, fast.counts)
    assert fast.counts.dtype == np.int64

    reference_gdv = engine.count_node_orbits(graph, backend="python")
    fast_gdv = engine.count_node_orbits(graph, backend="numpy")
    np.testing.assert_array_equal(reference_gdv, fast_gdv)
    assert fast_gdv.dtype == np.int64


class TestCrossValidation:
    """numpy backend == python backend, bit for bit."""

    # 30 ER graphs sweeping density from sub-critical (many components,
    # almost no triangles) to dense, plus 20 power-law cluster (BA-style)
    # graphs with heavy triangle density: 50 random graphs total.
    @pytest.mark.parametrize("seed", range(30))
    def test_erdos_renyi(self, seed):
        graph = erdos_renyi_graph(
            20 + 2 * seed, 0.5 + 0.25 * seed, random_state=seed
        )
        _assert_backends_identical(graph)

    @pytest.mark.parametrize("seed", range(20))
    def test_powerlaw_cluster(self, seed):
        graph = powerlaw_cluster_graph(
            15 + 2 * seed, 2 + seed % 3, 0.7, random_state=seed
        )
        _assert_backends_identical(graph)

    @pytest.mark.parametrize(
        "fixture_name",
        ["triangle_graph", "path_graph", "star_graph", "clique_graph",
         "paw_graph", "diamond_graph", "figure5_graph"],
    )
    def test_structured_fixtures(self, fixture_name, request):
        _assert_backends_identical(request.getfixturevalue(fixture_name))

    def test_triangle_free_bipartite(self):
        graph = from_networkx(nx.complete_bipartite_graph(4, 5))
        fast = engine.count_edge_orbits(graph, backend="numpy")
        assert fast.orbit_total(2) == 0  # no triangle edges
        _assert_backends_identical(graph)

    def test_tree(self):
        graph = from_networkx(nx.random_labeled_tree(24, seed=3))
        _assert_backends_identical(graph)

    def test_disconnected_components(self):
        # Two separate triangles plus two isolated nodes.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        graph = from_edge_list(edges, n_nodes=8)
        _assert_backends_identical(graph)
        gdv = engine.count_node_orbits(graph, backend="numpy")
        np.testing.assert_array_equal(gdv[6], np.zeros(NODE_ORBIT_COUNT))

    def test_empty_graph(self):
        graph = from_edge_list([], n_nodes=5)
        fast = engine.count_edge_orbits(graph, backend="numpy")
        assert fast.n_edges == 0
        assert fast.counts.shape == (0, EDGE_ORBIT_COUNT)
        _assert_backends_identical(graph)

    def test_single_edge(self):
        _assert_backends_identical(from_edge_list([(0, 1)], n_nodes=2))

    def test_weighted_adjacency(self):
        # Counts depend on the adjacency pattern, never on its weights.
        graph = orbit_stress_graphs()["weighted"]
        assert len(np.unique(graph.adjacency.data)) > 1
        _assert_backends_identical(graph)

    def test_dense_erdos_renyi(self):
        graph = orbit_stress_graphs()["dense_er"]
        assert graph.average_degree >= graph.n_nodes / 2
        _assert_backends_identical(graph)

    def test_complete_graph_k12(self):
        graph = orbit_stress_graphs()["k12"]
        _assert_backends_identical(graph)
        fast = engine.count_edge_orbits(graph, backend="numpy")
        # Every edge of K12 lies in C(10, 2) = 45 four-cliques, nothing else.
        np.testing.assert_array_equal(fast.counts[:, 12], 45)

    def test_matches_brute_force(self):
        graph = erdos_renyi_graph(14, 3.5, random_state=11)
        fast = engine.count_edge_orbits(graph, backend="numpy")
        brute = brute_force_edge_orbits(graph)
        assert fast.edges == brute.edges
        np.testing.assert_array_equal(fast.counts, brute.counts)
        np.testing.assert_array_equal(
            engine.count_node_orbits(graph, backend="numpy"),
            brute_force_node_orbits(graph),
        )


STATISTIC_FIELDS = (
    "t", "na", "nb", "e_aa", "e_bb", "e_cc",
    "e_ab", "e_ac", "e_bc", "p_a", "p_b", "p_c",
)


class TestChunking:
    """Chunked products and 4-clique passes equal a single-chunk run."""

    def test_forced_chunks_match_single_chunk(self, monkeypatch):
        graph = powerlaw_cluster_graph(80, 6, 0.7, random_state=4)
        spans = []
        boundaries = vectorized._chunk_boundaries

        def recording(cost, budget):
            result = boundaries(cost, budget)
            spans.append(len(result))
            return result

        monkeypatch.setattr(vectorized, "_chunk_boundaries", recording)
        monkeypatch.setattr(vectorized, "_CHUNK_BYTE_BUDGET", 1 << 62)
        single = vectorized.compute_edge_statistics(graph)
        # One call for the product row blocks, one for the 4-clique edges.
        assert spans == [1, 1]

        spans.clear()
        monkeypatch.setattr(vectorized, "_CHUNK_BYTE_BUDGET", 1)
        chunked = vectorized.compute_edge_statistics(graph)
        assert len(spans) == 2 and min(spans) >= 3
        assert chunked.edges == single.edges
        for name in STATISTIC_FIELDS:
            np.testing.assert_array_equal(
                getattr(chunked, name), getattr(single, name), err_msg=name
            )

    def test_chunk_boundaries_are_greedy(self):
        cost = np.array([5, 5, 5, 5, 30, 1])
        assert vectorized._chunk_boundaries(cost, 10) == [
            (0, 2), (2, 4), (4, 5), (5, 6),
        ]
        assert vectorized._chunk_boundaries(cost, 100) == [(0, 6)]
        assert vectorized._chunk_boundaries(np.array([], dtype=np.int64), 10) == []


def test_counting_peak_memory_is_bounded():
    # Bitset temporaries that grow with Σ(d_u+d_v)·n/8 reach about 200 MB here.
    graph = powerlaw_cluster_graph(400, 25, 0.6, random_state=0)
    tracemalloc.start()
    try:
        engine.count_edge_orbits(graph, backend="numpy")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


class TestBackendSelection:
    def test_auto_resolves_to_default(self):
        assert engine.resolve_backend("auto") == engine.DEFAULT_BACKEND

    def test_explicit_backends_resolve_to_themselves(self):
        for name in engine.available_backends():
            assert engine.resolve_backend(name) == name

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown orbit backend"):
            engine.resolve_backend("fortran")
        graph = from_edge_list([(0, 1)], n_nodes=2)
        with pytest.raises(ValueError):
            engine.count_edge_orbits(graph, backend="fortran")

    def test_available_backends(self):
        assert set(engine.available_backends()) >= {"python", "numpy"}

    def test_register_backend(self):
        def fake_edge(graph):
            return EdgeOrbitCounts(
                edges=graph.edge_list(),
                counts=np.zeros((graph.n_edges, EDGE_ORBIT_COUNT), dtype=np.int64),
            )

        def fake_node(graph):
            return np.zeros((graph.n_nodes, NODE_ORBIT_COUNT), dtype=np.int64)

        engine.register_backend("fake", fake_edge, fake_node)
        try:
            graph = from_edge_list([(0, 1), (1, 2)], n_nodes=3)
            counts = engine.count_edge_orbits(graph, backend="fake")
            assert counts.counts.sum() == 0
            assert "fake" in engine.available_backends()
            # Unverified backends never share cache records with verified
            # ones: the fake backend's zeros must not be served from (or
            # leak into) the python backend's entry.
            cache = OrbitCache()
            reference = engine.count_edge_orbits(graph, backend="python", cache=cache)
            assert reference.counts.sum() > 0
            assert engine.count_edge_orbits(graph, backend="fake", cache=cache).counts.sum() == 0
            assert engine.count_edge_orbits(graph, backend="python", cache=cache).counts.sum() > 0
        finally:
            engine.orbit_registry().unregister("fake")

    def test_register_auto_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            engine.register_backend("auto", None, None)

    def test_package_level_exports(self):
        from repro.orbits import count_edge_orbits, count_node_orbits

        graph = from_edge_list([(0, 1), (1, 2), (0, 2)], n_nodes=3)
        counts = count_edge_orbits(graph, backend="numpy")
        assert counts.orbit_total(2) == 3
        gdv = count_node_orbits(graph, backend="numpy")
        np.testing.assert_array_equal(gdv[:, 3], [1, 1, 1])


class TestGraphletDegreeVectors:
    def test_log_scale_matches_reference(self):
        graph = erdos_renyi_graph(25, 4.0, random_state=2)
        from repro.orbits.node_orbits import graphlet_degree_vectors as reference

        np.testing.assert_allclose(
            engine.graphlet_degree_vectors(graph, backend="numpy"),
            reference(graph, log_scale=True),
        )

    def test_uses_cache(self):
        graph = erdos_renyi_graph(20, 3.0, random_state=4)
        cache = OrbitCache()
        first = engine.graphlet_degree_vectors(graph, cache=cache)
        second = engine.graphlet_degree_vectors(graph, cache=cache)
        np.testing.assert_allclose(first, second)
        assert cache.stats()["hits"] == 1
