"""Tests for the orbit-counting engine: one counter, equal to the reference.

The central property: the engine's counts are *bit-identical* to the
pure-Python reference counters (:mod:`repro.orbits.edge_orbits`,
:mod:`repro.orbits.node_orbits`) on every graph, including disconnected and
triangle-free edge cases — with the vectorized counters it runs on
NumPy >= 2.0, and with ``np.bitwise_count`` hidden, the NumPy < 2.0 path.
The cross-validation sweep covers 50+ random ER/BA-style graphs spanning
sparse (disconnected), dense, and clustered regimes, plus deterministic
structured graphs.
"""

import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import repro.orbits
from repro.graph.builders import from_edge_list, from_networkx
from repro.graph.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.orbits import edge_orbits, engine, node_orbits, vectorized
from repro.orbits.brute_force import brute_force_edge_orbits, brute_force_node_orbits
from repro.orbits.cache import OrbitCache, graph_content_hash
from repro.orbits.graphlets import EDGE_ORBIT_COUNT, NODE_ORBIT_COUNT

from _helpers import loop_edge_statistics, orbit_stress_graphs

# The vectorized counters need numpy >= 2.0 (np.bitwise_count); most of the
# module is about cross-validating them against the reference.
pytestmark = pytest.mark.skipif(
    not hasattr(np, "bitwise_count"),
    reason="vectorized orbit counters unavailable (numpy < 2.0)",
)


def _hide_bitwise_count(monkeypatch):
    """Make this process look like NumPy < 2.0 to the engine.

    The vectorized counters are replaced by ones that fail, so a test that
    passes under this patch never ran them.
    """

    def unreachable(graph):
        raise AssertionError("the vectorized counters ran without np.bitwise_count")

    monkeypatch.delattr(np, "bitwise_count")
    monkeypatch.setattr(vectorized, "count_edge_orbits_numpy", unreachable)
    monkeypatch.setattr(vectorized, "count_node_orbits_numpy", unreachable)


def _assert_matches_reference(graph):
    reference = edge_orbits.count_edge_orbits(graph)
    counts = engine.count_edge_orbits(graph)
    assert reference.edges == counts.edges
    np.testing.assert_array_equal(reference.counts, counts.counts)
    assert counts.counts.dtype == np.int64

    reference_gdv = node_orbits.count_node_orbits(graph)
    gdv = engine.count_node_orbits(graph)
    np.testing.assert_array_equal(reference_gdv, gdv)
    assert gdv.dtype == np.int64


class TestCrossValidation:
    """The engine's counts == the reference counters', bit for bit."""

    # 30 ER graphs sweeping density from sub-critical (many components,
    # almost no triangles) to dense, plus 20 power-law cluster (BA-style)
    # graphs with heavy triangle density: 50 random graphs total.
    @pytest.mark.parametrize("seed", range(30))
    def test_erdos_renyi(self, seed):
        graph = erdos_renyi_graph(
            20 + 2 * seed, 0.5 + 0.25 * seed, random_state=seed
        )
        _assert_matches_reference(graph)

    @pytest.mark.parametrize("seed", range(20))
    def test_powerlaw_cluster(self, seed):
        graph = powerlaw_cluster_graph(
            15 + 2 * seed, 2 + seed % 3, 0.7, random_state=seed
        )
        _assert_matches_reference(graph)

    @pytest.mark.parametrize(
        "fixture_name",
        ["triangle_graph", "path_graph", "star_graph", "clique_graph",
         "paw_graph", "diamond_graph", "figure5_graph"],
    )
    def test_structured_fixtures(self, fixture_name, request):
        _assert_matches_reference(request.getfixturevalue(fixture_name))

    def test_triangle_free_bipartite(self):
        graph = from_networkx(nx.complete_bipartite_graph(4, 5))
        fast = engine.count_edge_orbits(graph)
        assert fast.orbit_total(2) == 0  # no triangle edges
        _assert_matches_reference(graph)

    def test_tree(self):
        graph = from_networkx(nx.random_labeled_tree(24, seed=3))
        _assert_matches_reference(graph)

    def test_disconnected_components(self):
        # Two separate triangles plus two isolated nodes.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        graph = from_edge_list(edges, n_nodes=8)
        _assert_matches_reference(graph)
        gdv = engine.count_node_orbits(graph)
        np.testing.assert_array_equal(gdv[6], np.zeros(NODE_ORBIT_COUNT))

    def test_empty_graph(self):
        graph = from_edge_list([], n_nodes=5)
        fast = engine.count_edge_orbits(graph)
        assert fast.n_edges == 0
        assert fast.counts.shape == (0, EDGE_ORBIT_COUNT)
        _assert_matches_reference(graph)

    def test_single_edge(self):
        _assert_matches_reference(from_edge_list([(0, 1)], n_nodes=2))

    def test_weighted_adjacency(self):
        # Counts depend on the adjacency pattern, never on its weights.
        graph = orbit_stress_graphs()["weighted"]
        assert len(np.unique(graph.adjacency.data)) > 1
        _assert_matches_reference(graph)

    def test_dense_erdos_renyi(self):
        graph = orbit_stress_graphs()["dense_er"]
        assert graph.average_degree >= graph.n_nodes / 2
        _assert_matches_reference(graph)

    def test_complete_graph_k12(self):
        graph = orbit_stress_graphs()["k12"]
        _assert_matches_reference(graph)
        fast = engine.count_edge_orbits(graph)
        # Every edge of K12 lies in C(10, 2) = 45 four-cliques, nothing else.
        np.testing.assert_array_equal(fast.counts[:, 12], 45)

    def test_matches_brute_force(self):
        graph = erdos_renyi_graph(14, 3.5, random_state=11)
        fast = engine.count_edge_orbits(graph)
        brute = brute_force_edge_orbits(graph)
        assert fast.edges == brute.edges
        np.testing.assert_array_equal(fast.counts, brute.counts)
        np.testing.assert_array_equal(
            engine.count_node_orbits(graph),
            brute_force_node_orbits(graph),
        )


class TestCrossValidationWithoutBitwiseCount(TestCrossValidation):
    """The same sweep on the NumPy < 2.0 path (``np.bitwise_count`` hidden)."""

    @pytest.fixture(autouse=True)
    def _numpy_below_2(self, monkeypatch):
        _hide_bitwise_count(monkeypatch)


STATISTIC_FIELDS = (
    "t", "na", "nb", "e_aa", "e_bb", "e_cc",
    "e_ab", "e_ac", "e_bc", "p_a", "p_b", "p_c",
)


def _assert_loop_oracle_identical(graph):
    stats = loop_edge_statistics(graph)
    oracle = vectorized.edge_orbits_from_statistics(stats)
    fast = vectorized.count_edge_orbits_numpy(graph)
    assert oracle.edges == fast.edges
    np.testing.assert_array_equal(oracle.counts, fast.counts)
    np.testing.assert_array_equal(
        vectorized.node_orbits_from_statistics(stats, graph.degrees),
        vectorized.count_node_orbits_numpy(graph),
    )


class TestLoopOracle:
    """The vectorized counters == the loop oracle's statistics, bit for bit."""

    @pytest.mark.parametrize("seed", range(15))
    def test_erdos_renyi(self, seed):
        graph = erdos_renyi_graph(
            20 + 3 * seed, 0.5 + 0.4 * seed, random_state=seed
        )
        _assert_loop_oracle_identical(graph)

    @pytest.mark.parametrize("seed", range(10))
    def test_powerlaw_cluster(self, seed):
        graph = powerlaw_cluster_graph(
            15 + 3 * seed, 2 + seed % 3, 0.7, random_state=seed
        )
        _assert_loop_oracle_identical(graph)

    def test_structured_graphs(self):
        for edges, n in [
            ([(0, 1)], 2),  # single edge
            ([(0, 1), (1, 2), (2, 0)], 3),  # triangle
            ([(0, 1), (1, 2), (2, 3), (3, 0)], 4),  # 4-cycle
            ([(i, j) for i in range(5) for j in range(i + 1, 5)], 5),  # K5
            ([(0, i) for i in range(1, 7)], 7),  # star
        ]:
            _assert_loop_oracle_identical(from_edge_list(edges, n_nodes=n))

    def test_empty_graph(self):
        graph = from_edge_list([], n_nodes=5)
        assert loop_edge_statistics(graph).edges == []
        _assert_loop_oracle_identical(graph)

    def test_kernel_statistics_match_vectorized(self):
        graphs = {"er": erdos_renyi_graph(60, 6.0, random_state=5)}
        graphs.update(orbit_stress_graphs())
        for label, graph in graphs.items():
            expected = vectorized.compute_edge_statistics(graph)
            oracle = loop_edge_statistics(graph)
            for name in vectorized._FIELD_NAMES:
                np.testing.assert_array_equal(
                    getattr(oracle, name), getattr(expected, name),
                    err_msg=f"{label}: {name}",
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
        engine.count_edge_orbits(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _spy(monkeypatch, module, name, calls):
    """Record each call of ``module.<name>`` in ``calls``."""
    counter = getattr(module, name)

    def wrapped(graph):
        calls.append(name)
        return counter(graph)

    monkeypatch.setattr(module, name, wrapped)


class TestOneCounter:
    def test_engine_runs_the_vectorized_counters(self, monkeypatch):
        graph = erdos_renyi_graph(30, 4.0, random_state=6)
        calls = []
        for name in ("count_edge_orbits_numpy", "count_node_orbits_numpy"):
            _spy(monkeypatch, vectorized, name, calls)
        engine.count_edge_orbits(graph)
        engine.graphlet_degree_vectors(graph)
        assert calls == ["count_edge_orbits_numpy", "count_node_orbits_numpy"]

    @pytest.mark.parametrize(
        "count",
        [
            lambda graph: engine.count_edge_orbits(graph).counts,
            engine.count_node_orbits,
            engine.graphlet_degree_vectors,
        ],
        ids=["edge", "node", "gdv"],
    )
    def test_numpy_below_2_counts_through_the_reference(self, count, monkeypatch):
        graph = erdos_renyi_graph(30, 4.0, random_state=6)
        expected = count(graph)  # the vectorized counters here
        calls = []
        _hide_bitwise_count(monkeypatch)
        _spy(monkeypatch, edge_orbits, "count_edge_orbits", calls)
        _spy(monkeypatch, node_orbits, "count_node_orbits", calls)
        np.testing.assert_array_equal(count(graph), expected)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "count",
        [
            engine.count_edge_orbits,
            engine.count_node_orbits,
            engine.graphlet_degree_vectors,
        ],
        ids=["edge", "node", "gdv"],
    )
    def test_backend_keyword_is_gone(self, count):
        graph = from_edge_list([(0, 1), (1, 2)], n_nodes=3)
        with pytest.raises(TypeError, match="backend"):
            count(graph, backend="numpy")

    def test_selector_symbols_are_gone(self):
        for name in (
            "OrbitBackend",
            "_BACKENDS",
            "available_backends",
            "resolve_backend",
            "DEFAULT_BACKEND",
            "AUTO_BACKEND",
        ):
            assert not hasattr(engine, name), name
        for name in ("available_backends", "resolve_backend"):
            assert not hasattr(repro.orbits, name), name
        # The engine's graphlet_degree_vectors is the only one.
        assert not hasattr(node_orbits, "graphlet_degree_vectors")

    def test_orbits_package_imports_nothing_from_backend(self):
        for path in Path(repro.orbits.__file__).parent.glob("*.py"):
            assert "repro.backend" not in path.read_text(), path.name

    def test_package_level_exports(self):
        from repro.orbits import count_edge_orbits, count_node_orbits

        graph = from_edge_list([(0, 1), (1, 2), (0, 2)], n_nodes=3)
        counts = count_edge_orbits(graph)
        assert counts.orbit_total(2) == 3
        gdv = count_node_orbits(graph)
        np.testing.assert_array_equal(gdv[:, 3], [1, 1, 1])


class TestCacheKeys:
    """Both counters file records under the plain graph content hash.

    On-disk caches written while the counter was still selectable keep
    hitting, and a record one counter wrote serves the other.
    """

    @pytest.mark.parametrize("counter", ["reference", "vectorized"])
    def test_disk_records_are_named_by_content_hash(
        self, counter, tmp_path, monkeypatch
    ):
        if counter == "reference":
            _hide_bitwise_count(monkeypatch)
        graph = erdos_renyi_graph(20, 3.0, random_state=8)
        cache = OrbitCache(directory=tmp_path)
        engine.count_edge_orbits(graph, cache=cache)
        engine.count_node_orbits(graph, cache=cache)
        key = graph_content_hash(graph)
        assert sorted(p.name for p in tmp_path.glob("*.npz")) == [
            f"{key}.edge.npz",
            f"{key}.node.npz",
        ]

    @pytest.mark.parametrize(
        "writer, reader", [("reference", "vectorized"), ("vectorized", "reference")]
    )
    def test_record_written_by_one_counter_serves_the_other(
        self, writer, reader, monkeypatch
    ):
        graph = powerlaw_cluster_graph(30, 3, 0.6, random_state=9)
        cache = OrbitCache()
        with monkeypatch.context() as patch:
            if writer == "reference":
                _hide_bitwise_count(patch)
            edges = engine.count_edge_orbits(graph, cache=cache)
            gdv = engine.count_node_orbits(graph, cache=cache)
        assert cache.stats()["hits"] == 0
        with monkeypatch.context() as patch:
            if reader == "reference":
                _hide_bitwise_count(patch)
            np.testing.assert_array_equal(
                engine.count_edge_orbits(graph, cache=cache).counts, edges.counts
            )
            np.testing.assert_array_equal(
                engine.count_node_orbits(graph, cache=cache), gdv
            )
        assert cache.stats()["hits"] == 2  # the reader never counted


class TestGraphletDegreeVectors:
    def test_log_scale_matches_reference(self):
        graph = erdos_renyi_graph(25, 4.0, random_state=2)
        reference = node_orbits.count_node_orbits(graph).astype(np.float64)
        np.testing.assert_array_equal(
            engine.graphlet_degree_vectors(graph), np.log1p(reference)
        )
        np.testing.assert_array_equal(
            engine.graphlet_degree_vectors(graph, log_scale=False), reference
        )

    def test_uses_cache(self):
        graph = erdos_renyi_graph(20, 3.0, random_state=4)
        cache = OrbitCache()
        first = engine.graphlet_degree_vectors(graph, cache=cache)
        second = engine.graphlet_degree_vectors(graph, cache=cache)
        np.testing.assert_allclose(first, second)
        assert cache.stats()["hits"] == 1


def _edit(graph, add=(), remove=()):
    """``graph`` with ``add`` edges inserted and ``remove`` edges deleted."""
    edges = (set(graph.edge_list()) - set(remove)) | set(add)
    return from_edge_list(sorted(edges), n_nodes=graph.n_nodes)


def _absent_edge(graph, rng):
    while True:
        u, v = sorted(int(x) for x in rng.choice(graph.n_nodes, 2, replace=False))
        if not graph.has_edge(u, v):
            return (u, v)


class TestEdgeEdits:
    """An edited graph's GDVs come from a from-scratch recount.

    These are the properties any correct recount of an edge edit must
    show: rows of nodes too far from the edit keep their counts, the
    edited edge's endpoints change degree, and a cache primed with the
    unedited graph never answers for the edited one.
    """

    @staticmethod
    def _graph(kind, seed):
        if kind == "er":
            return erdos_renyi_graph(60, 4.0, random_state=seed)
        return powerlaw_cluster_graph(150, 2, 0.6, random_state=seed)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("op", ["add", "remove"])
    @pytest.mark.parametrize("kind", ["er", "powerlaw"])
    def test_rows_beyond_two_hops_keep_their_counts(self, kind, op, seed):
        # A graphlet has at most 4 nodes, so a node's orbits can involve the
        # edited edge only if the node lies within two hops of it in the
        # graph that has the edge.
        graph = self._graph(kind, seed)
        rng = np.random.default_rng(300 + seed)
        if op == "add":
            edge = _absent_edge(graph, rng)
            edited = _edit(graph, add=[edge])
            with_edge = edited
        else:
            edge = graph.edge_list()[int(rng.integers(graph.n_edges))]
            edited = _edit(graph, remove=[edge])
            with_edge = graph
        adj = with_edge.adjacency_sets()
        near = set(edge)
        for _ in range(2):
            near |= {w for node in near for w in adj[node]}
        far = np.setdiff1d(np.arange(graph.n_nodes), sorted(near))
        assert far.size > 0
        before = engine.count_node_orbits(graph)
        after = engine.count_node_orbits(edited)
        np.testing.assert_array_equal(after[far], before[far])
        step = 1 if op == "add" else -1
        np.testing.assert_array_equal(
            after[list(edge), 0], before[list(edge), 0] + step
        )
        np.testing.assert_array_equal(
            after, node_orbits.count_node_orbits(edited)
        )

    @pytest.mark.parametrize("op", ["add", "remove"])
    def test_cache_primed_with_the_unedited_graph_recounts(self, op):
        graph = erdos_renyi_graph(60, 5.0, random_state=3)
        rng = np.random.default_rng(9)
        if op == "add":
            edited = _edit(graph, add=[_absent_edge(graph, rng)])
        else:
            edited = _edit(graph, remove=[graph.edge_list()[5]])
        cache = OrbitCache()
        base = engine.count_node_orbits(graph, cache=cache)
        via_cache = engine.count_node_orbits(edited, cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 2, "entries": 2}
        np.testing.assert_array_equal(via_cache, engine.count_node_orbits(edited))
        assert not np.array_equal(via_cache, base)
        np.testing.assert_array_equal(
            cache.get_node_orbits(graph_content_hash(graph)), base
        )

    def test_undoing_an_edit_hits_the_unedited_entry(self):
        graph = erdos_renyi_graph(50, 5.0, random_state=2)
        edge = graph.edge_list()[3]
        cache = OrbitCache()
        base = engine.count_node_orbits(graph, cache=cache)
        restored = _edit(_edit(graph, remove=[edge]), add=[edge])
        assert graph_content_hash(restored) == graph_content_hash(graph)
        np.testing.assert_array_equal(
            engine.count_node_orbits(restored, cache=cache), base
        )
        assert cache.stats()["hits"] == 1
