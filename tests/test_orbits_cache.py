"""Tests for content-hash-keyed orbit caching."""

import numpy as np
import pytest

from repro.graph.builders import from_edge_list
from repro.graph.generators import erdos_renyi_graph
from repro.orbits import engine, node_orbits
from repro.orbits.cache import (
    OrbitCache,
    graph_content_hash,
    resolve_cache,
    shared_cache,
)


class TestContentHash:
    def test_structure_determines_hash(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        first = from_edge_list(edges, n_nodes=3)
        second = from_edge_list(edges, n_nodes=3)
        assert graph_content_hash(first) == graph_content_hash(second)

    def test_attributes_do_not_affect_hash(self):
        edges = [(0, 1), (1, 2)]
        plain = from_edge_list(edges, n_nodes=3)
        attributed = from_edge_list(
            edges, n_nodes=3, attributes=np.random.default_rng(0).random((3, 4))
        )
        assert graph_content_hash(plain) == graph_content_hash(attributed)

    def test_different_structure_different_hash(self):
        a = from_edge_list([(0, 1), (1, 2)], n_nodes=3)
        b = from_edge_list([(0, 1), (0, 2)], n_nodes=3)
        c = from_edge_list([(0, 1), (1, 2)], n_nodes=4)  # extra isolated node
        assert graph_content_hash(a) != graph_content_hash(b)
        assert graph_content_hash(a) != graph_content_hash(c)


class TestMemoryCache:
    def test_hit_semantics(self):
        graph = erdos_renyi_graph(25, 4.0, random_state=0)
        cache = OrbitCache()
        first = engine.count_edge_orbits(graph, cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 1, "entries": 1}
        second = engine.count_edge_orbits(graph, cache=cache)
        assert cache.stats()["hits"] == 1
        assert first.edges == second.edges
        np.testing.assert_array_equal(first.counts, second.counts)

    def test_cached_result_is_counter_independent(self, monkeypatch):
        graph = erdos_renyi_graph(20, 3.0, random_state=1)
        cache = OrbitCache()
        counted = engine.count_edge_orbits(graph, cache=cache)
        # On NumPy < 2.0 the engine counts with the reference; a record
        # either counter wrote serves the other.
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        cached = engine.count_edge_orbits(graph, cache=cache)
        np.testing.assert_array_equal(counted.counts, cached.counts)
        assert cache.stats()["hits"] == 1  # the reference never ran

    def test_mutating_result_does_not_corrupt_cache(self):
        graph = from_edge_list([(0, 1), (1, 2), (0, 2)], n_nodes=3)
        cache = OrbitCache()
        first = engine.count_edge_orbits(graph, cache=cache)
        first.counts[:] = -1
        second = engine.count_edge_orbits(graph, cache=cache)
        assert (second.counts >= 0).all()

    def test_node_and_edge_records_are_separate(self):
        graph = from_edge_list([(0, 1), (1, 2)], n_nodes=3)
        cache = OrbitCache()
        engine.count_edge_orbits(graph, cache=cache)
        gdv = engine.count_node_orbits(graph, cache=cache)
        assert cache.stats()["entries"] == 2
        np.testing.assert_array_equal(gdv, node_orbits.count_node_orbits(graph))

    def test_lru_eviction(self):
        cache = OrbitCache(max_entries=2)
        for seed in range(3):
            graph = erdos_renyi_graph(12, 2.0, random_state=seed)
            engine.count_edge_orbits(graph, cache=cache)
        assert len(cache) == 2

    def test_byte_budget_eviction(self):
        # An edge record is m*(13+2) int64 = 120*m bytes; a 50-edge path is
        # 6000 bytes, so a 7000-byte budget holds exactly one record.
        cache = OrbitCache(max_bytes=7000)
        for m in (50, 51, 52):
            path = from_edge_list([(i, i + 1) for i in range(m)], n_nodes=m + 1)
            engine.count_edge_orbits(path, cache=cache)
        assert len(cache) == 1
        # The most recent record survives and still hits.
        engine.count_edge_orbits(path, cache=cache)
        assert cache.stats()["hits"] == 1

    def test_clear(self):
        cache = OrbitCache()
        graph = from_edge_list([(0, 1)], n_nodes=2)
        engine.count_edge_orbits(graph, cache=cache)
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            OrbitCache(max_entries=0)


class TestDiskCache:
    def test_roundtrip_across_instances(self, tmp_path):
        graph = erdos_renyi_graph(25, 4.0, random_state=3)
        writer = OrbitCache(directory=tmp_path)
        original = engine.count_edge_orbits(graph, cache=writer)
        gdv = engine.count_node_orbits(graph, cache=writer)
        assert list(tmp_path.glob("*.npz"))

        # A fresh instance (fresh process stand-in) must hit via disk.
        reader = OrbitCache(directory=tmp_path)
        reloaded = engine.count_edge_orbits(graph, cache=reader)
        assert reader.stats()["hits"] == 1
        assert reloaded.edges == original.edges
        np.testing.assert_array_equal(reloaded.counts, original.counts)
        np.testing.assert_array_equal(
            engine.count_node_orbits(graph, cache=reader), gdv
        )

    def test_corrupt_file_is_ignored(self, tmp_path):
        graph = from_edge_list([(0, 1), (1, 2)], n_nodes=3)
        cache = OrbitCache(directory=tmp_path)
        engine.count_edge_orbits(graph, cache=cache)
        for path in tmp_path.glob("*.npz"):
            path.write_bytes(b"not an npz")
        fresh = OrbitCache(directory=tmp_path)
        counts = engine.count_edge_orbits(graph, cache=fresh)  # recomputes
        assert counts.n_edges == 2
        assert fresh.stats()["misses"] == 1

    def test_truncated_file_is_ignored(self, tmp_path):
        graph = from_edge_list([(0, 1), (1, 2)], n_nodes=3)
        cache = OrbitCache(directory=tmp_path)
        engine.count_edge_orbits(graph, cache=cache)
        for path in tmp_path.glob("*.npz"):
            path.write_bytes(path.read_bytes()[:20])  # valid prefix, bad zip
        fresh = OrbitCache(directory=tmp_path)
        counts = engine.count_edge_orbits(graph, cache=fresh)
        assert counts.n_edges == 2

    def test_foreign_record_is_ignored(self, tmp_path):
        graph = from_edge_list([(0, 1), (1, 2)], n_nodes=3)
        cache = OrbitCache(directory=tmp_path)
        engine.count_edge_orbits(graph, cache=cache)
        for path in tmp_path.glob("*.edge.npz"):
            np.savez(path, wrong_key=np.arange(3))  # loadable, missing keys
        fresh = OrbitCache(directory=tmp_path)
        counts = engine.count_edge_orbits(graph, cache=fresh)
        assert counts.n_edges == 2


class TestResolveCache:
    def test_off_specs(self):
        for spec in (None, False, "off", "none", ""):
            assert resolve_cache(spec) is None

    def test_memory_specs(self):
        assert resolve_cache("memory") is shared_cache()
        assert resolve_cache(True) is shared_cache()

    def test_instance_passthrough(self):
        cache = OrbitCache()
        assert resolve_cache(cache) is cache

    def test_directory_spec_is_memoised(self, tmp_path):
        first = resolve_cache(str(tmp_path))
        second = resolve_cache(str(tmp_path))
        assert first is second
        assert first.directory == tmp_path.resolve()

    def test_invalid_spec(self):
        with pytest.raises(TypeError):
            resolve_cache(42)


class TestConfigIntegration:
    def test_config_accepts_orbit_fields(self):
        from repro.core.config import HTCConfig

        config = HTCConfig(orbit_cache="off")
        assert config.orbit_cache == "off"
        with pytest.raises(ValueError, match="cache spec"):
            HTCConfig(orbit_cache=42)

    def test_aligner_skips_counting_on_cache_hit(self):
        from repro.core import HTCAligner, HTCConfig
        from repro.datasets.synthetic import tiny_pair

        pair = tiny_pair(n_nodes=25, random_state=0, noise=0.05)
        cache = OrbitCache()
        config = HTCConfig(
            epochs=2, embedding_dim=8, orbits=[0, 1], n_neighbors=3,
            orbit_cache=cache, random_state=0,
        )
        HTCAligner(config).align(pair)
        assert cache.stats() == {"hits": 0, "misses": 2, "entries": 2}
        result = HTCAligner(config).align(pair)
        assert cache.stats()["hits"] == 2
        assert result.stage_times["orbit_counting"] >= 0.0
