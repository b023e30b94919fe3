"""Tests for the numba-JIT orbit backend (:mod:`repro.orbits.jit`).

The JIT kernel computes the same per-edge :class:`EdgeStatistics` the numpy
backend derives from sparse products, and the orbit assembly is
literally shared with the numpy path — so bit-identity is validated here on
the *uncompiled* kernel (plain Python), which is the identical function
object numba compiles when it is installed.  The numba CI leg runs this same
suite with the compiled kernel.
"""

import importlib.util

import numpy as np
import pytest

from repro.graph.builders import from_edge_list
from repro.graph.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.orbits import engine, jit

from _helpers import orbit_stress_graphs

pytestmark = pytest.mark.skipif(
    "numpy" not in engine.available_backends(),
    reason="vectorized orbit backend unavailable (numpy < 2.0)",
)

NUMBA_PRESENT = importlib.util.find_spec("numba") is not None


def _kernel_statistics(graph):
    """Run the kernel uncompiled so the suite works without numba."""
    adjacency = graph.adjacency
    edge_array = np.asarray(graph.edge_list(), dtype=np.int64)
    return jit._edge_statistics_kernel(
        adjacency.indptr.astype(np.int64),
        adjacency.indices.astype(np.int64),
        graph.degrees.astype(np.int64),
        np.ascontiguousarray(edge_array[:, 0]),
        np.ascontiguousarray(edge_array[:, 1]),
        graph.n_nodes,
    )


def _assert_jit_identical(graph):
    reference = engine.count_edge_orbits(graph, backend="numpy")
    fast = jit.count_edge_orbits_jit(graph)
    assert reference.edges == fast.edges
    np.testing.assert_array_equal(reference.counts, fast.counts)
    assert fast.counts.dtype == np.int64

    reference_gdv = engine.count_node_orbits(graph, backend="numpy")
    fast_gdv = jit.count_node_orbits_jit(graph)
    np.testing.assert_array_equal(reference_gdv, fast_gdv)
    assert fast_gdv.dtype == np.int64


class TestCrossValidation:
    """JIT backend == numpy backend, bit for bit (uncompiled kernel)."""

    @pytest.mark.parametrize("seed", range(15))
    def test_erdos_renyi(self, seed):
        graph = erdos_renyi_graph(
            20 + 3 * seed, 0.5 + 0.4 * seed, random_state=seed
        )
        _assert_jit_identical(graph)

    @pytest.mark.parametrize("seed", range(10))
    def test_powerlaw_cluster(self, seed):
        graph = powerlaw_cluster_graph(
            15 + 3 * seed, 2 + seed % 3, 0.7, random_state=seed
        )
        _assert_jit_identical(graph)

    def test_structured_graphs(self):
        for edges, n in [
            ([(0, 1)], 2),  # single edge
            ([(0, 1), (1, 2), (2, 0)], 3),  # triangle
            ([(0, 1), (1, 2), (2, 3), (3, 0)], 4),  # 4-cycle
            ([(i, j) for i in range(5) for j in range(i + 1, 5)], 5),  # K5
            ([(0, i) for i in range(1, 7)], 7),  # star
        ]:
            _assert_jit_identical(from_edge_list(edges, n_nodes=n))

    def test_empty_graph(self):
        graph = from_edge_list([], n_nodes=5)
        stats = jit.compute_edge_statistics_jit(graph)
        assert stats.edges == []
        np.testing.assert_array_equal(
            jit.count_node_orbits_jit(graph),
            engine.count_node_orbits(graph, backend="numpy"),
        )


class TestRegistration:
    def test_registered_under_orbit_kind(self):
        registry = engine.orbit_registry()
        assert "numba" in registry.names()
        assert registry.is_available("numba") is NUMBA_PRESENT

    def test_availability_probe_matches_find_spec(self):
        assert jit.numba_available() is NUMBA_PRESENT

    def test_engine_routes_to_jit_backend_when_available(self):
        if not NUMBA_PRESENT:
            pytest.skip("numba not installed")
        graph = erdos_renyi_graph(40, 4.0, random_state=3)
        np.testing.assert_array_equal(
            engine.count_node_orbits(graph, backend="numba"),
            engine.count_node_orbits(graph, backend="numpy"),
        )

    def test_verified_backend_shares_cache_namespace(self):
        # The numba backend is in the verified set: its results land under
        # the plain content-hash key, interchangeable with numpy's.
        assert "numba" in engine._VERIFIED_BACKENDS

    def test_kernel_statistics_match_vectorized(self):
        from repro.orbits.vectorized import compute_edge_statistics

        graphs = {"er": erdos_renyi_graph(60, 6.0, random_state=5)}
        graphs.update(orbit_stress_graphs())
        for label, graph in graphs.items():
            expected = compute_edge_statistics(graph)
            raw = _kernel_statistics(graph)
            for column, name in enumerate(
                ("t", "na", "nb", "e_aa", "e_bb", "e_cc",
                 "e_ab", "e_ac", "e_bc", "p_a", "p_b", "p_c")
            ):
                np.testing.assert_array_equal(
                    raw[:, column], getattr(expected, name),
                    err_msg=f"{label}: {name}",
                )
