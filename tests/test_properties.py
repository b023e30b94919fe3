"""Cross-module property-based tests.

These check invariants that tie several subsystems together: isomorphism
invariance of orbit counting, permutation equivariance of the encoder,
scale/translation invariance of the similarity scores — the properties the
paper's theory implicitly relies on — and the exact symmetry of every
propagation matrix, which lets training multiply by ``L`` for ``L^T``.
"""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HTCConfig
from repro.core.encoder import build_topology_views
from repro.graph.builders import from_networkx
from repro.graph.laplacian import orbit_laplacian, reinforced_laplacian
from repro.graph.perturbation import permute_graph
from repro.orbits.edge_orbits import count_edge_orbits
from repro.orbits.node_orbits import count_node_orbits
from repro.orbits.orbit_matrix import build_orbit_matrices
from repro.similarity.lisi import lisi_matrix
from repro.similarity.measures import pearson_similarity
from repro.utils.sparse import is_symmetric


def _random_graph(seed: int, n: int = 12, p: float = 0.3):
    return from_networkx(nx.gnp_random_graph(n, p, seed=seed))


class TestOrbitInvariance:
    @given(st.integers(0, 2_000))
    @settings(max_examples=15, deadline=None)
    def test_edge_orbit_totals_invariant_under_permutation(self, seed):
        """Relabelling nodes must not change how often each orbit occurs."""
        graph = _random_graph(seed)
        permuted, _ = permute_graph(graph, random_state=seed + 1)
        original = count_edge_orbits(graph)
        relabelled = count_edge_orbits(permuted)
        for orbit in range(13):
            assert original.orbit_total(orbit) == relabelled.orbit_total(orbit)

    @given(st.integers(0, 2_000))
    @settings(max_examples=15, deadline=None)
    def test_node_orbit_counts_permute_with_the_nodes(self, seed):
        graph = _random_graph(seed)
        permuted, mapping = permute_graph(graph, random_state=seed + 1)
        original = count_node_orbits(graph)
        relabelled = count_node_orbits(permuted)
        np.testing.assert_array_equal(original, relabelled[mapping])

    @given(st.integers(0, 2_000))
    @settings(max_examples=10, deadline=None)
    def test_gom_matrices_always_symmetric_nonnegative(self, seed):
        graph = _random_graph(seed)
        for matrix in build_orbit_matrices(graph, orbits=[0, 1, 2, 3, 4]):
            assert is_symmetric(matrix)
            assert matrix.nnz == 0 or matrix.data.min() >= 0

    @given(st.integers(0, 2_000))
    @settings(max_examples=10, deadline=None)
    def test_orbit_laplacian_eigenvalues_bounded(self, seed):
        graph = _random_graph(seed, n=10)
        for matrix in build_orbit_matrices(graph, orbits=[0, 2]):
            laplacian = orbit_laplacian(matrix).toarray()
            eigenvalues = np.linalg.eigvalsh(laplacian)
            assert np.abs(eigenvalues).max() <= 1.0 + 1e-8


class TestExactSymmetry:
    @given(
        st.integers(0, 2_000), st.sampled_from(["orbit", "adjacency", "diffusion"])
    )
    @settings(max_examples=20, deadline=None)
    def test_views_equal_their_transpose_array_for_array(self, seed, mode):
        graph = _random_graph(seed)
        rng = np.random.default_rng(seed)
        views = build_topology_views(graph, HTCConfig(topology_mode=mode))
        for view in views.values():
            factors = rng.uniform(1.0, 2.0, graph.n_nodes)
            for matrix in (view, reinforced_laplacian(view, factors)):
                transposed = matrix.T.tocsr()
                np.testing.assert_array_equal(matrix.indptr, transposed.indptr)
                np.testing.assert_array_equal(matrix.indices, transposed.indices)
                np.testing.assert_array_equal(matrix.data, transposed.data)


class TestSimilarityInvariance:
    @given(st.integers(0, 2_000))
    @settings(max_examples=15, deadline=None)
    def test_pearson_invariant_to_affine_row_transforms(self, seed):
        rng = np.random.default_rng(seed)
        source = rng.normal(size=(6, 8))
        target = rng.normal(size=(7, 8))
        transformed = 3.5 * source - 2.0
        np.testing.assert_allclose(
            pearson_similarity(source, target),
            pearson_similarity(transformed, target),
            atol=1e-9,
        )

    @given(st.integers(0, 2_000))
    @settings(max_examples=10, deadline=None)
    def test_lisi_of_identical_sets_prefers_the_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        embeddings = rng.normal(size=(9, 6))
        scores = lisi_matrix(embeddings, embeddings.copy(), n_neighbors=3)
        assert (scores.argmax(axis=1) == np.arange(9)).mean() >= 0.8

    @given(st.integers(0, 2_000))
    @settings(max_examples=10, deadline=None)
    def test_lisi_bounded_by_construction(self, seed):
        rng = np.random.default_rng(seed)
        source = rng.normal(size=(6, 5))
        target = rng.normal(size=(8, 5))
        scores = lisi_matrix(source, target, n_neighbors=2)
        # 2*corr in [-2, 2] and each hubness term in [-1, 1].
        assert scores.max() <= 4.0 + 1e-9
        assert scores.min() >= -4.0 - 1e-9
