"""Tests for Glorot initialisation and SharedGCNEncoder."""

import numpy as np
import pytest

from repro.graph.laplacian import normalized_laplacian
from repro.nn.functional import Propagation
from repro.nn.init import glorot_uniform
from repro.nn.layers import SharedGCNEncoder


class TestInit:
    def test_glorot_bounds(self):
        weights = glorot_uniform(100, 50, random_state=0)
        limit = np.sqrt(6.0 / 150)
        assert np.abs(weights).max() <= limit
        assert weights.shape == (100, 50)

    def test_glorot_deterministic(self):
        np.testing.assert_array_equal(
            glorot_uniform(5, 5, random_state=3), glorot_uniform(5, 5, random_state=3)
        )

    def test_glorot_invalid(self):
        with pytest.raises(ValueError):
            glorot_uniform(0, 5)


class TestSharedGCNEncoder:
    def test_output_dimension(self, triangle_graph):
        encoder = SharedGCNEncoder(2, [8, 4], random_state=0)
        laplacian = normalized_laplacian(triangle_graph.adjacency)
        out = encoder(laplacian, np.ones((3, 2)))
        assert out.shape == (3, 4)
        assert encoder.embedding_dim == 4
        assert encoder.n_layers == 2

    def test_all_layers_option(self, triangle_graph):
        encoder = SharedGCNEncoder(2, [8, 4], random_state=0)
        laplacian = normalized_laplacian(triangle_graph.adjacency)
        layers = encoder(laplacian, np.ones((3, 2)), all_layers=True)
        assert len(layers) == 2
        assert layers[0].shape == (3, 8)
        assert layers[1].shape == (3, 4)
        assert (layers[0] >= 0).all()
        np.testing.assert_array_equal(layers[1], encoder(laplacian, np.ones((3, 2))))

    def test_identity_last_layer_can_be_negative(self, triangle_graph):
        encoder = SharedGCNEncoder(2, [50], random_state=0)
        laplacian = normalized_laplacian(triangle_graph.adjacency)
        assert encoder.activations == ["identity"]
        assert (encoder(laplacian, np.ones((3, 2))) < 0).any()

    def test_weights_are_glorot_draws_in_layer_order(self):
        encoder = SharedGCNEncoder(5, [7, 3], random_state=0)
        rng = np.random.default_rng(0)
        expected = [glorot_uniform(5, 7, rng), glorot_uniform(7, 3, rng)]
        assert len(encoder.weights) == 2
        for weight, draw in zip(encoder.weights, expected):
            np.testing.assert_array_equal(weight, draw)

    def test_shared_weights_give_identical_output_for_identical_graphs(
        self, triangle_graph
    ):
        """Sharing the encoder means identical inputs map to identical outputs
        (the mechanism behind the paper's Proposition 1)."""
        encoder = SharedGCNEncoder(2, [8, 4], random_state=0)
        laplacian = normalized_laplacian(triangle_graph.adjacency)
        attrs = np.random.default_rng(0).normal(size=(3, 2))
        np.testing.assert_array_equal(
            encoder(laplacian, attrs), encoder(laplacian, attrs)
        )

    def test_hoisted_first_layer_matches_propagating_features(self, triangle_graph):
        """An operand holding ``L X`` gives the same layers as ``L (X W)``, up
        to the rounding of the reassociated product."""
        encoder = SharedGCNEncoder(2, [8, 4], random_state=0)
        laplacian = normalized_laplacian(triangle_graph.adjacency)
        attrs = np.random.default_rng(0).normal(size=(3, 2))
        hoisted = encoder(Propagation(laplacian, features=attrs), all_layers=True)
        direct = encoder(laplacian, attrs, all_layers=True)
        for got, expected in zip(hoisted, direct):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)

    def test_missing_features_rejected(self, triangle_graph):
        encoder = SharedGCNEncoder(2, [8, 4], random_state=0)
        laplacian = normalized_laplacian(triangle_graph.adjacency)
        for operand in (laplacian, Propagation(laplacian)):
            with pytest.raises(ValueError, match="features"):
                encoder(operand)

    def test_empty_hidden_dims_rejected(self):
        with pytest.raises(ValueError):
            SharedGCNEncoder(4, [])

    def test_activation_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SharedGCNEncoder(4, [8, 8], activations=["relu"])

    def test_unknown_activation_rejected_on_construction(self):
        with pytest.raises(ValueError, match="unknown activation"):
            SharedGCNEncoder(4, [8, 8], activations=["relu", "swish-9000"])
