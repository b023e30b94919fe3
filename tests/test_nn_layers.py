"""Tests for Linear, GCNLayer, and SharedGCNEncoder."""

import numpy as np
import pytest

from repro.graph.laplacian import normalized_laplacian
from repro.nn.functional import Propagation
from repro.nn.init import glorot_uniform, zeros
from repro.nn.layers import GCNLayer, Linear, SharedGCNEncoder
from repro.nn.tensor import Tensor


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

    def test_zeros(self):
        np.testing.assert_array_equal(zeros(2, 3), np.zeros((2, 3)))


class TestLinear:
    def test_output_shape(self):
        layer = Linear(3, 5, random_state=0)
        out = layer(Tensor(np.ones((7, 3))))
        assert out.shape == (7, 5)

    def test_no_bias_option(self):
        layer = Linear(3, 5, bias=False, random_state=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_reach_parameters(self):
        layer = Linear(2, 2, random_state=0)
        layer(Tensor(np.ones((4, 2)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestGCNLayer:
    def test_forward_shape(self, triangle_graph):
        laplacian = normalized_laplacian(triangle_graph.adjacency)
        layer = GCNLayer(2, 4, random_state=0)
        out = layer(laplacian, Tensor(np.ones((3, 2))))
        assert out.shape == (3, 4)

    def test_relu_applied(self, triangle_graph):
        laplacian = normalized_laplacian(triangle_graph.adjacency)
        layer = GCNLayer(2, 8, activation="relu", random_state=0)
        out = layer(laplacian, Tensor(np.ones((3, 2))))
        assert (out.data >= 0).all()

    def test_identity_activation_can_be_negative(self, triangle_graph):
        laplacian = normalized_laplacian(triangle_graph.adjacency)
        layer = GCNLayer(2, 50, activation="identity", random_state=0)
        out = layer(laplacian, Tensor(np.ones((3, 2))))
        assert (out.data < 0).any()


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

    def test_shared_weights_give_identical_output_for_identical_graphs(
        self, triangle_graph
    ):
        """Sharing the encoder means identical inputs map to identical outputs
        (the mechanism behind the paper's Proposition 1)."""
        encoder = SharedGCNEncoder(2, [8, 4], random_state=0)
        laplacian = normalized_laplacian(triangle_graph.adjacency)
        attrs = np.random.default_rng(0).normal(size=(3, 2))
        out_a = encoder(laplacian, attrs).numpy()
        out_b = encoder(laplacian, attrs).numpy()
        np.testing.assert_array_equal(out_a, out_b)

    def test_hoisted_first_layer_matches_propagating_features(self, triangle_graph):
        """An operand holding ``L X`` gives the same layers as ``L (X W)``, up
        to the rounding of the reassociated product."""
        encoder = SharedGCNEncoder(2, [8, 4], random_state=0)
        laplacian = normalized_laplacian(triangle_graph.adjacency)
        attrs = np.random.default_rng(0).normal(size=(3, 2))
        hoisted = encoder(Propagation(laplacian, features=attrs), all_layers=True)
        direct = encoder(laplacian, attrs, all_layers=True)
        for got, expected in zip(hoisted, direct):
            np.testing.assert_allclose(got.data, expected.data, rtol=1e-12, atol=1e-15)

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

    def test_parameter_count(self):
        encoder = SharedGCNEncoder(5, [7, 3], random_state=0)
        assert encoder.n_parameters() == 5 * 7 + 7 * 3
