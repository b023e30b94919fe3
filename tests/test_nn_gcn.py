"""Tests for repro.nn.gcn, the shared encoder's explicit pass.

Training's use of the pass (losses and weights against the tape) is tested
in ``test_core_training.py``; here the forward-only pass that refinement and
``encode_views`` run is compared with the tape's ``SharedGCNEncoder.forward``
bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.config import HTCConfig
from repro.core.encoder import build_topology_views, make_encoder
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.laplacian import reinforced_laplacian
from repro.nn.functional import ACTIVATIONS, Propagation
from repro.nn.gcn import EncoderPass, encode
from repro.nn.layers import SharedGCNEncoder

GRAPH = powerlaw_cluster_graph(50, 3, n_attributes=6, random_state=0)
VIEW = build_topology_views(GRAPH, HTCConfig(orbits=[2]))[2]


def _encoder(n_layers, activation):
    config = HTCConfig(embedding_dim=8, n_layers=n_layers, activation=activation)
    return make_encoder(GRAPH.n_attributes, config)


class TestForwardOnly:
    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_raw_features_match_the_tape(self, n_layers, activation):
        """Layer 0 computes ``L (X W_0)``, as the tape does from raw
        features, on a reinforced view as refinement encodes it."""
        encoder = _encoder(n_layers, activation)
        factors = np.random.default_rng(0).uniform(1.0, 2.0, GRAPH.n_nodes)
        view = reinforced_laplacian(VIEW, factors)
        np.testing.assert_array_equal(
            encode(encoder, view, GRAPH.attributes),
            encoder(view, GRAPH.attributes).numpy(),
        )

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_operand_features_match_the_tape(self, activation):
        """With ``features=None`` layer 0 reads the operand's ``L X``; every
        layer may carry an activation, the last one too."""
        encoder = SharedGCNEncoder(GRAPH.n_attributes, [8, 8, 4], [activation] * 3)
        operand = Propagation(VIEW, features=GRAPH.attributes)
        np.testing.assert_array_equal(
            encode(encoder, operand), encoder(operand).numpy()
        )

    def test_outputs_are_new_arrays(self):
        encoder = _encoder(2, "relu")
        first = encode(encoder, VIEW, GRAPH.attributes)
        second = encode(encoder, VIEW, GRAPH.attributes)
        assert first is not second
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, second)

    def test_has_no_loss_or_vjp(self):
        forward_only = EncoderPass(["relu", "identity"], VIEW)
        with pytest.raises(RuntimeError, match="forward-only"):
            forward_only.loss()
        with pytest.raises(RuntimeError, match="forward-only"):
            forward_only.vjp([])

    def test_needs_features_or_their_propagation(self):
        encoder = _encoder(1, "relu")
        with pytest.raises(ValueError, match="features are required"):
            encode(encoder, VIEW)


class TestWorkspace:
    def _pass(self, encoder):
        weights = [layer.weight.data for layer in encoder.layers]
        activations = [layer.activation_name for layer in encoder.layers]
        operand = Propagation(VIEW, features=GRAPH.attributes)
        return EncoderPass(activations, operand, weights), weights

    def test_forward_writes_into_its_buffers(self):
        encoder = _encoder(2, "relu")
        graph_pass, weights = self._pass(encoder)
        first = graph_pass.forward(weights)
        expected = first.copy()
        assert graph_pass.forward(weights) is first
        np.testing.assert_array_equal(first, expected)
        np.testing.assert_array_equal(
            first, encoder(Propagation(VIEW, features=GRAPH.attributes)).numpy()
        )

    def test_training_needs_propagated_features(self):
        encoder = _encoder(2, "relu")
        weights = [layer.weight.data for layer in encoder.layers]
        with pytest.raises(ValueError, match="built with features"):
            EncoderPass(["relu", "identity"], Propagation(VIEW), weights)

    def test_weight_count_must_match_layers(self):
        operand = Propagation(VIEW, features=GRAPH.attributes)
        with pytest.raises(ValueError, match="weights for"):
            EncoderPass(["relu", "identity"], operand, [np.zeros((6, 8))])

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activation"):
            EncoderPass(["swish-9000"], sp.identity(3, format="csr"))
