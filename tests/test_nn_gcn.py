"""Tests for repro.nn.gcn, the shared encoder's explicit pass.

Training's use of the pass (losses and weights against the tape) is tested
in ``test_core_training.py``; here the forward-only pass that
``SharedGCNEncoder.forward`` runs for refinement, ``encode_views`` and
GAlign is compared with the tape's GCN forward (``tape_encode``) bit for
bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.config import HTCConfig
from repro.core.encoder import build_topology_views, make_encoder
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.laplacian import reinforced_laplacian
from repro.nn.functional import ACTIVATIONS, Propagation
from repro.nn.gcn import EncoderPass
from repro.nn.layers import SharedGCNEncoder

from _helpers import tape_encode, tape_leaves

GRAPH = powerlaw_cluster_graph(50, 3, n_attributes=6, random_state=0)
VIEW = build_topology_views(GRAPH, HTCConfig(orbits=[2]))[2]


def _encoder(n_layers, activation):
    config = HTCConfig(embedding_dim=8, n_layers=n_layers, activation=activation)
    return make_encoder(GRAPH.n_attributes, config)


def _tape(encoder, laplacian, features=None, all_layers=False):
    """``encoder``'s output on the tape, as arrays."""
    outputs = tape_encode(
        tape_leaves(encoder.weights), encoder.activations, laplacian, features, True
    )
    arrays = [output.data for output in outputs]
    return arrays if all_layers else arrays[-1]


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
            encoder(view, GRAPH.attributes), _tape(encoder, view, GRAPH.attributes)
        )

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_operand_features_match_the_tape(self, activation):
        """With ``features=None`` layer 0 reads the operand's ``L X``; every
        layer may carry an activation, the last one too."""
        encoder = SharedGCNEncoder(GRAPH.n_attributes, [8, 8, 4], [activation] * 3)
        operand = Propagation(VIEW, features=GRAPH.attributes)
        for got, expected in zip(
            encoder(operand, all_layers=True), _tape(encoder, operand, all_layers=True)
        ):
            np.testing.assert_array_equal(got, expected)

    def test_outputs_are_new_arrays(self):
        encoder = _encoder(2, "relu")
        first = encoder(VIEW, GRAPH.attributes, all_layers=True)
        second = encoder(VIEW, GRAPH.attributes, all_layers=True)
        for one, other in zip(first, second):
            assert one is not other
            assert not np.shares_memory(one, other)
            np.testing.assert_array_equal(one, other)
        assert not np.shares_memory(first[0], first[1])

    def test_has_no_loss_or_vjp(self):
        forward_only = EncoderPass(["relu", "identity"], VIEW)
        with pytest.raises(RuntimeError, match="forward-only"):
            forward_only.loss()
        with pytest.raises(RuntimeError, match="forward-only"):
            forward_only.vjp([])

    def test_needs_features_or_their_propagation(self):
        encoder = _encoder(1, "relu")
        with pytest.raises(ValueError, match="features are required"):
            encoder(VIEW)


class TestWorkspace:
    def _pass(self, encoder):
        operand = Propagation(VIEW, features=GRAPH.attributes)
        return EncoderPass(encoder.activations, operand, encoder.weights)

    def test_forward_writes_into_its_buffers(self):
        encoder = _encoder(2, "relu")
        graph_pass = self._pass(encoder)
        first = graph_pass.forward(encoder.weights)
        expected = first.copy()
        assert graph_pass.forward(encoder.weights) is first
        np.testing.assert_array_equal(first, expected)
        np.testing.assert_array_equal(
            first, encoder(Propagation(VIEW, features=GRAPH.attributes))
        )
        layers = graph_pass.forward(encoder.weights, all_layers=True)
        assert layers[-1] is first

    def test_training_needs_propagated_features(self):
        encoder = _encoder(2, "relu")
        with pytest.raises(ValueError, match="built with features"):
            EncoderPass(["relu", "identity"], Propagation(VIEW), encoder.weights)

    def test_weight_count_must_match_layers(self):
        operand = Propagation(VIEW, features=GRAPH.attributes)
        with pytest.raises(ValueError, match="weights for"):
            EncoderPass(["relu", "identity"], operand, [np.zeros((6, 8))])

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activation"):
            EncoderPass(["swish-9000"], sp.identity(3, format="csr"))
