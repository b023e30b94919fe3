"""GAlign (Trung et al., ICDE 2020) — adaptive unsupervised GCN alignment.

GAlign trains a weight-sharing multi-layer GCN on both networks without
anchors and aligns by comparing *every* layer's embeddings (multi-order
alignment), with data augmentation (perturbed adjacency views) that makes the
model adaptive to consistency violations.  It is the strongest unsupervised
competitor in the paper and the closest relative of HTC (which replaces the
plain adjacency with orbit-weighted views).

Implementation notes: the encoder, reconstruction objective, and optimiser
are the same substrates HTC uses (``repro.nn``); augmentation drops a fraction
of edges from each graph and adds the augmented views' reconstruction losses,
and the final score matrix averages per-layer cosine similarities.  Each
view has its own :class:`~repro.nn.gcn.EncoderPass`; the views' gradients are
summed last view first, as a tape's backward over the summed loss sums them.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.baselines.base import AnchorList, BaseAligner
from repro.datasets.pair import GraphPair
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.laplacian import normalized_laplacian
from repro.graph.perturbation import remove_edges
from repro.nn.functional import Propagation
from repro.nn.gcn import EncoderPass
from repro.nn.layers import SharedGCNEncoder
from repro.nn.optim import Adam
from repro.similarity.measures import cosine_similarity
from repro.utils.random import RandomStateLike, check_random_state


class GAlign(BaseAligner):
    """Unsupervised multi-order GCN alignment with augmentation.

    Parameters
    ----------
    embedding_dim:
        Output dimension of each GCN layer.
    n_layers:
        Number of GCN layers; alignment uses the outputs of all of them.
    epochs, learning_rate:
        Training settings of the shared encoder.
    augment_ratio:
        Fraction of edges dropped to build each graph's augmented view
        (0 disables augmentation).
    """

    name = "GAlign"
    requires_supervision = False

    def __init__(
        self,
        embedding_dim: int = 64,
        n_layers: int = 2,
        epochs: int = 100,
        learning_rate: float = 0.01,
        augment_ratio: float = 0.1,
        random_state: RandomStateLike = 0,
    ) -> None:
        if n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {n_layers}")
        if not 0.0 <= augment_ratio < 1.0:
            raise ValueError(f"augment_ratio must be in [0, 1), got {augment_ratio}")
        self.embedding_dim = embedding_dim
        self.n_layers = n_layers
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.augment_ratio = augment_ratio
        self.random_state = random_state

    def _views(self, graph: AttributedGraph, rng) -> List[Propagation]:
        """Original plus (optionally) one augmented propagation operand.

        Each holds ``L X`` for the graph's attributes, so training and the
        final encoding run the first layer with no sparse product.
        """
        adjacencies = [graph.adjacency]
        if self.augment_ratio > 0:
            augmented = remove_edges(graph, self.augment_ratio, random_state=rng)
            adjacencies.append(augmented.adjacency)
        return [
            Propagation(normalized_laplacian(adjacency), features=graph.attributes)
            for adjacency in adjacencies
        ]

    def align(self, pair: GraphPair, train_anchors: AnchorList = None) -> np.ndarray:
        self._check_pair(pair)
        if pair.source.n_attributes != pair.target.n_attributes:
            raise ValueError("source and target must share an attribute space")
        rng = check_random_state(self.random_state)

        source_views = self._views(pair.source, rng)
        target_views = self._views(pair.target, rng)

        encoder = SharedGCNEncoder(
            in_features=pair.source.n_attributes,
            hidden_dims=[self.embedding_dim] * self.n_layers,
            activations=["relu"] * (self.n_layers - 1) + ["identity"],
            random_state=rng,
        )
        optimizer = Adam(encoder.weights, lr=self.learning_rate)
        passes = [
            EncoderPass(encoder.activations, view, encoder.weights)
            for view in source_views + target_views
        ]

        for _ in range(self.epochs):
            weights = encoder.weights
            view_gradients = []
            for view_pass in passes:
                view_pass.forward(weights)
                view_pass.loss()
                view_gradients.append(view_pass.vjp(weights))
            gradients = view_gradients[-1]
            for terms in reversed(view_gradients[:-1]):
                gradients = [total + term for total, term in zip(gradients, terms)]
            encoder.weights = optimizer.step(weights, gradients)

        # Multi-order alignment: average the per-layer similarity matrices of
        # the un-augmented views.
        source_layers = encoder(source_views[0], all_layers=True)
        target_layers = encoder(target_views[0], all_layers=True)
        scores = np.zeros((pair.source.n_nodes, pair.target.n_nodes))
        for source_layer, target_layer in zip(source_layers, target_layers):
            scores += cosine_similarity(source_layer, target_layer)
        return scores / len(source_layers)


__all__ = ["GAlign"]
