"""PALE (Man et al., IJCAI 2016) — predict anchor links via embedding.

PALE works in two phases: (1) embed each network independently to preserve
first-order proximity, and (2) learn a supervised mapping (linear or MLP)
from source-embedding space to target-embedding space using the observed
anchor links.  Alignment scores are similarities between mapped source
embeddings and target embeddings.

This implementation uses the shared spectral embedding
(:mod:`repro.baselines.embedding`) for phase 1 and trains a one-hidden-layer
ReLU MLP for phase 2 with Adam on the mean squared error, by its closed-form
gradient.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AnchorList, BaseAligner
from repro.baselines.embedding import spectral_embedding
from repro.datasets.pair import GraphPair
from repro.nn.init import glorot_uniform
from repro.nn.optim import Adam
from repro.similarity.measures import cosine_similarity
from repro.utils.random import RandomStateLike, check_random_state


def _map(weights, inputs):
    """The mapping MLP's hidden layer ``relu(x W1 + b1)``, its ReLU mask,
    and its output ``h W2 + b2``."""
    w1, b1, w2, b2 = weights
    hidden = inputs @ w1 + b1
    mask = hidden > 0
    hidden = hidden * mask
    return hidden, mask, hidden @ w2 + b2


def _mse_gradients(weights, inputs, targets):
    """The gradients of ``mean((y - targets)^2)`` with respect to ``weights``.

    Each operation is the one an autograd tape runs for the loss: the error
    is ``y + (-t)``, the squared error's two factors each contribute
    ``s * error`` with ``s = 1 / size``, and a bias gradient sums its
    layer's gradient over the rows.
    """
    w1, _, w2, _ = weights
    hidden, mask, outputs = _map(weights, inputs)
    error = outputs + (-targets)
    scale = 1.0 / error.size
    output_gradient = scale * error + scale * error
    hidden_gradient = (output_gradient @ w2.T) * mask
    return [
        inputs.T @ hidden_gradient,
        hidden_gradient.sum(axis=0),
        hidden.T @ output_gradient,
        output_gradient.sum(axis=0),
    ]


class PALE(BaseAligner):
    """Embedding + supervised-mapping alignment.

    Parameters
    ----------
    embedding_dim:
        Dimension of the per-network embeddings.
    hidden_dim:
        Hidden width of the mapping MLP.
    epochs, learning_rate:
        Mapping-network training settings.
    """

    name = "PALE"
    requires_supervision = True

    def __init__(
        self,
        embedding_dim: int = 64,
        hidden_dim: int = 64,
        epochs: int = 200,
        learning_rate: float = 0.01,
        random_state: RandomStateLike = 0,
    ) -> None:
        if embedding_dim < 1 or hidden_dim < 1:
            raise ValueError("embedding_dim and hidden_dim must be >= 1")
        self.embedding_dim = embedding_dim
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.random_state = random_state

    def align(self, pair: GraphPair, train_anchors: AnchorList = None) -> np.ndarray:
        self._check_pair(pair)
        source_embedding = spectral_embedding(pair.source, self.embedding_dim)
        target_embedding = spectral_embedding(pair.target, self.embedding_dim)

        if not train_anchors:
            # Without supervision PALE degenerates to comparing the two
            # (incomparable) embedding spaces directly.
            return cosine_similarity(source_embedding, target_embedding)

        dim = source_embedding.shape[1]
        rng = check_random_state(self.random_state)
        w1 = glorot_uniform(dim, self.hidden_dim, rng)
        w2 = glorot_uniform(self.hidden_dim, dim, rng)
        weights = [w1, np.zeros(self.hidden_dim, w1.dtype), w2, np.zeros(dim, w2.dtype)]
        optimizer = Adam(weights, lr=self.learning_rate)

        anchor_source = np.array([i for i, _ in train_anchors], dtype=np.int64)
        anchor_target = np.array([j for _, j in train_anchors], dtype=np.int64)
        inputs = source_embedding[anchor_source]
        targets = target_embedding[anchor_target]

        for _ in range(self.epochs):
            weights = optimizer.step(weights, _mse_gradients(weights, inputs, targets))

        _, _, mapped = _map(weights, source_embedding)
        return cosine_similarity(mapped, target_embedding)


__all__ = ["PALE"]
