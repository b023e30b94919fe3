"""The shared multi-graph GCN encoder.

:class:`SharedGCNEncoder` holds the weights used by HTC and GAlign: one
GCN weight matrix per layer, plain arrays, whose propagation matrix (a
normalised Laplacian) is supplied at call time, so the *same* weights encode
the source graph, the target graph, and every orbit view (paper Eq. 4-5 and
the multi-orbit-aware training of §IV-C).  Trainers read ``weights`` and
rebind it to the optimiser's updated arrays.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.functional import get_activation
from repro.nn.gcn import EncoderPass
from repro.nn.init import glorot_uniform
from repro.utils.random import RandomStateLike, check_random_state


class SharedGCNEncoder:
    """A stack of GCN layers with weights shared across graphs and orbits.

    Parameters
    ----------
    in_features:
        Attribute dimensionality of the input graphs.
    hidden_dims:
        Output dimensionality of each layer (the paper uses two layers of the
        same embedding dimension ``d``).
    activations:
        Activation name per layer.  Defaults to ReLU on hidden layers and a
        linear final layer (so embeddings are unconstrained for the inner
        product decoder).

    ``weights`` holds one Glorot-initialised ``(d_in, d_out)`` array per
    layer, drawn in layer order from ``random_state``.
    """

    def __init__(
        self,
        in_features: int,
        hidden_dims: Sequence[int],
        activations: Optional[Sequence[str]] = None,
        random_state: RandomStateLike = None,
    ) -> None:
        if not hidden_dims:
            raise ValueError("hidden_dims must contain at least one layer size")
        rng = check_random_state(random_state)
        if activations is None:
            activations = ["relu"] * (len(hidden_dims) - 1) + ["identity"]
        if len(activations) != len(hidden_dims):
            raise ValueError(
                f"got {len(activations)} activations for {len(hidden_dims)} layers"
            )
        for name in activations:
            get_activation(name)
        self.activations = list(activations)
        self.layer_dims = [in_features, *hidden_dims]
        self.weights = [
            glorot_uniform(dim_in, dim_out, rng)
            for dim_in, dim_out in zip(self.layer_dims[:-1], self.layer_dims[1:])
        ]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def embedding_dim(self) -> int:
        return self.layer_dims[-1]

    def forward(
        self,
        laplacian,
        features: Optional[np.ndarray] = None,
        all_layers: bool = False,
    ):
        """Encode ``features`` by propagating through ``laplacian``.

        Runs the forward-only :class:`~repro.nn.gcn.EncoderPass` over the
        current weights; every output is a new array.

        Parameters
        ----------
        laplacian:
            The propagation matrix for this graph/orbit view: a scipy sparse
            matrix or a :class:`~repro.nn.functional.Propagation`.
        features:
            ``(n, in_features)`` input attributes.  ``None`` reads ``L X``
            from an operand built with ``features=X``, so the first layer
            runs no sparse product.
        all_layers:
            If True, return the list of every layer's output (used by GAlign's
            multi-order alignment); otherwise return only the final embedding.
        """
        forward_only = EncoderPass(self.activations, laplacian)
        return forward_only.forward(self.weights, features, all_layers)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


__all__ = ["SharedGCNEncoder"]
