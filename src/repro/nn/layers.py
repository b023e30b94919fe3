"""Neural layers: dense, GCN, and the shared multi-graph GCN encoder.

The :class:`SharedGCNEncoder` is the parameter container used by HTC and
GAlign: a stack of GCN weight matrices whose propagation matrix (a normalised
Laplacian) is supplied at call time, so the *same* parameters encode the
source graph, the target graph, and every orbit view (paper Eq. 4-5 and the
multi-orbit-aware training of §IV-C).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.functional import get_activation, sparse_matmul
from repro.nn.init import glorot_uniform, zeros
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.utils.random import RandomStateLike, check_random_state


class Linear(Module):
    """Dense affine layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        random_state: RandomStateLike = None,
    ) -> None:
        super().__init__()
        rng = check_random_state(random_state)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(glorot_uniform(in_features, out_features, rng), "weight")
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = Parameter(zeros(out_features), "bias")

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs @ self.weight
        if self.bias is not None:
            output = output + self.bias
        return output


class GCNLayer(Module):
    """One graph-convolution layer ``H' = f(L H W)``.

    The propagation matrix ``L`` (a normalised, possibly orbit-weighted
    Laplacian, or a :class:`~repro.nn.functional.Propagation` operand) is
    passed at call time so the layer's weights can be shared across graphs
    and orbit views.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str = "relu",
        random_state: RandomStateLike = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.activation_name = activation
        self._activation = get_activation(activation)
        self.weight = Parameter(
            glorot_uniform(in_features, out_features, check_random_state(random_state)),
            "weight",
        )

    def forward(self, laplacian, features: Optional[Tensor]) -> Tensor:
        """``f(L H W)``; with ``features=None``, ``f((L X) W)`` from the
        operand's precomputed ``L X``, which needs no sparse product."""
        if features is None:
            if getattr(laplacian, "propagated_features", None) is None:
                raise ValueError("features are required unless the operand holds L X")
            propagated = Tensor(laplacian.propagated_features) @ self.weight
        else:
            propagated = sparse_matmul(laplacian, features @ self.weight)
        return self._activation(propagated)


class SharedGCNEncoder(Module):
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
    """

    def __init__(
        self,
        in_features: int,
        hidden_dims: Sequence[int],
        activations: Optional[Sequence[str]] = None,
        random_state: RandomStateLike = None,
    ) -> None:
        super().__init__()
        if not hidden_dims:
            raise ValueError("hidden_dims must contain at least one layer size")
        rng = check_random_state(random_state)
        if activations is None:
            activations = ["relu"] * (len(hidden_dims) - 1) + ["identity"]
        if len(activations) != len(hidden_dims):
            raise ValueError(
                f"got {len(activations)} activations for {len(hidden_dims)} layers"
            )
        self.layer_dims = [in_features, *hidden_dims]
        self.layers: List[GCNLayer] = []
        for index, (dim_in, dim_out) in enumerate(
            zip(self.layer_dims[:-1], self.layer_dims[1:])
        ):
            layer = GCNLayer(dim_in, dim_out, activations[index], random_state=rng)
            setattr(self, f"layer_{index}", layer)
            self.layers.append(layer)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

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

        Parameters
        ----------
        laplacian:
            The propagation matrix for this graph/orbit view: a scipy sparse
            matrix or a :class:`~repro.nn.functional.Propagation`.
        features:
            ``(n, in_features)`` input attributes (constant; gradients flow to
            the layer weights only).  ``None`` reads ``L X`` from an operand
            built with ``features=X``, so the first layer runs no sparse
            product.
        all_layers:
            If True, return the list of every layer's output (used by GAlign's
            multi-order alignment); otherwise return only the final embedding.
        """
        # Floating features keep their dtype; non-floating input is promoted
        # to the nn default dtype (float64 unless set_default_dtype changed it).
        hidden = None if features is None else Tensor(np.asarray(features))
        outputs = []
        for layer in self.layers:
            hidden = layer(laplacian, hidden)
            outputs.append(hidden)
        if all_layers:
            return outputs
        return hidden


__all__ = ["Linear", "GCNLayer", "SharedGCNEncoder"]
