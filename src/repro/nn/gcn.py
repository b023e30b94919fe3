"""The shared GCN encoder as one explicit forward and vector-Jacobian pass.

:class:`EncoderPass` runs a GCN stack on plain weight arrays, such as a
:class:`~repro.nn.layers.SharedGCNEncoder`'s, with no autograd tape.  Each
method replays the numpy operations the tape (:class:`~repro.nn.tensor.Tensor`)
runs for a GCN forward followed by
:func:`~repro.nn.functional.frobenius_loss` and ``backward()``, in the
tape's order, so its losses and weight gradients are bit-identical to the
tape's:

* :meth:`EncoderPass.forward` -- ``H_i = f_i(L H_{i-1} W_i)``; layer 0 reads
  the operand's precomputed ``L X`` (training) or computes ``L (X W_0)``
  from raw features (refinement's re-encodes);
* :meth:`EncoderPass.loss` -- ``sum_k ||H_k H_k^T - L_k||_F`` in the factored
  form of ``frobenius_loss``;
* :meth:`EncoderPass.vjp` -- the loss's gradient with respect to every
  weight, back through each layer's activation and propagation.

Built with the layers' weights, a pass owns a workspace sized for them,
allocated once: per layer an output buffer (``L H W`` in place of its
activation), a gradient buffer and, after layer 0, a product buffer (``H W``
forward, its gradient backward), plus ReLU's mask and one buffer for the
loss's ``L H``.  The last layer's gradient buffer is the loss's scratch: it
holds ``H ⊙ L H`` and then ``∂H``.  Every buffer is overwritten as soon as
its value is dead, and the sparse products write into their buffers through
:func:`~repro.nn.functional.sparse_product`.  So an epoch allocates only
weight-sized arrays and per-view ``d x d`` ones such as the Gram matrices.
Built without weights, the pass is forward-only and every output is a new
array.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.functional import ACTIVATIONS, _operand, sparse_product


def _activate(name: str, value: np.ndarray, mask: Optional[np.ndarray]) -> None:
    """``value = f(value)`` in place; ReLU keeps its mask in ``mask``."""
    if name == "relu":
        mask = np.greater(value, 0, out=mask)
        np.multiply(value, mask, out=value)
    elif name == "tanh":
        np.tanh(value, out=value)
    elif name == "sigmoid":
        # 1 / (1 + exp(-z)), one operation at a time as the tape runs it.
        np.negative(value, out=value)
        np.exp(value, out=value)
        np.add(1.0, value, out=value)
        np.divide(1.0, value, out=value)


def _activation_vjp(
    name: str, gradient: np.ndarray, value: np.ndarray, mask: Optional[np.ndarray]
) -> None:
    """``gradient *= f'`` in place; ``value`` (the output ``f(z)``) is
    overwritten, as nothing reads it afterwards."""
    if name == "relu":
        np.multiply(gradient, mask, out=gradient)
    elif name == "tanh":
        # gradient * (1 - value**2)
        np.square(value, out=value)
        np.subtract(1.0, value, out=value)
        np.multiply(gradient, value, out=gradient)
    elif name == "sigmoid":
        # gradient * value * (1 - value)
        np.multiply(gradient, value, out=gradient)
        np.subtract(1.0, value, out=value)
        np.multiply(gradient, value, out=gradient)


class _Buffers:
    """One layer's workspace: ``output`` holds ``L H W`` and then ``f`` of it,
    ``gradient`` holds ``∂H`` and then ``∂(L H W)``, and ``product`` holds
    ``H W`` and then its gradient (layers after the first only)."""

    def __init__(self, rows: int, width: int, first: bool, relu: bool, dtype) -> None:
        self.output = np.empty((rows, width), dtype)
        self.gradient = np.empty((rows, width), dtype)
        self.product = None if first else np.empty((rows, width), dtype)
        self.mask = np.empty((rows, width), bool) if relu else None


class EncoderPass:
    """One graph's explicit forward, reconstruction loss and VJP.

    Parameters
    ----------
    activations:
        Each layer's activation name, a key of
        :data:`~repro.nn.functional.ACTIVATIONS`.
    operand:
        The graph's propagation matrix: a
        :class:`~repro.nn.functional.Propagation` (holding ``L X`` when
        built with ``features``) or a scipy matrix, wrapped in one.
    weights:
        The layers' weight arrays, which size the workspace and set its
        dtype (the result type of the matrix, ``L X`` and the weights).
        ``None`` makes the pass forward-only.

    The weights themselves are passed to every call: an optimiser step
    rebinds them, and the pass keeps no reference between calls.
    """

    def __init__(
        self,
        activations: Sequence[str],
        operand,
        weights: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        unknown = [name for name in activations if name not in ACTIVATIONS]
        if unknown:
            raise ValueError(
                f"unknown activation {unknown[0]!r}; available: {sorted(ACTIVATIONS)}"
            )
        self.activations = list(activations)
        self.operand = _operand(operand)
        self._layers: Optional[List[_Buffers]] = None
        if weights is not None:
            if self.operand.propagated_features is None:
                raise ValueError("training needs an operand built with features")
            if len(weights) != len(self.activations):
                raise ValueError(
                    f"got {len(weights)} weights for {len(self.activations)} layers"
                )
            rows = self.operand.matrix.shape[0]
            dtype = np.result_type(
                self.operand.matrix.dtype, self.operand.propagated_features, *weights
            )
            self._layers = [
                _Buffers(rows, weight.shape[1], index == 0, name == "relu", dtype)
                for index, (weight, name) in enumerate(zip(weights, self.activations))
            ]
            self._propagated = np.empty((rows, weights[-1].shape[1]), dtype)

    def _workspace(self) -> List[_Buffers]:
        if self._layers is None:
            raise RuntimeError("a forward-only pass has no loss or vjp")
        return self._layers

    def forward(
        self,
        weights: Sequence[np.ndarray],
        features: Optional[np.ndarray] = None,
        all_layers: bool = False,
    ):
        """The encoder's output ``H`` for ``weights``; with ``all_layers``,
        the list of every layer's output.

        With ``features=None`` layer 0 computes ``f((L X) W_0)`` from the
        operand's ``L X``; with ``features`` it computes ``f(L (X W_0))``.
        A training pass returns its output buffers, which the next call
        overwrites; a forward-only pass returns new arrays.
        """
        if features is None and self.operand.propagated_features is None:
            raise ValueError("features are required unless the operand holds L X")
        matrix = self.operand.matrix
        hidden = None
        outputs = []
        for index, (weight, name) in enumerate(zip(weights, self.activations)):
            buffers = self._layers[index] if self._layers is not None else None
            output = buffers.output if buffers is not None else None
            if index == 0 and features is None:
                value = np.matmul(self.operand.propagated_features, weight, out=output)
            else:
                inputs = np.asarray(features) if index == 0 else hidden
                product = buffers.product if buffers is not None else None
                value = sparse_product(
                    matrix, np.matmul(inputs, weight, out=product), output
                )
            _activate(name, value, buffers.mask if buffers is not None else None)
            hidden = value
            outputs.append(value)
        return outputs if all_layers else hidden

    def loss(self) -> float:
        """``sum_k ||H_k H_k^T - L_k||_F`` of the last forward's ``H``.

        The factored form of :func:`~repro.nn.functional.frobenius_loss`,
        operation for operation.  It keeps the Gram matrices, the per-view
        losses and ``L H`` for :meth:`vjp`.
        """
        last = self._workspace()[-1]
        operand = self.operand
        h = last.output
        stacked = h.reshape(operand.blocks, -1, h.shape[1])
        gram = stacked.transpose(0, 2, 1) @ stacked
        propagated = sparse_product(operand.matrix, h, self._propagated)
        overlap = np.multiply(h, propagated, out=last.gradient)
        squared = (
            np.sum(gram * gram, axis=(1, 2))
            - 2.0 * np.sum(overlap.reshape(operand.blocks, -1), axis=1)
            + operand.squared_norms
        )
        self._gram = gram
        self._values = np.sqrt(np.maximum(squared, 0.0) + 1e-12)
        return float(self._values.sum())

    def vjp(self, weights: Sequence[np.ndarray]) -> List[np.ndarray]:
        """The last loss's gradient with respect to each of ``weights``.

        Each gradient is a new array in its weight's dtype; the
        intermediate gradients live in the workspace.
        """
        layers = self._workspace()
        operand = self.operand
        transpose = operand.transpose
        last = layers[-1]
        h = last.output
        stacked = h.reshape(operand.blocks, -1, h.shape[1])
        # (L + L^T) H, where L^T H is the loss's own L H when L is symmetric.
        propagated = self._propagated
        swapped = (
            propagated
            if transpose is operand.matrix
            else sparse_product(transpose, h, last.gradient)
        )
        np.add(propagated, swapped, out=propagated)
        # (2 H_k (H_k^T H_k) - (L_k + L_k^T) H_k) / loss_k on each block.
        blocks = last.gradient.reshape(stacked.shape)
        np.matmul(stacked, self._gram, out=blocks)
        np.multiply(blocks, 2.0, out=blocks)
        np.subtract(blocks, propagated.reshape(stacked.shape), out=blocks)
        np.divide(blocks, self._values[:, None, None], out=blocks)

        gradients: List[np.ndarray] = [None] * len(layers)
        for index in reversed(range(len(layers))):
            buffers = layers[index]
            _activation_vjp(
                self.activations[index], buffers.gradient, buffers.output, buffers.mask
            )
            if index == 0:
                inputs = operand.propagated_features
                upstream = buffers.gradient
            else:
                inputs = layers[index - 1].output
                upstream = sparse_product(transpose, buffers.gradient, buffers.product)
                np.matmul(
                    upstream, weights[index].T, out=layers[index - 1].gradient
                )
            gradients[index] = (inputs.T @ upstream).astype(
                weights[index].dtype, copy=False
            )
        return gradients


__all__ = ["EncoderPass"]
