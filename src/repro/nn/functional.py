"""Functional operations on :class:`repro.nn.Tensor`.

These cover exactly what the library's models need: non-linearities, matrix
products (including the sparse-constant product used for Laplacian
propagation), reductions, and the Frobenius reconstruction loss used by the
multi-orbit-aware trainer (Eq. 7 of the paper).
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.nn.tensor import Tensor


def relu(tensor: Tensor) -> Tensor:
    """Rectified linear unit."""
    mask = tensor.data > 0
    out = Tensor(
        tensor.data * mask, requires_grad=tensor.requires_grad, _parents=(tensor,)
    )

    def backward(gradient: np.ndarray) -> None:
        if tensor.requires_grad:
            tensor._accumulate(gradient * mask)

    out._backward = backward
    return out


def tanh(tensor: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    value = np.tanh(tensor.data)
    out = Tensor(value, requires_grad=tensor.requires_grad, _parents=(tensor,))

    def backward(gradient: np.ndarray) -> None:
        if tensor.requires_grad:
            tensor._accumulate(gradient * (1.0 - value**2))

    out._backward = backward
    return out


def sigmoid(tensor: Tensor) -> Tensor:
    """Logistic sigmoid."""
    value = 1.0 / (1.0 + np.exp(-tensor.data))
    out = Tensor(value, requires_grad=tensor.requires_grad, _parents=(tensor,))

    def backward(gradient: np.ndarray) -> None:
        if tensor.requires_grad:
            tensor._accumulate(gradient * value * (1.0 - value))

    out._backward = backward
    return out


def identity(tensor: Tensor) -> Tensor:
    """Identity activation (useful as the last encoder layer)."""
    return tensor


ACTIVATIONS = {
    "relu": relu,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "identity": identity,
    "linear": identity,
}


def get_activation(name: str):
    """Look up an activation function by name."""
    try:
        return ACTIVATIONS[name]
    except KeyError as error:
        raise ValueError(
            f"unknown activation {name!r}; available: {sorted(ACTIVATIONS)}"
        ) from error


def matmul(left: Tensor, right: Tensor) -> Tensor:
    """Dense matrix product (differentiable in both arguments)."""
    return left @ right


def sparse_matmul(sparse: sp.spmatrix, dense: Tensor) -> Tensor:
    """Product ``S @ H`` where ``S`` is a constant scipy sparse matrix.

    Gradients flow only to ``dense``: ``dL/dH = S^T @ dL/dY``.  This is the
    propagation step ``~L H`` of every GCN layer in the library.
    """
    if not sp.issparse(sparse):
        raise TypeError("sparse_matmul expects a scipy sparse matrix on the left")
    sparse = sparse.tocsr()
    out = Tensor(
        sparse.dot(dense.data), requires_grad=dense.requires_grad, _parents=(dense,)
    )

    def backward(gradient: np.ndarray) -> None:
        if dense.requires_grad:
            dense._accumulate(sparse.T.dot(gradient))

    out._backward = backward
    return out


def square(tensor: Tensor) -> Tensor:
    """Element-wise square."""
    return tensor * tensor


def sum_all(tensor: Tensor) -> Tensor:
    """Sum of all elements (scalar tensor)."""
    return tensor.sum()


def mean(tensor: Tensor) -> Tensor:
    """Mean of all elements (scalar tensor)."""
    return tensor.mean()


def softmax_rows(tensor: Tensor) -> Tensor:
    """Row-wise softmax (differentiable), used by attention-style baselines."""
    shifted = tensor.data - tensor.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    value = exp / exp.sum(axis=1, keepdims=True)
    out = Tensor(value, requires_grad=tensor.requires_grad, _parents=(tensor,))

    def backward(gradient: np.ndarray) -> None:
        if tensor.requires_grad:
            dot = (gradient * value).sum(axis=1, keepdims=True)
            tensor._accumulate(value * (gradient - dot))

    out._backward = backward
    return out


def frobenius_loss(embedding: Tensor, target: sp.spmatrix, blocks: int = 1) -> Tensor:
    """Reconstruction loss ``||H H^T - target||_F`` of Eq. 7, matrix-free.

    ``embedding`` is ``H`` (n x d) and ``target`` the constant scipy-sparse
    view ``L`` (n x n) that the inner-product decoder must reconstruct.
    ``target`` is block-diagonal with ``blocks`` equal square blocks ``L_k``
    (entries off those blocks must be zero), ``H_k`` are the matching row
    blocks of ``H``, and the result is ``sum_k ||H_k H_k^T - L_k||_F``;
    ``blocks=1`` is the plain loss.  Each term uses the exact factored form

        ||H_k H_k^T - L_k||_F^2 = ||H_k^T H_k||_F^2 - 2 <H_k, L_k H_k> + ||L_k||_F^2

    and the sum is one graph node whose vector-Jacobian product is
    ``(2 H_k (H_k^T H_k) - (L_k + L_k^T) H_k) / loss_k`` on each block, so an
    evaluation costs O(n d^2 + nnz d) and allocates no n x n array.  A small
    epsilon keeps each square root differentiable at zero; each factored sum
    is clamped at zero first because rounding can push it just below at an
    exact fit.
    """
    if not sp.issparse(target):
        raise TypeError("frobenius_loss expects a scipy sparse target")
    n_nodes = embedding.shape[0]
    if blocks < 1 or n_nodes % blocks:
        raise ValueError(f"{n_nodes} rows do not split into {blocks} equal blocks")
    if target.shape != (n_nodes, n_nodes):
        raise ValueError(
            f"target shape {target.shape} != reconstruction shape {(n_nodes, n_nodes)}"
        )
    target = target.tocsr()
    h = embedding.data
    stacked = h.reshape(blocks, n_nodes // blocks, h.shape[1])
    gram = stacked.transpose(0, 2, 1) @ stacked
    propagated = target.dot(h)
    # The elementwise product is canonical (duplicates summed before squaring),
    # so its data splits into the blocks' rows at the block boundaries.
    squares = target.multiply(target)
    bounds = squares.indptr[np.arange(blocks + 1) * (n_nodes // blocks)]
    squared = (
        np.sum(gram * gram, axis=(1, 2))
        - 2.0 * np.sum((h * propagated).reshape(blocks, -1), axis=1)
        + np.array([squares.data[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])])
    )
    values = np.sqrt(np.maximum(squared, 0.0) + 1e-12)
    out = Tensor(
        values.sum(), requires_grad=embedding.requires_grad, _parents=(embedding,)
    )

    def backward(gradient: np.ndarray) -> None:
        if embedding.requires_grad:
            symmetric = (propagated + target.T.dot(h)).reshape(stacked.shape)
            block_grads = gradient * (2.0 * (stacked @ gram) - symmetric)
            embedding._accumulate(
                (block_grads / values[:, None, None]).reshape(h.shape)
            )

    out._backward = backward
    return out


def mse_loss(prediction: Tensor, target: Union[np.ndarray, Tensor]) -> Tensor:
    """Mean squared error between ``prediction`` and a constant ``target``."""
    if isinstance(target, Tensor):
        target = target.data
    diff = prediction - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


__all__ = [
    "relu",
    "tanh",
    "sigmoid",
    "identity",
    "get_activation",
    "ACTIVATIONS",
    "matmul",
    "sparse_matmul",
    "square",
    "sum_all",
    "mean",
    "softmax_rows",
    "frobenius_loss",
    "mse_loss",
]
