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


def frobenius_loss(embedding: Tensor, target: sp.spmatrix) -> Tensor:
    """Reconstruction loss ``||H H^T - target||_F`` of Eq. 7, matrix-free.

    ``embedding`` is ``H`` (n x d) and ``target`` the constant scipy-sparse
    view ``L`` (n x n) that the inner-product decoder must reconstruct.  The
    loss uses the exact factored form

        ||H H^T - L||_F^2 = ||H^T H||_F^2 - 2 <H, L H> + ||L||_F^2

    and is one graph node whose vector-Jacobian product is
    ``(2 H (H^T H) - (L + L^T) H) / loss``, so an evaluation costs
    O(n d^2 + nnz d) and allocates no n x n array.  A small epsilon keeps the
    square root differentiable at zero; the factored sum is clamped at zero
    first because rounding can push it just below at an exact fit.
    """
    if not sp.issparse(target):
        raise TypeError("frobenius_loss expects a scipy sparse target")
    n_nodes = embedding.shape[0]
    if target.shape != (n_nodes, n_nodes):
        raise ValueError(
            f"target shape {target.shape} != reconstruction shape {(n_nodes, n_nodes)}"
        )
    target = target.tocsr()
    h = embedding.data
    gram = h.T @ h
    propagated = target.dot(h)
    squared = (
        np.sum(gram * gram)
        - 2.0 * np.sum(h * propagated)
        + target.multiply(target).sum()
    )
    value = np.sqrt(max(squared, 0.0) + 1e-12)
    out = Tensor(value, requires_grad=embedding.requires_grad, _parents=(embedding,))

    def backward(gradient: np.ndarray) -> None:
        if embedding.requires_grad:
            symmetric = propagated + target.T.dot(h)
            embedding._accumulate(gradient * (2.0 * (h @ gram) - symmetric) / value)

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
