"""Functional operations on :class:`repro.nn.Tensor`.

These cover exactly what the library's models need: non-linearities, matrix
products (including the sparse-constant product used for Laplacian
propagation), reductions, and the Frobenius reconstruction loss used by the
multi-orbit-aware trainer (Eq. 7 of the paper).  The two sparse primitives,
:func:`sparse_matmul` and :func:`frobenius_loss`, take their constant matrix
as a :class:`Propagation` operand (or a scipy matrix they wrap in one) and
carry explicit vector-Jacobian products.  :func:`sparse_product` is the
plain-array product behind a propagation's ``L X`` and the explicit encoder
pass of :mod:`repro.nn.gcn`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.nn.tensor import Tensor

try:  # scipy's own CSR kernel, private; sparse_product falls back to L.dot.
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - depends on the installed scipy
    _csr_matvecs = None

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


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


def sparse_product(
    matrix: sp.spmatrix, dense: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``matrix @ dense`` for a scipy sparse ``matrix``, written into ``out``.

    ``out`` (a new array when ``None``) is overwritten and returned.  The
    fast path calls the kernel ``matrix.dot`` itself runs for a CSR matrix,
    ``scipy.sparse._sparsetools.csr_matvecs``, directly on ``out``.  It is
    taken only where that is the same computation: ``matrix`` is CSR,
    ``matrix``, ``dense`` and ``out`` share one float dtype, and ``dense``
    and ``out`` are C-contiguous 2-D arrays of matching shapes.  The kernel
    adds into its output, so ``out`` is zeroed first, as ``matrix.dot``
    zeroes the array it allocates; the result is bit-identical to
    ``matrix.dot(dense)``.  Any other operands, or a scipy without the
    function, take ``matrix.dot(dense)`` and copy it into ``out``.
    """
    rows, cols = matrix.shape
    fast = (
        _csr_matvecs is not None
        and getattr(matrix, "format", None) == "csr"
        and matrix.dtype in _FLOAT_DTYPES
        and dense.dtype == matrix.dtype
        and dense.ndim == 2
        and dense.shape[0] == cols
        and dense.flags.c_contiguous
        and (
            out is None
            or (
                out.dtype == matrix.dtype
                and out.shape == (rows, dense.shape[1])
                and out.flags.c_contiguous
                and out.flags.writeable
            )
        )
    )
    if not fast:
        product = matrix.dot(dense)
        if out is None:
            return product
        out[...] = product
        return out
    if out is None:
        out = np.zeros((rows, dense.shape[1]), dtype=dense.dtype)
    else:
        out.fill(0)
    _csr_matvecs(
        rows,
        cols,
        dense.shape[1],
        matrix.indptr,
        matrix.indices,
        matrix.data,
        dense.ravel(),
        out.ravel(),
    )
    return out


class Propagation:
    """A constant sparse propagation matrix ``L``, prepared for repeated use.

    A GCN layer multiplies by ``L`` and its vector-Jacobian product by
    ``L^T``; the reconstruction loss needs ``L H`` and the squared Frobenius
    norm of each diagonal block ``L_k``.  A training loop uses one matrix
    every epoch, so the operand resolves each of these once:

    * ``matrix`` -- ``L`` as CSR, made canonical (sorted indices, no
      duplicates) when the transpose or the norms are first resolved;
    * ``transpose`` -- ``L`` itself when its CSR arrays equal those of its
      transpose (every propagation matrix the library builds), otherwise
      the CSR transpose.  On an exactly symmetric ``L`` with sorted indices
      ``L.dot(g)`` is bit-identical to ``L.T.dot(g)``: both add each
      output's terms in ascending index order;
    * ``squared_norms`` -- ``||L_k||_F^2`` of each of the ``blocks`` equal
      diagonal blocks;
    * ``propagated_features`` -- ``L X`` for the constant encoder input
      ``features`` (``None`` when not given), so a first GCN layer computes
      ``f((L X) W)`` with no sparse product forward or backward.

    The constructor checks shapes and, for ``blocks > 1``, that no stored
    entry lies outside the diagonal blocks.  The transpose and the norms are
    resolved on first use, so wrapping a matrix for a forward-only product
    costs no O(nnz) work.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        blocks: int = 1,
        features: Optional[np.ndarray] = None,
    ) -> None:
        if not sp.issparse(matrix):
            raise TypeError(
                f"expected a scipy sparse matrix, got {type(matrix).__name__}"
            )
        matrix = matrix.tocsr()
        n_rows, n_cols = matrix.shape
        if n_rows != n_cols:
            raise ValueError(f"propagation matrix must be square, got {matrix.shape}")
        if blocks < 1 or n_rows % blocks:
            raise ValueError(f"{n_rows} rows do not split into {blocks} equal blocks")
        if blocks > 1:
            size = n_rows // blocks
            row_blocks = np.repeat(np.arange(n_rows) // size, np.diff(matrix.indptr))
            if np.any(matrix.indices // size != row_blocks):
                raise ValueError(
                    f"matrix has stored entries outside its {blocks} diagonal blocks"
                )
        self.matrix = matrix
        self.blocks = blocks
        self.propagated_features = (
            None if features is None else sparse_product(matrix, np.asarray(features))
        )
        self._transpose: Optional[sp.csr_matrix] = None
        self._squared_norms: Optional[np.ndarray] = None

    def _canonical(self) -> sp.csr_matrix:
        """``matrix`` with sorted indices and no duplicates (a copy if needed)."""
        if not self.matrix.has_canonical_format:
            self.matrix = self.matrix.copy()
            self.matrix.sum_duplicates()
        return self.matrix

    @property
    def transpose(self) -> sp.csr_matrix:
        """``L^T`` as CSR; ``matrix`` itself when the two are equal."""
        if self._transpose is None:
            matrix = self._canonical()
            transposed = matrix.T.tocsr()
            symmetric = all(
                np.array_equal(getattr(transposed, name), getattr(matrix, name))
                for name in ("indptr", "indices", "data")
            )
            self._transpose = matrix if symmetric else transposed
        return self._transpose

    @property
    def squared_norms(self) -> np.ndarray:
        """``||L_k||_F^2`` of each diagonal block."""
        if self._squared_norms is None:
            # Canonical data holds each entry once, so it splits into the
            # blocks' rows at the block boundaries.
            matrix = self._canonical()
            squares = matrix.data * matrix.data
            size = matrix.shape[0] // self.blocks
            bounds = matrix.indptr[np.arange(self.blocks + 1) * size]
            self._squared_norms = np.array(
                [squares[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])]
            )
        return self._squared_norms


def _operand(matrix, blocks: Optional[int] = None) -> Propagation:
    """``matrix`` as a :class:`Propagation`, wrapping a scipy matrix."""
    if isinstance(matrix, Propagation):
        if blocks not in (None, matrix.blocks):
            raise ValueError(f"operand has {matrix.blocks} blocks, not {blocks}")
        return matrix
    return Propagation(matrix, 1 if blocks is None else blocks)


def sparse_matmul(sparse, dense: Tensor) -> Tensor:
    """Product ``L @ H`` where ``L`` is constant: a scipy sparse matrix or a
    :class:`Propagation`.

    Gradients flow only to ``dense``, through the vjp ``L^T @ g`` with the
    operand's resolved transpose.  This is the propagation step ``~L H`` of
    every GCN layer in the library.
    """
    operand = _operand(sparse)
    out = Tensor(
        operand.matrix.dot(dense.data),
        requires_grad=dense.requires_grad,
        _parents=(dense,),
    )

    def backward(gradient: np.ndarray) -> None:
        if dense.requires_grad:
            dense._accumulate(operand.transpose.dot(gradient))

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


def frobenius_loss(embedding: Tensor, target, blocks: Optional[int] = None) -> Tensor:
    """Reconstruction loss ``||H H^T - target||_F`` of Eq. 7, matrix-free.

    ``embedding`` is ``H`` (n x d) and ``target`` the constant view ``L``
    (n x n) that the inner-product decoder must reconstruct: a
    :class:`Propagation`, or a scipy sparse matrix wrapped in one with
    ``blocks`` blocks (default 1; a given operand's own count must agree).
    ``target`` is block-diagonal with ``blocks`` equal square blocks ``L_k``,
    ``H_k`` are the matching row blocks of ``H``, and the result is
    ``sum_k ||H_k H_k^T - L_k||_F``; ``blocks=1`` is the plain loss.  Each
    term uses the exact factored form

        ||H_k H_k^T - L_k||_F^2 = ||H_k^T H_k||_F^2 - 2 <H_k, L_k H_k> + ||L_k||_F^2

    and the sum is one graph node whose vector-Jacobian product is
    ``(2 H_k (H_k^T H_k) - (L_k + L_k^T) H_k) / loss_k`` on each block, so an
    evaluation costs O(n d^2 + nnz d) and allocates no n x n array.  The one
    sparse product ``L H`` serves both terms when ``L`` is symmetric, and
    ``||L_k||_F^2`` comes from the operand.  A small epsilon keeps each
    square root differentiable at zero; each factored sum is clamped at zero
    first because rounding can push it just below at an exact fit.
    """
    operand = _operand(target, blocks)
    n_nodes = embedding.shape[0]
    if operand.matrix.shape != (n_nodes, n_nodes):
        raise ValueError(
            f"target shape {operand.matrix.shape} != reconstruction shape "
            f"{(n_nodes, n_nodes)}"
        )
    h = embedding.data
    stacked = h.reshape(operand.blocks, n_nodes // operand.blocks, h.shape[1])
    gram = stacked.transpose(0, 2, 1) @ stacked
    propagated = operand.matrix.dot(h)
    squared = (
        np.sum(gram * gram, axis=(1, 2))
        - 2.0 * np.sum((h * propagated).reshape(operand.blocks, -1), axis=1)
        + operand.squared_norms
    )
    values = np.sqrt(np.maximum(squared, 0.0) + 1e-12)
    out = Tensor(
        values.sum(), requires_grad=embedding.requires_grad, _parents=(embedding,)
    )

    def backward(gradient: np.ndarray) -> None:
        if embedding.requires_grad:
            transpose = operand.transpose
            # L^T H is the forward product itself when L is symmetric.
            swapped = propagated if transpose is operand.matrix else transpose.dot(h)
            symmetric = (propagated + swapped).reshape(stacked.shape)
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
    "Propagation",
    "sparse_product",
    "sparse_matmul",
    "square",
    "sum_all",
    "mean",
    "softmax_rows",
    "frobenius_loss",
    "mse_loss",
]
