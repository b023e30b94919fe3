"""Minimal neural-network substrate (reverse-mode autograd on numpy).

The paper's model is a two-layer GCN trained with Adam on a Frobenius
reconstruction loss.  Rather than depending on PyTorch (unavailable offline),
this package implements the required pieces from scratch:

* :class:`Tensor` — a numpy-backed tensor with reverse-mode automatic
  differentiation (:mod:`repro.nn.tensor`),
* functional ops including a sparse-constant matrix product used for the
  Laplacian propagation step, whose constant is a prepared
  :class:`Propagation` operand (:mod:`repro.nn.functional`),
* :class:`Module` / :class:`Parameter` abstractions, Glorot initialisation,
  dense and GCN layers (:mod:`repro.nn.module`, :mod:`repro.nn.layers`),
* SGD and Adam optimisers (:mod:`repro.nn.optim`),
* the shared encoder's explicit forward, loss and vector-Jacobian pass
  over preallocated buffers, which HTC trains and refines with instead of
  the tape (:mod:`repro.nn.gcn`).

Gradient correctness is verified against numerical differentiation in the
test suite.
"""

from repro.nn.functional import (
    Propagation,
    matmul,
    mean,
    relu,
    sigmoid,
    softmax_rows,
    sparse_matmul,
    square,
    sum_all,
    tanh,
)
from repro.nn.init import glorot_uniform
from repro.nn.layers import GCNLayer, Linear, SharedGCNEncoder
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.tensor import Tensor, get_default_dtype, set_default_dtype

__all__ = [
    "Tensor",
    "get_default_dtype",
    "set_default_dtype",
    "Parameter",
    "Module",
    "Linear",
    "GCNLayer",
    "SharedGCNEncoder",
    "Optimizer",
    "SGD",
    "Adam",
    "glorot_uniform",
    "matmul",
    "Propagation",
    "sparse_matmul",
    "relu",
    "tanh",
    "sigmoid",
    "square",
    "sum_all",
    "mean",
    "softmax_rows",
]
