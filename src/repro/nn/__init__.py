"""Minimal neural-network substrate on numpy.

The paper's model is a two-layer GCN trained with Adam on a Frobenius
reconstruction loss.  Rather than depending on PyTorch (unavailable offline),
this package implements the required pieces from scratch, on plain weight
arrays:

* :class:`SharedGCNEncoder` — the GCN weights shared across graphs and
  views, with a forward-only encode (:mod:`repro.nn.layers`), and Glorot
  initialisation (:mod:`repro.nn.init`),
* the shared encoder's explicit forward, loss and vector-Jacobian pass over
  preallocated buffers, which HTC and GAlign train with
  (:mod:`repro.nn.gcn`),
* :class:`Propagation` operands and the sparse product behind them
  (:mod:`repro.nn.functional`),
* the Adam optimiser over lists of arrays (:mod:`repro.nn.optim`).

:class:`Tensor` (:mod:`repro.nn.tensor`) is a reverse-mode autograd tape.
With :func:`sparse_matmul`, :func:`frobenius_loss` and the activations it is
the gradient oracle the test suite checks the explicit pass against; the
library trains nothing with it.
"""

from repro.nn.functional import (
    Propagation,
    relu,
    sigmoid,
    sparse_matmul,
    tanh,
)
from repro.nn.init import glorot_uniform
from repro.nn.layers import SharedGCNEncoder
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, get_default_dtype, set_default_dtype

__all__ = [
    "Tensor",
    "get_default_dtype",
    "set_default_dtype",
    "SharedGCNEncoder",
    "Adam",
    "glorot_uniform",
    "Propagation",
    "sparse_matmul",
    "relu",
    "tanh",
    "sigmoid",
]
