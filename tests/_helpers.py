"""Shared test helpers.

``tests/`` is intentionally not a package (pytest rootdir-based collection
inserts this directory onto ``sys.path``), so helper code shared between test
modules lives here and is imported absolutely: ``from _helpers import ...``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.nn.tensor import Tensor


def numerical_gradient(func, value, epsilon=1e-6):
    """Central-difference gradient of a scalar-valued function of an array."""
    value = np.asarray(value, dtype=np.float64)
    gradient = np.zeros_like(value)
    flat = value.ravel()
    grad_flat = gradient.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = func(value)
        flat[index] = original - epsilon
        minus = func(value)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return gradient


def dense_frobenius_loss(reconstruction, target):
    """Dense oracle for ``repro.nn.functional.frobenius_loss``.

    ``||target - reconstruction||_F`` built from elementwise autograd nodes
    on the n x n reconstruction ``H @ H.T``; ``target`` may be dense or
    sparse.  The matrix-free op sums in another order, so tests compare it
    with this oracle at a tolerance, not bit for bit.
    """
    if sp.issparse(target):
        target = target.toarray()
    target = np.asarray(target, dtype=np.float64)
    if target.shape != reconstruction.shape:
        raise ValueError(
            f"target shape {target.shape} != reconstruction shape {reconstruction.shape}"
        )
    diff = reconstruction - Tensor(target)
    squared = (diff * diff).sum()
    return (squared + 1e-12) ** 0.5
