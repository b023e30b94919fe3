"""The Adam optimiser (Kingma & Ba, 2014), which the paper trains with, on
plain weight arrays."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


class Adam:
    """Adam over a list of weight arrays.

    The constructor sizes the moment estimates from ``weights``;
    :meth:`step` takes the current weights and their gradients, in the same
    order, and returns the updated weights as new arrays.
    """

    def __init__(
        self,
        weights: Sequence[np.ndarray],
        lr: float = 0.01,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if not weights:
            raise ValueError("optimizer received no weights")
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first_moment = [np.zeros_like(weight) for weight in weights]
        self._second_moment = [np.zeros_like(weight) for weight in weights]

    def step(
        self, weights: Sequence[np.ndarray], gradients: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """One Adam update of ``weights`` by ``gradients``; the weights
        themselves are not modified."""
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        updated = []
        for weight, gradient, m, v in zip(
            weights, gradients, self._first_moment, self._second_moment
        ):
            if self.weight_decay > 0:
                gradient = gradient + self.weight_decay * weight
            m *= self.beta1
            m += (1.0 - self.beta1) * gradient
            v *= self.beta2
            v += (1.0 - self.beta2) * gradient**2
            m_hat = m / bias1
            v_hat = v / bias2
            updated.append(weight - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))
        return updated


__all__ = ["Adam"]
