"""Tests for the Adam optimiser on plain weight arrays."""

import numpy as np
import pytest

from repro.nn.optim import Adam


def _quadratic_gradient(weight):
    """Gradient of f(w) = sum((w - 3)^2), minimised at w = 3."""
    return 2.0 * (weight - 3.0)


def _minimise(weight, optimizer, steps):
    for _ in range(steps):
        (weight,) = optimizer.step([weight], [_quadratic_gradient(weight)])
    return weight


class TestAdam:
    def test_converges_to_minimum(self):
        weight = np.zeros(4)
        weight = _minimise(weight, Adam([weight], lr=0.1), 300)
        np.testing.assert_allclose(weight, np.full(4, 3.0), atol=1e-2)

    def test_weight_decay_shrinks_solution(self):
        plain = _minimise(np.zeros(1), Adam([np.zeros(1)], lr=0.05), 300)
        decayed = _minimise(
            np.zeros(1), Adam([np.zeros(1)], lr=0.05, weight_decay=1.0), 300
        )
        assert decayed[0] < plain[0]

    def test_first_step_magnitude_is_lr(self):
        # Adam's bias correction makes the very first update ~= lr in magnitude.
        weight = np.array([0.0])
        optimizer = Adam([weight], lr=0.1)
        (updated,) = optimizer.step([weight], [_quadratic_gradient(weight)])
        assert abs(updated[0]) == pytest.approx(0.1, rel=1e-3)

    def test_step_returns_new_arrays_in_order(self):
        weights = [np.zeros((2, 3)), np.ones(3)]
        before = [weight.copy() for weight in weights]
        optimizer = Adam(weights, lr=0.1)
        updated = optimizer.step(weights, [np.ones((2, 3)), -np.ones(3)])
        assert [w.shape for w in updated] == [(2, 3), (3,)]
        for weight, original in zip(weights, before):
            np.testing.assert_array_equal(weight, original)
        assert (updated[0] < 0).all() and (updated[1] > 1).all()

    def test_invalid_settings(self):
        weight = np.zeros(1)
        with pytest.raises(ValueError):
            Adam([weight], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([weight], betas=(1.0, 0.9))
        with pytest.raises(ValueError):
            Adam([weight], weight_decay=-0.1)
        with pytest.raises(ValueError, match="no weights"):
            Adam([])
