"""Tests for the autograd Tensor: forward values and gradient correctness."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.tensor import Tensor

from _helpers import numerical_gradient


small_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 4), st.integers(2, 4)),
    elements=st.floats(min_value=-3.0, max_value=3.0),
)


class TestForwardValues:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_add_scalar(self):
        out = Tensor([1.0, 2.0]) + 1.0
        np.testing.assert_array_equal(out.data, [2.0, 3.0])

    def test_sub_and_neg(self):
        out = Tensor([3.0]) - Tensor([1.0])
        np.testing.assert_array_equal(out.data, [2.0])
        np.testing.assert_array_equal((-Tensor([2.0])).data, [-2.0])

    def test_rsub(self):
        out = 5.0 - Tensor([2.0])
        np.testing.assert_array_equal(out.data, [3.0])

    def test_mul(self):
        out = Tensor([2.0, 3.0]) * Tensor([4.0, 5.0])
        np.testing.assert_array_equal(out.data, [8.0, 15.0])

    def test_div(self):
        out = Tensor([6.0]) / Tensor([3.0])
        np.testing.assert_array_equal(out.data, [2.0])

    def test_pow(self):
        out = Tensor([2.0, 3.0]) ** 2
        np.testing.assert_array_equal(out.data, [4.0, 9.0])

    def test_pow_non_scalar_exponent_rejected(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_matmul(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        b = Tensor(np.arange(6, dtype=float).reshape(3, 2))
        np.testing.assert_array_equal((a @ b).data, a.data @ b.data)

    def test_transpose(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert a.T.shape == (3, 2)

    def test_sum_and_mean(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert a.sum().item() == 15.0
        assert a.mean().item() == pytest.approx(2.5)

    def test_sum_axis(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        np.testing.assert_array_equal(a.sum(axis=0).data, [3.0, 5.0, 7.0])

    def test_reshape(self):
        a = Tensor(np.arange(6, dtype=float))
        assert a.reshape(2, 3).shape == (2, 3)

    def test_item_on_non_scalar_raises(self):
        with pytest.raises(TypeError):
            Tensor([1.0, 2.0]).item()

    def test_detach_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        detached = (a * 2).detach()
        assert not detached.requires_grad


class TestBackwardCorrectness:
    def test_add_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_mul_grad(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_array_equal(a.grad, [5.0, 7.0])
        np.testing.assert_array_equal(b.grad, [2.0, 3.0])

    def test_matmul_grad_matches_numerical(self):
        rng = np.random.default_rng(0)
        a_value = rng.normal(size=(3, 4))
        b_value = rng.normal(size=(4, 2))

        def loss_a(value):
            return float((value @ b_value).sum())

        a = Tensor(a_value.copy(), requires_grad=True)
        b = Tensor(b_value.copy(), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, numerical_gradient(loss_a, a_value), atol=1e-5)

    def test_division_grad_matches_numerical(self):
        rng = np.random.default_rng(1)
        a_value = rng.uniform(1.0, 2.0, size=(3, 3))
        b_value = rng.uniform(1.0, 2.0, size=(3, 3))

        a = Tensor(a_value.copy(), requires_grad=True)
        b = Tensor(b_value.copy(), requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(
            a.grad, numerical_gradient(lambda v: float((v / b_value).sum()), a_value), atol=1e-5
        )
        np.testing.assert_allclose(
            b.grad, numerical_gradient(lambda v: float((a_value / v).sum()), b_value), atol=1e-5
        )

    def test_pow_grad(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        (a**3).sum().backward()
        np.testing.assert_allclose(a.grad, [12.0, 27.0])

    def test_broadcast_grad_unbroadcasts(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])
        np.testing.assert_array_equal(a.grad, np.ones((3, 2)))

    def test_gradient_accumulates_over_reuse(self):
        a = Tensor([2.0], requires_grad=True)
        ((a * a) + a).sum().backward()
        # d/da (a^2 + a) = 2a + 1 = 5.
        np.testing.assert_allclose(a.grad, [5.0])

    def test_transpose_grad(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        (a.T * 2.0).sum().backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))

    def test_mean_grad(self):
        a = Tensor(np.ones((2, 4)), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 4), 1.0 / 8))

    def test_reshape_grad(self):
        a = Tensor(np.arange(6, dtype=float), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones(6))

    def test_backward_without_scalar_requires_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2).backward()

    def test_no_grad_for_constant_inputs(self):
        a = Tensor([1.0, 2.0], requires_grad=False)
        b = Tensor([1.0, 1.0], requires_grad=True)
        (a * b).sum().backward()
        assert a.grad is None
        assert b.grad is not None

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_graph_freed_by_reference_counting_after_backward(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            weight = Tensor(np.ones((3, 2)), requires_grad=True)
            hidden = Tensor(np.arange(12.0).reshape(4, 3)) @ weight
            loss = ((hidden * hidden).sum() + hidden.mean()) ** 0.5
            loss.backward()
            hidden_data = weakref.ref(hidden.data)
            del hidden, loss
            assert hidden_data() is None
            assert weight.grad is not None
        finally:
            if was_enabled:
                gc.enable()

    @given(small_arrays)
    @settings(max_examples=20, deadline=None)
    def test_chained_expression_gradient_property(self, values):
        """Gradient of sum((x * x) + 3x) must be 2x + 3 for any x."""
        x = Tensor(values.copy(), requires_grad=True)
        ((x * x) + x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * values + 3.0, atol=1e-8)
