"""Tests for Module/Parameter bookkeeping."""

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class _TwoLayer(Module):
    def __init__(self):
        super().__init__()
        self.first = Linear(3, 4, random_state=0)
        self.second = Linear(4, 2, random_state=1)
        self.scale = Parameter(np.ones(1), "scale")

    def forward(self, x):
        return self.second(self.first(x)) * self.scale


class TestModule:
    def test_parameters_collected_recursively(self):
        model = _TwoLayer()
        # 2 weights + 2 biases + scale.
        assert len(model.parameters()) == 5

    def test_named_parameters_have_dotted_paths(self):
        names = dict(_TwoLayer().named_parameters())
        assert "first.weight" in names
        assert "second.bias" in names
        assert "scale" in names

    def test_n_parameters(self):
        model = _TwoLayer()
        expected = 3 * 4 + 4 + 4 * 2 + 2 + 1
        assert model.n_parameters() == expected

    def test_zero_grad_clears_all(self):
        model = _TwoLayer()
        out = model(Tensor(np.ones((2, 3))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_state_dict_roundtrip(self):
        model_a = _TwoLayer()
        model_b = _TwoLayer()
        state = model_a.state_dict()
        model_b.load_state_dict(state)
        for (_, pa), (_, pb) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_load_state_dict_missing_key(self):
        model = _TwoLayer()
        state = model.state_dict()
        state.pop("scale")
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_state_dict_shape_mismatch(self):
        model = _TwoLayer()
        state = model.state_dict()
        state["scale"] = np.ones(3)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module().forward()

    def test_parameter_requires_grad(self):
        assert Parameter(np.zeros(2)).requires_grad
