"""Tests for repro.nn.functional."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.nn.functional as functional
from repro.core.config import HTCConfig
from repro.core.encoder import build_topology_views
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.laplacian import reinforced_laplacian
from repro.nn.functional import (
    Propagation,
    frobenius_loss,
    get_activation,
    relu,
    sigmoid,
    sparse_matmul,
    sparse_product,
    tanh,
)
from repro.nn.tensor import Tensor

from _helpers import dense_frobenius_loss, numerical_gradient, per_call_frobenius_loss


class TestActivations:
    def test_relu_forward(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_grad(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        relu(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0])

    def test_tanh_forward_and_grad(self):
        value = np.array([0.5, -0.3])
        x = Tensor(value.copy(), requires_grad=True)
        tanh(x).sum().backward()
        np.testing.assert_allclose(x.grad, 1 - np.tanh(value) ** 2, atol=1e-10)

    def test_sigmoid_forward_and_grad(self):
        value = np.array([0.2, -1.0])
        x = Tensor(value.copy(), requires_grad=True)
        sigmoid(x).sum().backward()
        s = 1 / (1 + np.exp(-value))
        np.testing.assert_allclose(x.grad, s * (1 - s), atol=1e-10)

    def test_get_activation_lookup(self):
        assert get_activation("relu") is relu
        assert get_activation("identity")(Tensor([1.0])).data[0] == 1.0

    def test_get_activation_unknown(self):
        with pytest.raises(ValueError):
            get_activation("swish-9000")


class TestSparseMatmul:
    def test_forward_matches_dense(self):
        sparse = sp.csr_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
        dense = Tensor(np.array([[1.0, 1.0], [2.0, 2.0]]))
        out = sparse_matmul(sparse, dense)
        np.testing.assert_array_equal(out.data, sparse.toarray() @ dense.data)

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        sparse = sp.random(5, 5, density=0.5, random_state=0, format="csr")
        value = rng.normal(size=(5, 3))

        x = Tensor(value.copy(), requires_grad=True)
        sparse_matmul(sparse, x).sum().backward()
        np.testing.assert_allclose(
            x.grad,
            numerical_gradient(lambda v: float(sparse.dot(v).sum()), value),
            atol=1e-5,
        )

    def test_rejects_dense_left_operand(self):
        with pytest.raises(TypeError):
            sparse_matmul(np.eye(2), Tensor(np.eye(2)))


def _library_views(n_nodes=60):
    """Every kind of propagation matrix the library builds, on one graph:
    the views of each topology mode and a reinforced copy of each."""
    graph = powerlaw_cluster_graph(n_nodes, 3, n_attributes=4, random_state=0)
    views = {}
    for mode in ("orbit", "adjacency", "diffusion"):
        config = HTCConfig(topology_mode=mode)
        for key, view in build_topology_views(graph, config).items():
            views[f"{mode}-{key}"] = view
    rng = np.random.default_rng(0)
    for name, view in list(views.items()):
        factors = rng.uniform(1.0, 2.0, n_nodes)
        views[f"reinforced-{name}"] = reinforced_laplacian(view, factors)
    return views


LIBRARY_VIEWS = _library_views()


class TestPropagation:
    @pytest.mark.parametrize("name", sorted(LIBRARY_VIEWS))
    def test_vjp_is_bit_identical_to_transpose_product(self, name):
        view = LIBRARY_VIEWS[name]
        operand = Propagation(view)
        assert operand.transpose is operand.matrix
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(view.shape[0], 5)), requires_grad=True)
        gradient = rng.normal(size=(view.shape[0], 5))
        sparse_matmul(operand, x).backward(gradient)
        np.testing.assert_array_equal(x.grad, view.T.dot(gradient))

    @pytest.mark.parametrize("name", sorted(LIBRARY_VIEWS))
    def test_loss_is_bit_identical_to_per_call_form(self, name):
        view = LIBRARY_VIEWS[name]
        value = _random_embedding(view.shape[0], 8, seed=1)
        loss, grad = _loss_and_gradient(lambda x: frobenius_loss(x, view), value)
        oracle_loss, oracle_grad = _loss_and_gradient(
            lambda x: per_call_frobenius_loss(x, view), value
        )
        assert loss == oracle_loss
        np.testing.assert_array_equal(grad, oracle_grad)

    def test_stacked_operand_is_bit_identical_to_per_call_form(self):
        views = [v for name, v in LIBRARY_VIEWS.items() if name.startswith("orbit-")]
        stack = sp.block_diag(views, format="csr")
        operand = Propagation(stack, blocks=len(views))
        assert operand.transpose is operand.matrix
        value = _random_embedding(stack.shape[0], 8, seed=2)
        loss, grad = _loss_and_gradient(lambda x: frobenius_loss(x, operand), value)
        oracle_loss, oracle_grad = _loss_and_gradient(
            lambda x: per_call_frobenius_loss(x, stack, blocks=len(views)), value
        )
        assert loss == oracle_loss
        np.testing.assert_array_equal(grad, oracle_grad)

    def test_non_symmetric_matrix_keeps_its_transpose(self):
        matrix = sp.random(6, 6, density=0.5, random_state=1, format="csr")
        operand = Propagation(matrix)
        assert operand.transpose is not operand.matrix
        np.testing.assert_array_equal(operand.transpose.toarray(), matrix.T.toarray())

    def test_features_are_propagated_once(self):
        view = LIBRARY_VIEWS["orbit-0"]
        features = np.random.default_rng(3).normal(size=(view.shape[0], 4))
        operand = Propagation(view, features=features)
        np.testing.assert_array_equal(operand.propagated_features, view.dot(features))
        assert Propagation(view).propagated_features is None

    def test_block_norms(self):
        views = [LIBRARY_VIEWS["orbit-1"], LIBRARY_VIEWS["diffusion-0"]]
        operand = Propagation(sp.block_diag(views), blocks=2)
        np.testing.assert_allclose(
            operand.squared_norms,
            [np.sum(view.toarray() ** 2) for view in views],
            rtol=1e-12,
        )

    def test_duplicate_entries_are_summed(self):
        # Two stored (0, 1) entries of 1 are one entry of 2: ||L||_F^2 = 2^2 + 1.
        matrix = sp.csr_matrix(
            (np.ones(3), np.array([1, 1, 0]), np.array([0, 2, 3])), shape=(2, 2)
        )
        operand = Propagation(matrix)
        np.testing.assert_array_equal(operand.squared_norms, [5.0])
        np.testing.assert_array_equal(operand.transpose.toarray(), [[0, 1], [2, 0]])

    def test_forward_only_wrap_resolves_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("forward-only product did O(nnz) preparation")

        monkeypatch.setattr(sp.csr_matrix, "transpose", refuse)
        monkeypatch.setattr(sp.csr_matrix, "sum_duplicates", refuse)
        view = LIBRARY_VIEWS["reinforced-orbit-3"]
        x = Tensor(np.ones((view.shape[0], 2)), requires_grad=True)
        out = sparse_matmul(view, x)
        np.testing.assert_array_equal(out.data, view.dot(x.data))

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            Propagation(sp.csr_matrix((2, 3)))

    def test_rejects_off_block_entry(self):
        with pytest.raises(ValueError, match="outside"):
            Propagation(sp.csr_matrix(np.ones((6, 6))), blocks=2)

    def test_operand_block_count_must_agree(self):
        operand = Propagation(sp.identity(6, format="csr"), blocks=2)
        with pytest.raises(ValueError, match="blocks"):
            frobenius_loss(Tensor(np.zeros((6, 2))), operand, blocks=3)


def _kernel_calls(monkeypatch):
    """A list that gets one entry per ``csr_matvecs`` call."""
    calls = []
    kernel = functional._csr_matvecs

    def counted(*args):
        calls.append(args[:3])
        return kernel(*args)

    monkeypatch.setattr(functional, "_csr_matvecs", counted)
    return calls


class TestSparseProduct:
    """``sparse_product`` is ``L.dot`` to the bit, written into a buffer by
    scipy's own kernel where the operands allow it."""

    @pytest.mark.parametrize("name", ["orbit-0", "reinforced-diffusion-2"])
    def test_fast_path_writes_the_product_into_out(self, monkeypatch, name):
        view = LIBRARY_VIEWS[name]
        dense = np.random.default_rng(0).normal(size=(view.shape[0], 5))
        out = np.full((view.shape[0], 5), np.nan)
        calls = _kernel_calls(monkeypatch)
        assert sparse_product(view, dense, out) is out
        np.testing.assert_array_equal(out, view.dot(dense))
        fresh = sparse_product(view, dense)
        np.testing.assert_array_equal(fresh, view.dot(dense))
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "case",
        ["csc", "float32-dense", "fortran-dense", "strided-out", "float32-out"],
    )
    def test_other_operands_fall_back_to_dot(self, monkeypatch, case):
        view = LIBRARY_VIEWS["orbit-1"]
        rows = view.shape[0]
        dense = np.random.default_rng(1).normal(size=(rows, 4))
        out = np.zeros((rows, 4))
        if case == "csc":
            view = view.tocsc()
        elif case == "float32-dense":
            dense = dense.astype(np.float32)
        elif case == "fortran-dense":
            dense = np.asfortranarray(dense)
        elif case == "strided-out":
            out = np.zeros((rows, 8))[:, ::2]
        else:
            out = out.astype(np.float32)
        calls = _kernel_calls(monkeypatch)
        assert sparse_product(view, dense, out) is out
        np.testing.assert_array_equal(out, view.dot(dense).astype(out.dtype))
        assert calls == []

    def test_without_the_kernel(self, monkeypatch):
        monkeypatch.setattr(functional, "_csr_matvecs", None)
        view = LIBRARY_VIEWS["orbit-2"]
        dense = np.random.default_rng(2).normal(size=(view.shape[0], 3))
        out = np.ones((view.shape[0], 3))
        np.testing.assert_array_equal(sparse_product(view, dense, out), view.dot(dense))
        np.testing.assert_array_equal(sparse_product(view, dense), view.dot(dense))

    def test_shape_mismatch_raises(self):
        view = LIBRARY_VIEWS["orbit-0"]
        dense = np.ones((view.shape[0], 3))
        with pytest.raises(ValueError):
            sparse_product(view, dense, np.zeros((view.shape[0], 2)))


def _random_embedding(n_nodes, dim, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=0.3, size=(n_nodes, dim)).astype(dtype)


def _loss_and_gradient(loss_fn, value):
    x = Tensor(value.copy(), requires_grad=True)
    loss = loss_fn(x)
    loss.backward()
    return loss.item(), x.grad


def _assert_matches_oracle(value, target, rtol=1e-10):
    """The matrix-free loss and gradient agree with the dense oracle."""
    loss, grad = _loss_and_gradient(lambda x: frobenius_loss(x, target), value)
    oracle_loss, oracle_grad = _loss_and_gradient(
        lambda x: dense_frobenius_loss(x @ x.T, target), value
    )
    assert loss == pytest.approx(oracle_loss, rel=rtol)
    np.testing.assert_allclose(
        grad, oracle_grad, rtol=rtol, atol=rtol * np.abs(oracle_grad).max()
    )


class TestLosses:
    def test_frobenius_loss_zero_for_exact_reconstruction(self):
        value = np.eye(3)
        loss = frobenius_loss(
            Tensor(value, requires_grad=True), sp.identity(3, format="csr")
        )
        assert loss.item() == pytest.approx(0.0, abs=1e-5)

    def test_frobenius_loss_value(self):
        # H H^T is the all-ones 2x2 matrix; its distance from zero is 2.
        loss = frobenius_loss(Tensor(np.ones((2, 1))), sp.csr_matrix((2, 2)))
        assert loss.item() == pytest.approx(2.0)

    def test_frobenius_loss_gradient(self):
        value = _random_embedding(4, 2, seed=2)
        target = sp.random(4, 4, density=0.5, random_state=2, format="csr")
        dense_target = target.toarray()

        def loss_fn(v):
            return float(np.sqrt(((v @ v.T - dense_target) ** 2).sum() + 1e-12))

        x = Tensor(value.copy(), requires_grad=True)
        frobenius_loss(x, target).backward()
        np.testing.assert_allclose(x.grad, numerical_gradient(loss_fn, value), atol=1e-4)

    def test_frobenius_loss_accepts_sparse_target(self):
        for fmt in ("csr", "csc", "coo"):
            target = sp.identity(3, format=fmt)
            loss = frobenius_loss(Tensor(np.zeros((3, 2))), target)
            assert loss.item() == pytest.approx(np.sqrt(3.0))

    def test_frobenius_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_loss(Tensor(np.zeros((2, 2))), sp.identity(3, format="csr"))

    def test_frobenius_loss_matches_dense_oracle_on_orbit_views(self):
        graph = powerlaw_cluster_graph(60, 3, n_attributes=4, random_state=0)
        views = build_topology_views(graph, HTCConfig())
        assert len(views) == 13
        for view_id, view in views.items():
            _assert_matches_oracle(_random_embedding(60, 8, seed=view_id), view)

    def test_frobenius_loss_non_symmetric_target(self):
        target = sp.random(7, 7, density=0.4, random_state=3, format="csr")
        assert (target != target.T).nnz > 0
        _assert_matches_oracle(_random_embedding(7, 3, seed=3), target)

    def test_frobenius_loss_exact_fit_is_finite(self):
        value = _random_embedding(12, 4, seed=4)
        target = sp.csr_matrix(value @ value.T)
        loss, grad = _loss_and_gradient(lambda x: frobenius_loss(x, target), value)
        assert np.isfinite(loss) and loss >= 0.0
        assert np.all(np.isfinite(grad))

    def test_frobenius_loss_float32_embedding_gets_float32_gradient(self):
        value = _random_embedding(5, 2, seed=5, dtype=np.float32)
        x = Tensor(value, requires_grad=True)
        frobenius_loss(x, sp.identity(5, format="csr", dtype=np.float32)).backward()
        assert x.grad.dtype == np.float32

    def test_frobenius_loss_rejects_dense_target(self):
        with pytest.raises(TypeError):
            frobenius_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_frobenius_loss_blocks_sum_per_block_losses(self):
        graph = powerlaw_cluster_graph(60, 3, n_attributes=4, random_state=0)
        targets = list(build_topology_views(graph, HTCConfig()).values())
        targets.append(sp.random(60, 60, density=0.1, random_state=6, format="csr"))
        assert (targets[-1] != targets[-1].T).nnz > 0
        value = _random_embedding(60 * len(targets), 8, seed=6)
        loss, grad = _loss_and_gradient(
            lambda x: frobenius_loss(x, sp.block_diag(targets), blocks=len(targets)),
            value,
        )
        per_block = [
            _loss_and_gradient(
                lambda x: frobenius_loss(x, target), value[60 * k : 60 * (k + 1)]
            )
            for k, target in enumerate(targets)
        ]
        assert loss == pytest.approx(sum(part for part, _ in per_block), rel=1e-12)
        np.testing.assert_allclose(
            grad, np.concatenate([g for _, g in per_block]), rtol=1e-12, atol=1e-15
        )

    @pytest.mark.parametrize("blocks", [0, 4])
    def test_frobenius_loss_rejects_bad_block_count(self, blocks):
        with pytest.raises(ValueError, match="equal blocks"):
            frobenius_loss(
                Tensor(np.zeros((6, 2))), sp.identity(6, format="csr"), blocks=blocks
            )

    def test_frobenius_loss_rejects_off_block_target(self):
        # An all-ones target has entries outside its two diagonal blocks.
        with pytest.raises(ValueError, match="outside"):
            frobenius_loss(
                Tensor(np.ones((6, 2))), sp.csr_matrix(np.ones((6, 6))), blocks=2
            )
