"""Tests for multi-orbit-aware training, including the paper's theory checks.

The Lemma 1 / Proposition 1 tests verify the core theoretical claim: if two
nodes' neighbourhoods satisfy attribute consistency and k-order topological
consistency, the shared orbit-weighted encoder maps them to identical
embeddings.
"""

import contextlib
import multiprocessing
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

import repro.core.training as training
import repro.nn.functional as functional
import repro.nn.gcn as gcn
from repro.backend.shm import single_blas_thread
from repro.core import HTCAligner
from repro.core.config import HTCConfig
from repro.core.encoder import build_topology_views, make_encoder
from repro.core.training import MultiOrbitTrainer
from repro.datasets.synthetic import douban, tiny_pair
from repro.graph.builders import from_edge_list
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.perturbation import permute_graph
from repro.nn.functional import ACTIVATIONS, Propagation
from repro.nn.gcn import EncoderPass
from repro.nn.layers import SharedGCNEncoder
from repro.nn.tensor import Tensor

from _helpers import (
    openblas_thread_counts,
    per_view_training_losses,
    set_openblas_threads,
    summed_loss_training_losses,
)


def _train(pair, config):
    """Per-epoch losses of ``MultiOrbitTrainer`` on ``pair``."""
    source_views = build_topology_views(pair.source, config)
    target_views = build_topology_views(pair.target, config)
    encoder = make_encoder(pair.source.n_attributes, config)
    return MultiOrbitTrainer(config).train(
        encoder,
        source_views,
        target_views,
        pair.source.attributes,
        pair.target.attributes,
    )


def _counting(calls, name, function):
    """``function`` wrapped to count its calls in ``calls[name]``; the count
    is locked, since the target pass may run on training's worker thread."""
    lock = threading.Lock()

    def wrapper(*args, **kwargs):
        with lock:
            calls[name] += 1
        return function(*args, **kwargs)

    return wrapper


def _assert_matches_oracle(pair, config):
    """Stacked training agrees with the per-view dense oracle: losses, weights."""
    inputs = (
        build_topology_views(pair.source, config),
        build_topology_views(pair.target, config),
        pair.source.attributes,
        pair.target.attributes,
    )
    encoder = make_encoder(pair.source.n_attributes, config)
    oracle_encoder = make_encoder(pair.source.n_attributes, config)
    losses = MultiOrbitTrainer(config).train(encoder, *inputs)
    oracle = per_view_training_losses(oracle_encoder, config, *inputs)
    assert len(losses) == config.epochs
    np.testing.assert_allclose(losses, oracle, rtol=1e-10)
    for name, value in oracle_encoder.state_dict().items():
        np.testing.assert_allclose(
            encoder.state_dict()[name], value, rtol=1e-10, atol=1e-12
        )


def _assert_matches_tape(inputs, config, encoder_config=None):
    """Training equals the tape's summed-loss training bit for bit: every
    epoch's loss and every final weight."""
    encoder_config = encoder_config or config
    n_attributes = inputs[2].shape[1]
    encoder = make_encoder(n_attributes, encoder_config)
    oracle_encoder = make_encoder(n_attributes, encoder_config)
    losses = MultiOrbitTrainer(config).train(encoder, *inputs)
    with single_blas_thread():
        oracle = summed_loss_training_losses(oracle_encoder, config, *inputs)
    assert losses == oracle
    for name, value in oracle_encoder.state_dict().items():
        np.testing.assert_array_equal(encoder.state_dict()[name], value)


def _pair_inputs(pair, config):
    return (
        build_topology_views(pair.source, config),
        build_topology_views(pair.target, config),
        pair.source.attributes,
        pair.target.attributes,
    )


def _count_products(monkeypatch):
    """A counter of ``sparse_product`` calls, from a propagation's ``L X``
    and from the encoder pass alike."""
    calls = Counter()
    counted = _counting(calls, "product", functional.sparse_product)
    monkeypatch.setattr(functional, "sparse_product", counted)
    monkeypatch.setattr(gcn, "sparse_product", counted)
    return calls


def _asymmetric_views(n_nodes, seeds):
    """Views whose CSR arrays differ from their transposes'."""
    views = {}
    for view_id, seed in enumerate(seeds):
        view = sp.random(n_nodes, n_nodes, density=0.1, format="csr", random_state=seed)
        assert (view != view.T).nnz
        views[view_id] = view
    return views


class TestReconstructionLoss:
    def test_positive_scalar(self):
        graph = powerlaw_cluster_graph(20, 2, n_attributes=3, random_state=0)
        config = HTCConfig(orbits=[0], embedding_dim=8)
        views = build_topology_views(graph, config)
        encoder = make_encoder(3, config)
        weights = [layer.weight.data for layer in encoder.layers]
        graph_pass = EncoderPass(
            [layer.activation_name for layer in encoder.layers],
            Propagation(views[0], features=graph.attributes),
            weights,
        )
        graph_pass.forward(weights)
        loss = graph_pass.loss()
        assert isinstance(loss, float)
        assert loss > 0


class TestTapeOracle:
    """The explicit pass replays the tape's numpy operations, so training is
    bit-identical to the tape's summed-loss training
    (``summed_loss_training_losses``)."""

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_layers_and_activations(self, n_layers, activation):
        config = HTCConfig(
            orbits=[0, 1, 2],
            embedding_dim=8,
            epochs=5,
            n_layers=n_layers,
            activation=activation,
            random_state=0,
        )
        pair = tiny_pair(n_nodes=40, random_state=0)
        _assert_matches_tape(_pair_inputs(pair, config), config)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_activation_on_every_layer(self, activation):
        """Encoders whose last layer is not linear, which ``make_encoder``
        never builds."""
        config = HTCConfig(orbits=[0, 1], embedding_dim=8, epochs=5, random_state=0)
        pair = tiny_pair(n_nodes=40, random_state=0)
        inputs = _pair_inputs(pair, config)
        encoders = [
            SharedGCNEncoder(
                pair.source.n_attributes, [8, 8], [activation] * 2, random_state=0
            )
            for _ in range(2)
        ]
        losses = MultiOrbitTrainer(config).train(encoders[0], *inputs)
        with single_blas_thread():
            oracle = summed_loss_training_losses(encoders[1], config, *inputs)
        assert losses == oracle
        for name, value in encoders[1].state_dict().items():
            np.testing.assert_array_equal(encoders[0].state_dict()[name], value)

    def test_asymmetric_operand_uses_its_transpose(self, monkeypatch):
        """A VJP multiplies by ``Propagation.transpose``, and the loss's
        ``L^T H`` is a fourth product per graph and epoch."""
        config = HTCConfig(orbits=[0, 1], embedding_dim=8, epochs=4, random_state=0)
        attributes = tiny_pair(n_nodes=40, random_state=0).source.attributes
        inputs = (
            _asymmetric_views(40, [1, 2]),
            _asymmetric_views(40, [3, 4]),
            attributes,
            attributes[::-1].copy(),
        )
        _assert_matches_tape(inputs, config)
        calls = _count_products(monkeypatch)
        MultiOrbitTrainer(config).train(
            make_encoder(attributes.shape[1], config), *inputs
        )
        assert calls["product"] == 2 * (1 + 4 * config.epochs)

    def test_fallback_without_the_kernel(self, monkeypatch):
        """With no ``csr_matvecs`` every product takes ``L.dot``, to the
        same bits."""
        monkeypatch.setattr(functional, "_csr_matvecs", None)
        config = HTCConfig(orbits=[0, 1, 2], embedding_dim=8, epochs=5, random_state=0)
        pair = tiny_pair(n_nodes=40, random_state=0)
        _assert_matches_tape(_pair_inputs(pair, config), config)

    def test_installed_scipy_takes_the_fast_path(self, monkeypatch):
        """Every product of training runs scipy's kernel in place; losing
        the private function fails here rather than slowing training."""
        assert functional._csr_matvecs is not None
        calls = Counter()
        kernel = _counting(calls, "kernel", functional._csr_matvecs)
        monkeypatch.setattr(functional, "_csr_matvecs", kernel)
        monkeypatch.setattr(
            sp.csr_matrix, "dot", _counting(calls, "dot", sp.csr_matrix.dot)
        )
        config = HTCConfig(orbits=[0, 1, 2], embedding_dim=4, epochs=3, random_state=0)
        _train(tiny_pair(n_nodes=30, random_state=0), config)
        assert calls == {"kernel": 2 * (1 + 3 * config.epochs)}


class TestMultiOrbitTrainer:
    def test_loss_decreases(self):
        pair = tiny_pair(n_nodes=30, random_state=0)
        config = HTCConfig(orbits=[0, 1], embedding_dim=8, epochs=30, random_state=0)
        source_views = build_topology_views(pair.source, config)
        target_views = build_topology_views(pair.target, config)
        encoder = make_encoder(pair.source.n_attributes, config)
        losses = MultiOrbitTrainer(config).train(
            encoder,
            source_views,
            target_views,
            pair.source.attributes,
            pair.target.attributes,
        )
        assert len(losses) == 30
        assert losses[-1] < losses[0]

    def test_view_mismatch_rejected(self):
        pair = tiny_pair(n_nodes=20, random_state=0)
        config = HTCConfig(orbits=[0, 1], embedding_dim=4, epochs=2)
        source_views = build_topology_views(pair.source, config)
        target_views = build_topology_views(pair.target, config.updated(orbits=[0]))
        encoder = make_encoder(pair.source.n_attributes, config)
        with pytest.raises(ValueError):
            MultiOrbitTrainer(config).train(
                encoder,
                source_views,
                target_views,
                pair.source.attributes,
                pair.target.attributes,
            )

    def test_empty_views_rejected(self):
        config = HTCConfig(embedding_dim=4, epochs=2)
        encoder = make_encoder(3, config)
        attributes = np.zeros((5, 3))
        with pytest.raises(ValueError, match="at least one view"):
            MultiOrbitTrainer(config).train(encoder, {}, {}, attributes, attributes)

    @pytest.mark.parametrize(
        "make_pair",
        [
            lambda: tiny_pair(n_nodes=60, random_state=0),
            lambda: douban(scale=1.25, random_state=0),
        ],
        ids=["tiny-60", "sparse-400"],
    )
    def test_losses_match_dense_oracle(self, make_pair):
        _assert_matches_oracle(
            make_pair(), HTCConfig(embedding_dim=8, epochs=20, random_state=0)
        )

    @pytest.mark.parametrize(
        "views",
        [{"topology_mode": "adjacency"}, {"orbits": [0, 4, 9]}],
        ids=["one-view", "orbit-subset"],
    )
    def test_view_subsets_match_dense_oracle(self, views):
        _assert_matches_oracle(
            tiny_pair(n_nodes=60, random_state=0),
            HTCConfig(embedding_dim=8, epochs=10, random_state=0, **views),
        )

    def test_epoch_allocates_no_dense_square(self):
        pair = tiny_pair(n_nodes=2000, random_state=0)
        config = HTCConfig(
            topology_mode="adjacency", embedding_dim=16, epochs=1, random_state=0
        )
        tracemalloc.start()
        try:
            _train(pair, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One n x n float64 array; the dense loss built several per view.
        assert peak < pair.source.n_nodes**2 * 8

    @pytest.mark.parametrize("kernel", ["fast", "fallback"])
    def test_epoch_runs_three_sparse_products_per_graph(self, monkeypatch, kernel):
        """Layer 2 forward and backward plus the loss's ``L H``; ``L X`` once
        per graph, and the block norms without an elementwise product."""
        if kernel == "fallback":
            monkeypatch.setattr(functional, "_csr_matvecs", None)
        pair = tiny_pair(n_nodes=30, random_state=0)
        config = HTCConfig(orbits=[0, 1, 2], embedding_dim=4, epochs=2, random_state=0)
        source_views = build_topology_views(pair.source, config)
        target_views = build_topology_views(pair.target, config)
        encoder = make_encoder(pair.source.n_attributes, config)
        calls = _count_products(monkeypatch)
        for cls in (sp.csr_matrix, sp.csc_matrix):
            counted = _counting(calls, "multiply", cls.multiply)
            monkeypatch.setattr(cls, "multiply", counted)
        MultiOrbitTrainer(config).train(
            encoder,
            source_views,
            target_views,
            pair.source.attributes,
            pair.target.attributes,
        )
        graphs, epochs = 2, config.epochs
        assert calls["product"] == graphs * (1 + 3 * epochs)
        assert calls["multiply"] == 0

    def test_epoch_calls_pass_forward_loss_and_vjp(self, monkeypatch):
        """Each graph's epoch calls the explicit pass's ``forward``, ``loss``
        and ``vjp`` once, looked up at call time so a profiler can wrap
        them, and never the tape's encoder forward or loss."""
        calls = Counter()
        for name in ("forward", "loss", "vjp"):
            wrapped = _counting(calls, name, getattr(EncoderPass, name))
            monkeypatch.setattr(EncoderPass, name, wrapped)
        for owner, name in (
            (SharedGCNEncoder, "forward"),
            (training, "frobenius_loss"),
            (Tensor, "backward"),
        ):
            tape = _counting(calls, "tape", getattr(owner, name))
            monkeypatch.setattr(owner, name, tape)
        _train(
            tiny_pair(n_nodes=20, random_state=0),
            HTCConfig(orbits=[0, 1], embedding_dim=4, epochs=3, random_state=0),
        )
        assert calls == {"forward": 6, "loss": 6, "vjp": 6}

    def test_training_changes_parameters(self):
        pair = tiny_pair(n_nodes=25, random_state=1)
        config = HTCConfig(orbits=[0], embedding_dim=8, epochs=5, random_state=0)
        source_views = build_topology_views(pair.source, config)
        target_views = build_topology_views(pair.target, config)
        encoder = make_encoder(pair.source.n_attributes, config)
        before = encoder.state_dict()
        MultiOrbitTrainer(config).train(
            encoder,
            source_views,
            target_views,
            pair.source.attributes,
            pair.target.attributes,
        )
        after = encoder.state_dict()
        assert any(
            not np.array_equal(before[name], after[name]) for name in before
        )


def _force_budget(monkeypatch, budget):
    """Make training read a BLAS thread budget of ``budget``, keeping the pin."""
    pin = training.single_blas_thread

    @contextlib.contextmanager
    def forced():
        with pin():
            yield budget

    monkeypatch.setattr(training, "single_blas_thread", forced)


def _count_thread_starts(monkeypatch):
    """A list that gets one entry per ``threading.Thread.start`` call."""
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


def _assert_same_alignment(first, second):
    np.testing.assert_array_equal(first.alignment_matrix, second.alignment_matrix)
    np.testing.assert_array_equal(first.training_losses, second.training_losses)
    assert first.trusted_pair_counts == second.trusted_pair_counts


#: Above the split: at d=32 OpenBLAS splits the weight-gradient GEMM's inner
#: dimension K*n (13 views x 90 or 150 nodes) across two threads, so these
#: pairs aligned to different bits on 1 and 2 threads before training pinned
#: BLAS.  ``tiny_pair(40)`` is below the split.
ABOVE_SPLIT = {"tiny-90": 90, "tiny-150": 150}
SPLIT_CONFIG = HTCConfig(embedding_dim=32, epochs=10, orbit_cache="off")


class TestTrainingThreads:
    """The target pass runs on a worker thread when the BLAS budget is at
    least 2.  Each weight's two gradient terms are computed alone and summed,
    so the worker changes no bit, and training leaves the BLAS thread count
    as it found it."""

    @pytest.mark.parametrize("budget", [2, 1], ids=["worker", "serial"])
    def test_bit_identical_to_one_summed_backward(self, monkeypatch, budget):
        _force_budget(monkeypatch, budget)
        pair = tiny_pair(n_nodes=90, random_state=0)
        inputs = (
            build_topology_views(pair.source, SPLIT_CONFIG),
            build_topology_views(pair.target, SPLIT_CONFIG),
            pair.source.attributes,
            pair.target.attributes,
        )
        encoder = make_encoder(pair.source.n_attributes, SPLIT_CONFIG)
        oracle_encoder = make_encoder(pair.source.n_attributes, SPLIT_CONFIG)
        # Switch threads far more often than usual, so a gradient or weight
        # read before the other thread finished writing it would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            losses = MultiOrbitTrainer(SPLIT_CONFIG).train(encoder, *inputs)
        finally:
            sys.setswitchinterval(interval)
        with single_blas_thread():
            oracle = summed_loss_training_losses(oracle_encoder, SPLIT_CONFIG, *inputs)
        np.testing.assert_array_equal(losses, oracle)
        for name, value in oracle_encoder.state_dict().items():
            np.testing.assert_array_equal(encoder.state_dict()[name], value)

    def test_budgets_of_two_and_one_align_to_equal_bits(self, monkeypatch):
        pair = tiny_pair(n_nodes=150, random_state=0)
        starts = _count_thread_starts(monkeypatch)
        results = {}
        for budget in (2, 1):
            _force_budget(monkeypatch, budget)
            starts.clear()
            results[budget] = HTCAligner(SPLIT_CONFIG).align(pair)
            # One worker for the training call on a budget of 2, none on 1.
            assert len(starts) == (1 if budget == 2 else 0)
        _assert_same_alignment(results[2], results[1])

    @pytest.mark.parametrize("where", ["calling thread", "worker thread"])
    def test_blas_thread_count_restored(
        self, monkeypatch, restore_openblas_threads, where
    ):
        """Training runs BLAS on one thread and puts the count back after
        ``align``, also when a pass raises on either thread."""
        if not openblas_thread_counts():
            pytest.skip("no OpenBLAS loaded in this process")
        set_openblas_threads(2)
        before = openblas_thread_counts()
        seen, fail, loss = [], [], EncoderPass.loss
        main = threading.main_thread()

        def probing(*args, **kwargs):
            seen.append(tuple(openblas_thread_counts()))
            on_worker = threading.current_thread() is not main
            if fail and on_worker == (where == "worker thread"):
                raise RuntimeError("pass failed")
            return loss(*args, **kwargs)

        monkeypatch.setattr(EncoderPass, "loss", probing)
        pair = tiny_pair(n_nodes=30, random_state=0)
        config = HTCConfig(orbits=[0, 1], embedding_dim=4, epochs=3)
        HTCAligner(config).align(pair)
        assert seen and set(seen) == {(1,) * len(before)}
        assert openblas_thread_counts() == before
        fail.append(True)
        with pytest.raises(RuntimeError, match="pass failed"):
            HTCAligner(config).align(pair)
        assert openblas_thread_counts() == before

    def test_forked_child_aligns_after_a_threaded_parent(self, monkeypatch):
        """A process forked after the parent trained with a worker thread
        aligns to the same bits and does not hang (the runner's process
        pools fork; a pool thread kept across calls would be missing in the
        child)."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        _force_budget(monkeypatch, 2)
        pair = tiny_pair(n_nodes=90, random_state=0)
        expected = HTCAligner(SPLIT_CONFIG).align(pair).alignment_matrix
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_align_and_send, args=(sender, pair))
        child.start()
        sender.close()
        try:
            assert receiver.poll(120), "align in the forked child did not finish"
            np.testing.assert_array_equal(receiver.recv(), expected)
            child.join(timeout=30)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()


def _align_and_send(connection, pair):
    connection.send(HTCAligner(SPLIT_CONFIG).align(pair).alignment_matrix)
    connection.close()


class TestThreadCountIndependence:
    @pytest.mark.parametrize("n_nodes", ABOVE_SPLIT.values(), ids=ABOVE_SPLIT)
    def test_align_equal_on_one_and_two_blas_threads(
        self, restore_openblas_threads, n_nodes
    ):
        if not openblas_thread_counts():
            pytest.skip("no OpenBLAS loaded in this process")
        pair = tiny_pair(n_nodes=n_nodes, random_state=0)
        results = {}
        for threads in (1, 2):
            set_openblas_threads(threads)
            results[threads] = HTCAligner(SPLIT_CONFIG).align(pair)
        _assert_same_alignment(results[1], results[2])


class TestTheory:
    """Lemma 1 and Proposition 1: consistency implies identical embeddings."""

    def test_lemma1_symmetric_nodes_same_graph(self):
        """Nodes 1 and 2 of a star have matching neighbourhoods, hence equal
        embeddings after one orbit-weighted layer."""
        graph = from_edge_list(
            [(0, 1), (0, 2), (0, 3)],
            n_nodes=4,
            attributes=np.array([[1.0, 0.0]] * 4),
        )
        config = HTCConfig(orbits=[0, 1, 5], embedding_dim=6, random_state=0)
        views = build_topology_views(graph, config)
        encoder = make_encoder(2, config)
        for view in views.values():
            embedding = encoder(view, graph.attributes).numpy()
            np.testing.assert_allclose(embedding[1], embedding[2], atol=1e-10)
            np.testing.assert_allclose(embedding[1], embedding[3], atol=1e-10)

    def test_proposition1_isomorphic_graphs_get_identical_anchor_embeddings(self):
        """A permuted copy satisfies every consistency exactly, so anchor nodes
        must receive identical embeddings from the shared encoder."""
        source = powerlaw_cluster_graph(25, 3, n_attributes=5, random_state=0)
        target, mapping = permute_graph(source, random_state=1)

        config = HTCConfig(orbits=[0, 1, 2, 3], embedding_dim=8, random_state=0)
        source_views = build_topology_views(source, config)
        target_views = build_topology_views(target, config)
        encoder = make_encoder(5, config)

        for orbit in config.resolved_orbits:
            source_embedding = encoder(source_views[orbit], source.attributes).numpy()
            target_embedding = encoder(target_views[orbit], target.attributes).numpy()
            np.testing.assert_allclose(
                source_embedding, target_embedding[mapping], atol=1e-8
            )

    def test_proposition1_holds_after_training(self):
        """Sharing parameters keeps the anchor-embedding identity through training."""
        source = powerlaw_cluster_graph(20, 3, n_attributes=4, random_state=2)
        target, mapping = permute_graph(source, random_state=3)
        config = HTCConfig(orbits=[0, 1], embedding_dim=6, epochs=10, random_state=0)
        source_views = build_topology_views(source, config)
        target_views = build_topology_views(target, config)
        encoder = make_encoder(4, config)
        MultiOrbitTrainer(config).train(
            encoder, source_views, target_views, source.attributes, target.attributes
        )
        for orbit in config.resolved_orbits:
            source_embedding = encoder(source_views[orbit], source.attributes).numpy()
            target_embedding = encoder(target_views[orbit], target.attributes).numpy()
            np.testing.assert_allclose(
                source_embedding, target_embedding[mapping], atol=1e-8
            )

    def test_unshared_encoders_break_the_identity(self):
        """Without parameter sharing the identity generally fails — the reason
        the paper shares the encoder."""
        source = powerlaw_cluster_graph(20, 3, n_attributes=4, random_state=2)
        target, mapping = permute_graph(source, random_state=3)
        config = HTCConfig(orbits=[0], embedding_dim=6, random_state=0)
        source_views = build_topology_views(source, config)
        target_views = build_topology_views(target, config)
        encoder_a = SharedGCNEncoder(4, [6, 6], random_state=0)
        encoder_b = SharedGCNEncoder(4, [6, 6], random_state=99)
        source_embedding = encoder_a(source_views[0], source.attributes).numpy()
        target_embedding = encoder_b(target_views[0], target.attributes).numpy()
        assert not np.allclose(source_embedding, target_embedding[mapping], atol=1e-3)
