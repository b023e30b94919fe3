"""Tests for the internal building blocks of the baseline aligners."""

import numpy as np
import pytest

import repro.baselines.pale as pale_module
from repro.baselines.cenalp import CENALP
from repro.baselines.embedding import spectral_embedding
from repro.baselines.galign import GAlign
from repro.baselines.pale import PALE
from repro.baselines.regal import REGAL
from repro.datasets.pair import GraphPair
from repro.datasets.synthetic import tiny_pair
from repro.graph.builders import from_edge_list
from repro.graph.generators import powerlaw_cluster_graph
from repro.nn.tensor import Tensor
from repro.similarity.measures import cosine_similarity

from _helpers import tape_galign_scores, tape_pale_scores


def _self_pair(graph):
    """``graph`` against a copy of itself, aligned by the identity."""
    return GraphPair(
        source=graph,
        target=graph.copy(),
        ground_truth=np.arange(graph.n_nodes),
        name=graph.name,
    )


#: Degenerate pairs: every view is the identity or the orbit structure
#: carries no signal, so embeddings collapse or vanish.
DEGENERATE_PAIRS = {
    "edgeless-6": lambda: _self_pair(
        from_edge_list(
            [], n_nodes=6, attributes=np.random.default_rng(0).normal(size=(6, 3))
        )
    ),
    "k6-zero-attributes": lambda: _self_pair(
        from_edge_list(
            [(u, v) for u in range(6) for v in range(u + 1, 6)],
            n_nodes=6,
            attributes=np.zeros((6, 3)),
        )
    ),
}


class TestREGALInternals:
    def test_structural_identity_shape(self):
        graph = powerlaw_cluster_graph(30, 3, random_state=0)
        identity = REGAL()._structural_identity(graph)
        assert identity.shape[0] == 30
        assert identity.shape[1] >= 1
        assert (identity >= 0).all()

    def test_identity_reflects_degree(self):
        """A hub accumulates more neighbourhood mass than a leaf."""
        star = from_edge_list([(0, 1), (0, 2), (0, 3), (0, 4)], n_nodes=5)
        identity = REGAL()._structural_identity(star)
        assert identity[0].sum() > identity[1].sum()

    def test_hop_discount_reduces_far_contributions(self):
        path = from_edge_list([(0, 1), (1, 2), (2, 3)], n_nodes=4)
        strong = REGAL(hop_discount=1.0)._structural_identity(path)
        weak = REGAL(hop_discount=0.1)._structural_identity(path)
        assert weak[0].sum() < strong[0].sum()

    def test_pad_columns(self):
        a = np.ones((2, 3))
        b = np.ones((2, 5))
        padded = REGAL._pad_columns([a, b])
        assert padded[0].shape == (2, 5)
        assert padded[1].shape == (2, 5)
        np.testing.assert_array_equal(padded[0][:, 3:], np.zeros((2, 2)))

    def test_combined_similarity_in_unit_interval(self):
        rng = np.random.default_rng(0)
        regal = REGAL()
        sim = regal._combined_similarity(
            rng.random((4, 3)), rng.random((5, 3)), rng.random((4, 2)), rng.random((5, 2))
        )
        assert (sim > 0).all()
        assert (sim <= 1.0 + 1e-12).all()


class TestCENALPInternals:
    def test_mapping_fits_anchors(self):
        rng = np.random.default_rng(0)
        source = rng.normal(size=(20, 6))
        true_map = rng.normal(size=(6, 6))
        target = source @ true_map
        anchors = [(i, i) for i in range(20)]
        cenalp = CENALP(ridge=1e-6)
        learned = cenalp._fit_mapping(source, target, anchors)
        np.testing.assert_allclose(source @ learned, target, atol=1e-6)

    def test_growth_adds_new_anchors(self):
        pair = tiny_pair(n_nodes=40, random_state=0, noise=0.02)
        cenalp = CENALP(embedding_dim=16, n_rounds=3, growth_per_round=5)
        seed_anchors = pair.anchor_links[:4]
        scores = cenalp.align(pair, train_anchors=list(seed_anchors))
        assert scores.shape == (40, 40)

    def test_unsupervised_seeding_falls_back_to_attributes(self):
        pair = tiny_pair(n_nodes=30, random_state=1, noise=0.02)
        scores = CENALP(embedding_dim=16, n_rounds=2).align(pair, train_anchors=None)
        assert np.isfinite(scores).all()


class TestGAlignInternals:
    def test_views_include_augmentation(self):
        pair = tiny_pair(n_nodes=25, random_state=0)
        galign = GAlign(augment_ratio=0.2, random_state=0)
        views = galign._views(pair.source, np.random.default_rng(0))
        assert len(views) == 2

    def test_augmentation_disabled(self):
        pair = tiny_pair(n_nodes=25, random_state=0)
        galign = GAlign(augment_ratio=0.0, random_state=0)
        views = galign._views(pair.source, np.random.default_rng(0))
        assert len(views) == 1

    def test_attribute_mismatch_rejected(self):
        pair = tiny_pair(n_nodes=20, random_state=0)
        bad_target = pair.target.with_attributes(
            np.ones((pair.target.n_nodes, pair.source.n_attributes + 1))
        )
        from repro.datasets.pair import GraphPair

        bad_pair = GraphPair(
            source=pair.source,
            target=bad_target,
            ground_truth=pair.ground_truth,
            name="bad",
        )
        with pytest.raises(ValueError):
            GAlign(epochs=1).align(bad_pair)


class TestGAlignTapeOracle:
    """GAlign's per-view explicit passes equal its training on the autograd
    tape bit for bit (``tape_galign_scores``).  With augmentation each
    weight gets four gradient terms, summed last view first as the tape
    sums them; another order moves the scores in the last bits."""

    @pytest.mark.parametrize("augment_ratio", [0.0, 0.1])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_scores_equal_the_tape(self, n_layers, augment_ratio):
        pair = tiny_pair(n_nodes=60, random_state=0)
        galign = GAlign(
            embedding_dim=16, n_layers=n_layers, epochs=10, augment_ratio=augment_ratio
        )
        np.testing.assert_array_equal(
            galign.align(pair), tape_galign_scores(galign, pair)
        )

    @pytest.mark.parametrize("augment_ratio", [0.0, 0.1])
    @pytest.mark.parametrize("name", sorted(DEGENERATE_PAIRS))
    def test_degenerate_pairs(self, name, augment_ratio):
        pair = DEGENERATE_PAIRS[name]()
        galign = GAlign(embedding_dim=8, epochs=5, augment_ratio=augment_ratio)
        scores = galign.align(pair)
        assert scores.shape == (6, 6)
        assert np.isfinite(scores).all()
        np.testing.assert_array_equal(scores, tape_galign_scores(galign, pair))

    def test_builds_no_tape(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("GAlign ran a backward pass on the tape")

        monkeypatch.setattr(Tensor, "backward", refuse)
        GAlign(embedding_dim=8, epochs=2).align(tiny_pair(n_nodes=20, random_state=0))


@pytest.fixture
def fixed_embeddings(monkeypatch):
    """PALE's ``spectral_embedding``, memoised per graph and dimension.

    ARPACK need not repeat on a rank-deficient Laplacian (K6 embeds
    differently from call to call), so PALE and its oracle must map the
    same embeddings to be compared bit for bit.
    """
    cache = {}

    def embed(graph, dim):
        key = (id(graph), dim)
        if key not in cache:
            cache[key] = spectral_embedding(graph, dim)
        return cache[key]

    monkeypatch.setattr(pale_module, "spectral_embedding", embed)
    return embed


PALE_PAIRS = {
    "tiny-60": lambda: tiny_pair(n_nodes=60, random_state=0),
    **DEGENERATE_PAIRS,
}


class TestPALETapeOracle:
    """PALE's closed-form mapping gradient equals the tape's mapping MLP
    bit for bit (``tape_pale_scores``) on the same embeddings."""

    def _check(self, pale, pair, anchors, fixed_embeddings):
        scores = pale.align(pair, train_anchors=anchors)
        assert np.isfinite(scores).all()
        source, target = (
            fixed_embeddings(graph, pale.embedding_dim)
            for graph in (pair.source, pair.target)
        )
        np.testing.assert_array_equal(
            scores, tape_pale_scores(pale, source, target, anchors)
        )

    @pytest.mark.parametrize(
        "settings",
        [{}, {"embedding_dim": 32, "hidden_dim": 16, "epochs": 150}],
        ids=["default", "d32-h16-e150"],
    )
    def test_scores_equal_the_tape(self, fixed_embeddings, settings):
        pair = PALE_PAIRS["tiny-60"]()
        anchors = pair.split_anchors(0.3, random_state=0)[0]
        self._check(PALE(**settings), pair, anchors, fixed_embeddings)

    @pytest.mark.parametrize("name", sorted(PALE_PAIRS))
    def test_one_anchor(self, fixed_embeddings, name):
        pair = PALE_PAIRS[name]()
        pale = PALE(embedding_dim=4, hidden_dim=8, epochs=30)
        self._check(pale, pair, [(1, 2)], fixed_embeddings)

    @pytest.mark.parametrize("anchors", [None, []], ids=["none", "empty"])
    @pytest.mark.parametrize("name", sorted(PALE_PAIRS))
    def test_no_anchor_compares_the_embeddings(self, fixed_embeddings, name, anchors):
        pair = PALE_PAIRS[name]()
        scores = PALE(embedding_dim=4).align(pair, train_anchors=anchors)
        assert np.isfinite(scores).all()
        np.testing.assert_array_equal(
            scores,
            cosine_similarity(
                fixed_embeddings(pair.source, 4), fixed_embeddings(pair.target, 4)
            ),
        )
