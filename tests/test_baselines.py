"""Tests for the baseline aligners.

Each baseline must (1) produce a correctly shaped score matrix, (2) be usable
through the common protocol, and (3) clearly beat random guessing on an easy,
nearly-isomorphic pair — the paper's qualitative floor.
"""

import numpy as np
import pytest
import scipy.sparse.linalg

from repro.baselines import (
    CENALP,
    FINAL,
    PALE,
    REGAL,
    AttributeAligner,
    DegreeAligner,
    GAlign,
    IsoRank,
    make_baseline,
)
from repro.baselines.base import BaseAligner
from repro.baselines.embedding import spectral_embedding
from repro.baselines.naive import GDVAligner
from repro.datasets.synthetic import tiny_pair
from repro.eval.metrics import precision_at_q


@pytest.fixture(scope="module")
def easy_pair():
    """A nearly isomorphic pair every sensible method should do well on."""
    return tiny_pair(n_nodes=50, random_state=3, noise=0.02)


def _fast_instances():
    return [
        IsoRank(n_iterations=15),
        FINAL(n_iterations=15),
        REGAL(n_landmarks=30),
        PALE(embedding_dim=16, epochs=60),
        CENALP(embedding_dim=16, n_rounds=3),
        GAlign(embedding_dim=16, epochs=40),
        DegreeAligner(),
        AttributeAligner(),
        GDVAligner(),
    ]


class TestCommonInterface:
    @pytest.mark.parametrize("aligner", _fast_instances(), ids=lambda a: a.name)
    def test_output_shape(self, aligner, easy_pair):
        train = easy_pair.split_anchors(0.1, random_state=0)[0]
        anchors = train if aligner.requires_supervision else None
        matrix = aligner.align(easy_pair, train_anchors=anchors)
        assert matrix.shape == (easy_pair.source.n_nodes, easy_pair.target.n_nodes)
        assert np.isfinite(matrix).all()

    def test_base_class_abstract(self, easy_pair):
        with pytest.raises(NotImplementedError):
            BaseAligner().align(easy_pair)

    def test_make_baseline_by_name(self):
        assert isinstance(make_baseline("IsoRank"), IsoRank)
        assert isinstance(make_baseline("GAlign", epochs=5), GAlign)

    def test_make_baseline_unknown(self):
        with pytest.raises(KeyError):
            make_baseline("SuperAligner")

    def test_supervision_flags(self):
        assert IsoRank().requires_supervision
        assert FINAL().requires_supervision
        assert PALE().requires_supervision
        assert CENALP().requires_supervision
        assert not REGAL().requires_supervision
        assert not GAlign().requires_supervision


class TestAlignmentQualityFloor:
    @pytest.mark.parametrize(
        "aligner",
        [
            FINAL(n_iterations=15),
            REGAL(n_landmarks=30),
            GAlign(embedding_dim=16, epochs=40),
            GDVAligner(),
        ],
        ids=lambda a: a.name,
    )
    def test_beats_random_clearly(self, aligner, easy_pair):
        train = easy_pair.split_anchors(0.1, random_state=0)[0]
        anchors = train if aligner.requires_supervision else None
        matrix = aligner.align(easy_pair, train_anchors=anchors)
        p1 = precision_at_q(matrix, easy_pair.ground_truth, 1)
        assert p1 > 5.0 / easy_pair.target.n_nodes

    def test_supervised_isorank_better_than_blind_prior(self, easy_pair):
        aligner = IsoRank(n_iterations=15)
        train = easy_pair.split_anchors(0.2, random_state=0)[0]
        with_prior = precision_at_q(
            aligner.align(easy_pair, train_anchors=train), easy_pair.ground_truth, 1
        )
        without_prior = precision_at_q(
            aligner.align(easy_pair, train_anchors=None), easy_pair.ground_truth, 1
        )
        assert with_prior >= without_prior

    def test_pale_mapping_helps_over_unsupervised_fallback(self, easy_pair):
        aligner = PALE(embedding_dim=16, epochs=80, random_state=0)
        train = easy_pair.split_anchors(0.3, random_state=0)[0]
        supervised = precision_at_q(
            aligner.align(easy_pair, train_anchors=train), easy_pair.ground_truth, 10
        )
        unsupervised = precision_at_q(
            aligner.align(easy_pair, train_anchors=None), easy_pair.ground_truth, 10
        )
        assert supervised >= unsupervised


class TestParameterValidation:
    def test_isorank_invalid_alpha(self):
        with pytest.raises(ValueError):
            IsoRank(alpha=1.5)

    def test_final_invalid_iterations(self):
        with pytest.raises(ValueError):
            FINAL(n_iterations=0)

    def test_regal_invalid_hop(self):
        with pytest.raises(ValueError):
            REGAL(max_hop=0)
        with pytest.raises(ValueError):
            REGAL(hop_discount=0.0)
        with pytest.raises(ValueError):
            REGAL(n_landmarks=1)

    def test_pale_invalid_dims(self):
        with pytest.raises(ValueError):
            PALE(embedding_dim=0)

    def test_cenalp_invalid_rounds(self):
        with pytest.raises(ValueError):
            CENALP(n_rounds=0)

    def test_galign_invalid_settings(self):
        with pytest.raises(ValueError):
            GAlign(n_layers=0)
        with pytest.raises(ValueError):
            GAlign(augment_ratio=1.0)


class TestSpectralEmbedding:
    def test_shape(self, easy_pair):
        embedding = spectral_embedding(easy_pair.source, dim=10)
        assert embedding.shape == (easy_pair.source.n_nodes, 10)

    def test_attributes_concatenated(self, easy_pair):
        embedding = spectral_embedding(easy_pair.source, dim=10, use_attributes=True)
        assert embedding.shape[1] == 10 + easy_pair.source.n_attributes

    def test_dim_larger_than_graph_padded(self):
        pair = tiny_pair(n_nodes=12, random_state=0)
        embedding = spectral_embedding(pair.source, dim=50)
        assert embedding.shape == (12, 50)

    def test_invalid_dim(self, easy_pair):
        with pytest.raises(ValueError):
            spectral_embedding(easy_pair.source, dim=0)

    def test_finite(self, easy_pair):
        assert np.isfinite(spectral_embedding(easy_pair.source, dim=8)).all()

    @pytest.mark.parametrize("path", ["arpack", "dense-fallback"])
    def test_deterministic_under_global_rng(self, monkeypatch, path):
        """ARPACK's start vector is fixed and column signs are canonical, so
        reseeding the global RNG between calls changes nothing."""
        if path == "dense-fallback":

            def fail(*args, **kwargs):
                raise RuntimeError("ARPACK unavailable")

            monkeypatch.setattr(scipy.sparse.linalg, "svds", fail)
        graph = tiny_pair(200, random_state=0).source
        np.random.seed(1)
        first = spectral_embedding(graph, dim=32)
        np.random.seed(2)
        second = spectral_embedding(graph, dim=32)
        assert np.array_equal(first, second)
        peaks = first[np.abs(first).argmax(axis=0), np.arange(32)]
        assert (peaks > 0).all()
