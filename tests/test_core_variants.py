"""Tests for the ablation variants of Table III."""

import pytest

from repro.core.config import HTCConfig
from repro.core.variants import (
    ABLATION_VARIANTS,
    EXTRA_ABLATION_VARIANTS,
    VARIANTS,
    all_variants,
    make_variant,
)


class TestMakeVariant:
    def test_paper_variant_names_available(self):
        for name in ABLATION_VARIANTS:
            aligner = make_variant(name)
            assert aligner.name == name

    def test_low_order_variant_uses_adjacency(self):
        aligner = make_variant("HTC-L")
        assert aligner.config.topology_mode == "adjacency"
        assert aligner.config.use_refinement is False

    def test_high_order_variant_without_refinement(self):
        aligner = make_variant("HTC-H")
        assert aligner.config.topology_mode == "orbit"
        assert aligner.config.use_refinement is False

    def test_lt_variant(self):
        aligner = make_variant("HTC-LT")
        assert aligner.config.topology_mode == "adjacency"
        assert aligner.config.use_refinement is True

    def test_dt_variant_uses_diffusion(self):
        aligner = make_variant("HTC-DT")
        assert aligner.config.topology_mode == "diffusion"

    def test_full_variant(self):
        aligner = make_variant("HTC")
        assert aligner.config.topology_mode == "orbit"
        assert aligner.config.use_refinement is True

    def test_binary_variant(self):
        aligner = make_variant("HTC-binary")
        assert aligner.config.weighted_orbits is False

    def test_cosine_variant(self):
        aligner = make_variant("HTC-cosine")
        assert aligner.config.use_lisi is False

    def test_base_config_propagated(self):
        base = HTCConfig(embedding_dim=7, epochs=3)
        aligner = make_variant("HTC-H", base)
        assert aligner.config.embedding_dim == 7
        assert aligner.config.epochs == 3

    @pytest.mark.parametrize("name", ["HTC-XYZ", "HTC-HT"])
    def test_unknown_variant(self, name):
        with pytest.raises(KeyError):
            make_variant(name)

    def test_table_names_are_variants(self):
        assert set(ABLATION_VARIANTS) | set(EXTRA_ABLATION_VARIANTS) == set(VARIANTS)

    def test_extra_variants_listed(self):
        assert "HTC-binary" in EXTRA_ABLATION_VARIANTS
        assert "HTC-cosine" in EXTRA_ABLATION_VARIANTS


class TestAllVariants:
    def test_returns_every_paper_variant(self):
        variants = all_variants()
        assert set(variants) == set(ABLATION_VARIANTS)
