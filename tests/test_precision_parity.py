"""Precision-policy parity tests.

Two contracts are locked here:

* the **float64 policy is bit-identical** to the historical kernels — every
  scoring/matching/indexing path called with an explicit ``policy="float64"``
  must return exactly the same bytes as the default call, and the default
  call itself is covered by the pre-existing identity suites;
* the **float32 policy stays within documented tolerances** — elementwise
  scores within ~1e-5 of float64 on unit-scale similarity values, p@1 and
  top-``k`` prefixes matching on well-separated problems, hubness vectors
  accumulated in float64.
"""

import numpy as np
import pytest

from repro.backend.precision import (
    FLOAT32,
    FLOAT64,
    as_score_matrix,
    resolve_policy,
)
from repro.core.config import HTCConfig
from repro.core.integration import integrate_alignment_matrices
from repro.nn import get_default_dtype, set_default_dtype
from repro.nn.tensor import Tensor
from repro.serve.index import build_index_from_embeddings
from repro.similarity import (
    ChunkedScorer,
    chunked_greedy_match,
    chunked_mutual_nearest_neighbors,
    chunked_score_matrix,
    chunked_top_k_indices,
    cosine_similarity,
    csls_matrix,
    lisi_matrix,
    pearson_similarity,
    streaming_hubness_degrees,
    top_k_indices,
)


@pytest.fixture(scope="module")
def embeddings():
    """A well-separated pair: row i of source truly matches row i of target."""
    rng = np.random.default_rng(7)
    base = rng.standard_normal((90, 24))
    source = base + 0.05 * rng.standard_normal(base.shape)
    target = base + 0.05 * rng.standard_normal(base.shape)
    return source, target


class TestResolvePolicy:
    def test_accepts_many_specs(self):
        assert resolve_policy(None) is FLOAT64
        assert resolve_policy("float64") is FLOAT64
        assert resolve_policy("float32") is FLOAT32
        assert resolve_policy(np.float32) is FLOAT32
        assert resolve_policy(np.dtype("float32")) is FLOAT32
        assert resolve_policy(FLOAT32) is FLOAT32

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="precision policy"):
            resolve_policy("float16")

    def test_accum_is_always_float64(self):
        for policy in (FLOAT64, FLOAT32):
            assert policy.accum_dtype == np.dtype(np.float64)

    def test_as_score_matrix_rules(self):
        assert as_score_matrix(np.zeros(3, dtype=np.float32)).dtype == np.float32
        assert as_score_matrix(np.zeros(3, dtype=np.float64)).dtype == np.float64
        assert as_score_matrix(np.zeros(3, dtype=np.int64)).dtype == np.float64
        arr = np.zeros((2, 2))
        assert as_score_matrix(arr) is arr  # no gratuitous copy


class TestFloat64BitIdentity:
    """policy='float64' must equal the policy-less historical call, bitwise."""

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda s, t, **kw: pearson_similarity(s, t, **kw),
            lambda s, t, **kw: cosine_similarity(s, t, **kw),
            lambda s, t, **kw: lisi_matrix(s, t, n_neighbors=10, **kw),
            lambda s, t, **kw: csls_matrix(s, t, n_neighbors=10, **kw),
            lambda s, t, **kw: chunked_score_matrix(
                s, t, correction="lisi", chunk_rows=64, **kw
            ),
        ],
    )
    def test_score_kernels(self, embeddings, kernel):
        source, target = embeddings
        default = kernel(source, target)
        explicit = kernel(source, target, policy="float64")
        assert default.dtype == np.float64
        assert np.array_equal(default, explicit)

    def test_chunked_matchers(self, embeddings):
        source, target = embeddings
        assert chunked_mutual_nearest_neighbors(
            source, target, chunk_rows=64
        ) == chunked_mutual_nearest_neighbors(
            source, target, chunk_rows=64, policy="float64"
        )
        assert chunked_greedy_match(
            source, target, chunk_rows=64
        ) == chunked_greedy_match(source, target, chunk_rows=64, policy="float64")
        assert np.array_equal(
            chunked_top_k_indices(source, target, 5, chunk_rows=64),
            chunked_top_k_indices(
                source, target, 5, chunk_rows=64, policy="float64"
            ),
        )

    def test_streaming_hubness(self, embeddings):
        source, target = embeddings
        plain = streaming_hubness_degrees(source, target, 10, chunk_rows=64)
        explicit = streaming_hubness_degrees(
            source, target, 10, chunk_rows=64, policy="float64"
        )
        assert np.array_equal(plain[0], explicit[0])
        assert np.array_equal(plain[1], explicit[1])

    def test_index_builder(self, embeddings):
        source, target = embeddings
        default = build_index_from_embeddings(source, target, k=5, correction="lisi")
        explicit = build_index_from_embeddings(
            source, target, k=5, correction="lisi", policy="float64"
        )
        assert np.array_equal(default.indices, explicit.indices)
        assert np.array_equal(default.scores, explicit.scores)
        assert default.score_dtype == np.float64

    def test_integration(self):
        rng = np.random.default_rng(3)
        matrices = {k: rng.standard_normal((20, 16)) for k in range(4)}
        counts = {0: 3, 1: 0, 2: 5, 3: 2}
        default, _ = integrate_alignment_matrices(matrices, counts, chunk_rows=7)
        explicit, _ = integrate_alignment_matrices(
            matrices, counts, chunk_rows=7, policy="float64"
        )
        assert np.array_equal(default, explicit)


class TestFloat32Tolerances:
    def test_scores_close_and_float32(self, embeddings):
        source, target = embeddings
        full64 = lisi_matrix(source, target, n_neighbors=10)
        full32 = lisi_matrix(source, target, n_neighbors=10, policy="float32")
        assert full32.dtype == np.float32
        # Similarity values live in [-1, 1]; the corrected scores in
        # [-4, 4] — 1e-4 absolute is the documented envelope.
        assert np.abs(full64 - full32).max() < 1e-4

    def test_chunked_float32_is_identical_to_dense_float32(self, embeddings):
        source, target = embeddings
        dense = lisi_matrix(source, target, n_neighbors=10, policy="float32")
        chunked = chunked_score_matrix(
            source,
            target,
            correction="lisi",
            n_neighbors=10,
            chunk_rows=64,
            policy="float32",
        )
        # The aligned-window bit-identity contract holds *within* a policy.
        assert np.array_equal(dense, chunked)

    def test_p_at_1_and_topk_prefix(self, embeddings):
        source, target = embeddings
        full64 = lisi_matrix(source, target, n_neighbors=10)
        full32 = lisi_matrix(source, target, n_neighbors=10, policy="float32")
        truth = np.arange(source.shape[0])
        p1_64 = float((full64.argmax(axis=1) == truth).mean())
        p1_32 = float((full32.argmax(axis=1) == truth).mean())
        assert abs(p1_64 - p1_32) <= 0.02
        top64 = top_k_indices(full64, 5)
        top32 = top_k_indices(full32, 5)
        # On this well-separated problem the top-1 prefix must agree.
        assert np.array_equal(top64[:, 0], top32[:, 0])

    def test_hubness_vectors_accumulate_in_float64(self, embeddings):
        source, target = embeddings
        scorer = ChunkedScorer(
            source, target, correction="lisi", chunk_rows=64, policy="float32"
        )
        source_hubness, target_hubness = scorer.hubness()
        assert source_hubness.dtype == np.float64
        assert target_hubness.dtype == np.float64
        sh64, th64 = streaming_hubness_degrees(source, target, 10, chunk_rows=64)
        assert np.abs(source_hubness - sh64).max() < 1e-5
        assert np.abs(target_hubness - th64).max() < 1e-5

    def test_integration_float32(self):
        rng = np.random.default_rng(3)
        matrices = {
            k: rng.standard_normal((30, 20)).astype(np.float32) for k in range(5)
        }
        counts = {k: k + 1 for k in range(5)}
        final32, importance = integrate_alignment_matrices(
            matrices, counts, policy="float32"
        )
        assert final32.dtype == np.float32
        final64, _ = integrate_alignment_matrices(
            {k: m.astype(np.float64) for k, m in matrices.items()}, counts
        )
        assert np.abs(final64 - final32).max() < 1e-5

    def test_index_builder_float32(self, embeddings):
        source, target = embeddings
        idx32 = build_index_from_embeddings(
            source, target, k=5, correction="lisi", policy="float32"
        )
        idx64 = build_index_from_embeddings(
            source, target, k=5, correction="lisi"
        )
        assert idx32.score_dtype == np.float32
        assert idx32.nbytes < idx64.nbytes
        # Best-candidate prefix agrees on a well-separated problem.
        assert np.array_equal(idx32.indices[:, 0], idx64.indices[:, 0])

    def test_aligner_end_to_end_float32(self, small_pair):
        from repro.core import HTCAligner

        result32 = HTCAligner(
            HTCConfig(
                epochs=4, embedding_dim=8, orbits=range(3), compute_dtype="float32"
            )
        ).align(small_pair)
        result64 = HTCAligner(
            HTCConfig(epochs=4, embedding_dim=8, orbits=range(3))
        ).align(small_pair)
        assert result32.alignment_matrix.dtype == np.float32
        match32 = result32.alignment_matrix.argmax(axis=1)
        match64 = result64.alignment_matrix.argmax(axis=1)
        assert (match32 == match64).mean() >= 0.95


class TestOutBufferPolicyValidation:
    """The pre-allocated ``out`` checks are dtype-policy-aware (satellite)."""

    def test_float64_policy_rejects_float32_out_naming_policy(self, embeddings):
        source, target = embeddings
        out = np.empty((source.shape[0], target.shape[0]), dtype=np.float32)
        with pytest.raises(ValueError, match="policy 'float64'"):
            pearson_similarity(source, target, out=out)

    def test_float32_policy_rejects_float64_out_naming_policy(self, embeddings):
        source, target = embeddings
        out = np.empty((source.shape[0], target.shape[0]), dtype=np.float64)
        with pytest.raises(ValueError, match="policy 'float32'"):
            pearson_similarity(source, target, out=out, policy="float32")

    def test_float32_out_accepted_under_float32_policy(self, embeddings):
        source, target = embeddings
        out = np.empty((source.shape[0], target.shape[0]), dtype=np.float32)
        got = lisi_matrix(
            source, target, n_neighbors=10, out=out, policy="float32"
        )
        assert got is out

    def test_chunked_full_matrix_out_validation(self, embeddings):
        source, target = embeddings
        scorer = ChunkedScorer(source, target, correction="lisi", policy="float32")
        bad = np.empty((source.shape[0], target.shape[0]), dtype=np.float64)
        with pytest.raises(ValueError, match="policy 'float32'"):
            scorer.full_matrix(out=bad)
        good = np.empty((source.shape[0], target.shape[0]), dtype=np.float32)
        assert scorer.full_matrix(out=good) is good

    def test_csls_out_validation_names_policy(self, embeddings):
        source, target = embeddings
        out = np.empty((source.shape[0], target.shape[0]), dtype=np.float32)
        with pytest.raises(ValueError, match="policy 'float64'"):
            csls_matrix(source, target, out=out)
        got = csls_matrix(source, target, out=out, policy="float32")
        assert got is out

    def test_wrong_shape_still_rejected(self, embeddings):
        source, target = embeddings
        out = np.empty((3, 3), dtype=np.float64)
        with pytest.raises(ValueError, match="shape"):
            pearson_similarity(source, target, out=out)


class TestMatchingDtypePreservation:
    def test_float32_matrix_not_upcast(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((40, 30)).astype(np.float32)
        top32 = top_k_indices(scores, 4)
        top64 = top_k_indices(scores.astype(np.float64), 4)
        # float32 -> float64 is exact, so selection must agree.
        assert np.array_equal(top32, top64)

    def test_int_matrix_still_promoted(self):
        scores = np.arange(12).reshape(3, 4)
        assert np.array_equal(
            top_k_indices(scores, 2), top_k_indices(scores.astype(float), 2)
        )


class TestTensorDtype:
    def test_default_dtype_round_trip(self):
        assert get_default_dtype() == np.dtype(np.float64)
        previous = set_default_dtype(np.float32)
        try:
            assert get_default_dtype() == np.dtype(np.float32)
            assert Tensor([1, 2, 3]).data.dtype == np.float32
        finally:
            set_default_dtype(previous)
        assert Tensor([1, 2, 3]).data.dtype == np.float64

    def test_explicit_dtype_wins(self):
        assert Tensor([1.0, 2.0], dtype=np.float32).data.dtype == np.float32

    def test_floating_input_preserved(self):
        data = np.ones(3, dtype=np.float32)
        assert Tensor(data).data.dtype == np.float32

    def test_invalid_default_dtype_rejected(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            set_default_dtype(np.int32)

    def test_float32_gradients_stay_float32(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        b = Tensor(np.full((2, 2), 2.0, dtype=np.float32), requires_grad=True)
        loss = (a * b).sum()
        loss.backward()
        assert a.grad.dtype == np.float32
        assert b.grad.dtype == np.float32
        assert np.allclose(a.grad, 2.0)

    def test_float64_autograd_unchanged(self):
        a = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        (a * a).sum().backward()
        assert a.grad.dtype == np.float64
        assert np.array_equal(a.grad, 2.0 * a.data)
