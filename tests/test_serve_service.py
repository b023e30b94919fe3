"""The AlignmentService: queries, counters, thread safety, multi-artifact."""

import threading

import numpy as np
import pytest

from repro.core.result import AlignmentResult
from repro.serve import AlignmentService, save_artifact
from repro.serve.index import build_index
from repro.similarity.matching import top_k_indices


def make_service_with_matrix(n_s=40, n_t=30, seed=0, **service_kwargs):
    matrix = np.random.default_rng(seed).standard_normal((n_s, n_t))
    service = AlignmentService(**service_kwargs)
    service.add_index("m", build_index(matrix, k=8))
    return service, matrix


class TestQueries:
    def test_match_parity(self):
        service, matrix = make_service_with_matrix()
        np.testing.assert_array_equal(
            service.match("m", np.arange(40)), matrix.argmax(axis=1)
        )

    def test_top_k_parity(self):
        service, matrix = make_service_with_matrix(seed=1)
        np.testing.assert_array_equal(
            service.top_k("m", np.arange(40), 5), top_k_indices(matrix, 5)
        )

    def test_reverse_ops(self):
        service, matrix = make_service_with_matrix(seed=2)
        np.testing.assert_array_equal(
            service.reverse_match("m", np.arange(30)), matrix.argmax(axis=0)
        )
        np.testing.assert_array_equal(
            service.reverse_top_k("m", np.arange(30), 3),
            top_k_indices(matrix.T, 3),
        )

    def test_cached_answers_identical(self):
        """A repeated query returns the identical answer, with no cache."""
        service, matrix = make_service_with_matrix(seed=3)
        first = service.top_k("m", [4, 7], 4)
        second = service.top_k("m", [4, 7], 4)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, top_k_indices(matrix, 4)[[4, 7]])
        stats = service.stats()
        assert stats["queries"] == 4
        assert "cache_hits" not in stats

    def test_unknown_artifact(self):
        service = AlignmentService()
        with pytest.raises(KeyError, match="not hosted"):
            service.match("ghost", [0])

    def test_empty_batch(self):
        service, _ = make_service_with_matrix(seed=6)
        assert service.match("m", []).size == 0

    @pytest.mark.parametrize("nodes", [[1.9], [True], np.array([2.5])])
    @pytest.mark.parametrize(
        "call",
        [
            lambda service, nodes: service.match("m", nodes),
            lambda service, nodes: service.top_k("m", nodes, 2),
            lambda service, nodes: service.reverse_match("m", nodes),
            lambda service, nodes: service.reverse_top_k("m", nodes, 2),
        ],
        ids=["match", "top_k", "reverse_match", "reverse_top_k"],
    )
    def test_non_integer_node_ids_are_rejected(self, call, nodes):
        # The wire validator's rule in-process too: a float or bool id is
        # refused, never truncated to the node it happens to round to.
        service, _ = make_service_with_matrix(seed=6)
        with pytest.raises(ValueError, match="integers"):
            call(service, nodes)
        assert service.stats()["queries"] == 0

    def test_integer_lists_and_arrays_still_answer(self):
        service, matrix = make_service_with_matrix(seed=6)
        expected = matrix.argmax(axis=1)[[1, 2]]
        np.testing.assert_array_equal(service.match("m", [1, 2]), expected)
        np.testing.assert_array_equal(
            service.match("m", np.array([1, 2], dtype=np.int32)), expected
        )
        assert service.top_k("m", [], 2).shape[0] == 0


class TestMultiArtifact:
    def test_hosts_many_and_isolates_answers(self):
        a = np.random.default_rng(7).standard_normal((20, 20))
        b = np.random.default_rng(8).standard_normal((20, 20))
        service = AlignmentService()
        service.add_index("a", build_index(a, k=4))
        service.add_index("b", build_index(b, k=4))
        assert service.artifact_ids() == ["a", "b"]
        np.testing.assert_array_equal(
            service.match("a", np.arange(20)), a.argmax(axis=1)
        )
        np.testing.assert_array_equal(
            service.match("b", np.arange(20)), b.argmax(axis=1)
        )

    def test_unload_stops_serving(self):
        service, _ = make_service_with_matrix(seed=9)
        service.match("m", [0, 1])
        service.unload("m")
        assert service.artifact_ids() == []
        with pytest.raises(KeyError, match="not hosted"):
            service.match("m", [0])

    def test_racing_add_index_answers_from_resolved_index(self, monkeypatch):
        """A query racing ``add_index`` answers wholly from the index it
        resolved; the next query answers from the new one."""
        a = np.zeros((5, 5))
        a[:, 2] = 1.0
        b = np.zeros((5, 5))
        b[:, 4] = 1.0
        service = AlignmentService()
        service.add_index("m", build_index(a, k=2))

        # While the query runs against index A, the id is rebound to B.
        original_run_op = AlignmentService._run_op

        def racing_run_op(self_service, index, op, nodes, k):
            if index.indices[0, 0] == 2:  # the query against index A
                service.add_index("m", build_index(b, k=2))
            return original_run_op(self_service, index, op, nodes, k)

        monkeypatch.setattr(AlignmentService, "_run_op", racing_run_op)
        np.testing.assert_array_equal(service.match("m", np.arange(5)), [2] * 5)
        np.testing.assert_array_equal(service.match("m", np.arange(5)), [4] * 5)

    def test_replacing_artifact_serves_new_index(self):
        a = np.zeros((5, 5))
        a[:, 2] = 1.0
        b = np.zeros((5, 5))
        b[:, 4] = 1.0
        service = AlignmentService()
        service.add_index("m", build_index(a, k=2))
        assert int(service.match("m", [0])[0]) == 2
        service.add_index("m", build_index(b, k=2))
        assert int(service.match("m", [0])[0]) == 4

    def test_load_from_store(self, tmp_path):
        matrix = np.random.default_rng(10).standard_normal((25, 25))
        info = save_artifact(
            AlignmentResult(alignment_matrix=matrix), root=tmp_path, index_k=6
        )
        service = AlignmentService()
        artifact_id = service.load(tmp_path, info.artifact_id)
        np.testing.assert_array_equal(
            service.match(artifact_id, np.arange(25)), matrix.argmax(axis=1)
        )
        description = service.describe(artifact_id)
        assert description["shape"] == [25, 25]
        assert description["index_k"] == 6


class TestStats:
    def test_counters(self):
        service, _ = make_service_with_matrix(seed=11)
        service.match("m", [0, 1, 2])
        service.top_k("m", [0], 3)
        stats = service.stats()
        assert stats["queries"] == 4
        assert stats["batches"] == 2
        assert stats["per_op"] == {"match": 3, "top_k": 1}
        assert stats["total_latency_s"] >= 0.0

    def test_reset(self):
        service, _ = make_service_with_matrix(seed=12)
        service.match("m", [0])
        service.reset_stats()
        stats = service.stats()
        assert stats["queries"] == 0
        assert stats["per_op"] == {}


class TestThreadSafety:
    def test_concurrent_queries_are_consistent(self):
        service, matrix = make_service_with_matrix(n_s=64, n_t=48, seed=13)
        expected = matrix.argmax(axis=1)
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(50):
                nodes = rng.integers(0, 64, size=8)
                answers = service.match("m", nodes)
                if not np.array_equal(answers, expected[nodes]):
                    errors.append((nodes, answers))

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert service.stats()["queries"] == 8 * 50 * 8
