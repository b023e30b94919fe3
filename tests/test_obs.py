"""Tests for the observability core (repro.obs) and its integrations."""

import json
import math
import threading
import time

import numpy as np
import pytest

from repro.api.core import ApiState, RawResponse, dispatch, handle_metrics
from repro.obs.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    json_snapshot,
    parse_prometheus_text,
    prometheus_text,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    OBS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from repro.obs.tracing import TRACE_ENV_VAR, enable_tracing, span, tracing_enabled
from repro.serve import AlignmentService, export_result


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    enable_tracing(False)
    yield
    enable_tracing(False)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs_store")
    matrix = np.random.default_rng(11).standard_normal((20, 15))
    info = export_result(
        matrix,
        root=root,
        name="obs-test",
        index_k=6,
        metadata={"dataset": "tiny", "method": "Degree"},
    )
    return root, info.artifact_id


def _span_totals(registry):
    """``{span path: span_total}`` over every span ``registry`` holds."""
    return {
        dict(labels)["span"]: metric.value
        for name, labels, metric in registry.collect()
        if name == "span_total"
    }


def _manifest_span_paths(report):
    """The span paths merged into a suite manifest's observability key."""
    manifest = json.loads(report.manifest_path.read_text())
    merged = MetricsRegistry("check")
    merged.merge_snapshot(manifest["observability"])
    return set(_span_totals(merged))


# ----------------------------------------------------------------------
# metrics core
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc_and_value(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1)

    def test_reset(self):
        counter = Counter()
        counter.inc(7)
        counter.reset()
        assert counter.value == 0.0


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(-3)
        assert gauge.value == 7.0


class TestHistogram:
    def test_default_buckets_log_spaced(self):
        ratios = [b2 / b1 for b1, b2 in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])]
        assert all(abs(r - 10 ** 0.25) < 1e-9 for r in ratios)
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-5)
        assert DEFAULT_BUCKETS[-1] == pytest.approx(100.0)

    def test_observe_and_summary(self):
        histogram = Histogram()
        for value in (0.001, 0.002, 0.5):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(0.503)
        assert summary["min"] == pytest.approx(0.001)
        assert summary["max"] == pytest.approx(0.5)

    def test_quantile_is_exact_upper_bound(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(1e-4, 10.0, size=500)
        histogram = Histogram()
        for value in values:
            histogram.observe(float(value))
        for q in (0.5, 0.95, 0.99):
            true_quantile = float(np.quantile(values, q))
            assert histogram.quantile(q) >= true_quantile
            # ...and the bound is tight: at most one bucket factor above.
            assert histogram.quantile(q) <= true_quantile * 10 ** 0.25 * 1.0001

    def test_quantile_empty_is_nan(self):
        assert math.isnan(Histogram().quantile(0.5))

    def test_overflow_bucket_reports_observed_max(self):
        histogram = Histogram()
        histogram.observe(12345.0)  # above the largest finite bound
        assert histogram.quantile(0.99) == 12345.0

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))

    def test_merge_requires_same_buckets(self):
        left = Histogram(buckets=(1.0, 2.0))
        right = Histogram(buckets=(1.0, 3.0))
        with pytest.raises(ValueError, match="bucket schemes"):
            left.merge(right.snapshot())

    def test_merge_equals_joint_observation(self):
        rng = np.random.default_rng(1)
        a_values = rng.uniform(0, 5, size=100)
        b_values = rng.uniform(0, 5, size=77)
        separate_a, separate_b, joint = Histogram(), Histogram(), Histogram()
        for value in a_values:
            separate_a.observe(float(value))
            joint.observe(float(value))
        for value in b_values:
            separate_b.observe(float(value))
            joint.observe(float(value))
        separate_a.merge(separate_b.snapshot())
        merged_snap, joint_snap = separate_a.snapshot(), joint.snapshot()
        assert merged_snap["counts"] == joint_snap["counts"]
        assert merged_snap["count"] == joint_snap["count"]
        assert merged_snap["sum"] == pytest.approx(joint_snap["sum"])

    def test_merge_associative(self):
        rng = np.random.default_rng(2)
        chunks = [rng.uniform(0, 2, size=50) for _ in range(3)]

        def build(values):
            histogram = Histogram()
            for value in values:
                histogram.observe(float(value))
            return histogram

        # (a + b) + c
        left = build(chunks[0])
        left.merge(build(chunks[1]).snapshot())
        left.merge(build(chunks[2]).snapshot())
        # a + (b + c)
        inner = build(chunks[1])
        inner.merge(build(chunks[2]).snapshot())
        right = build(chunks[0])
        right.merge(inner.snapshot())
        assert left.snapshot()["counts"] == right.snapshot()["counts"]
        assert left.snapshot()["count"] == right.snapshot()["count"]
        assert left.snapshot()["sum"] == pytest.approx(right.snapshot()["sum"])


class TestConcurrency:
    THREADS = 8
    PER_THREAD = 2000

    def test_concurrent_counter_no_lost_updates(self):
        counter = Counter()
        barrier = threading.Barrier(self.THREADS)

        def work():
            barrier.wait()
            for _ in range(self.PER_THREAD):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == self.THREADS * self.PER_THREAD

    def test_concurrent_counter_monotone_under_load(self):
        counter = Counter()
        stop = threading.Event()

        def work():
            while not stop.is_set():
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        samples = [counter.value for _ in range(500)]
        stop.set()
        for thread in threads:
            thread.join()
        assert all(b >= a for a, b in zip(samples, samples[1:]))

    def test_concurrent_histogram_no_lost_updates(self):
        histogram = Histogram()
        barrier = threading.Barrier(self.THREADS)

        def work(seed):
            values = np.random.default_rng(seed).uniform(0, 1, self.PER_THREAD)
            barrier.wait()
            for value in values:
                histogram.observe(float(value))

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = histogram.snapshot()
        assert snap["count"] == self.THREADS * self.PER_THREAD
        assert sum(snap["counts"]) == self.THREADS * self.PER_THREAD

    def test_concurrent_registry_series_creation(self):
        registry = MetricsRegistry("t")
        barrier = threading.Barrier(self.THREADS)

        def work():
            barrier.wait()
            for i in range(200):
                registry.counter("shared_total", worker=i % 5).inc()

        threads = [threading.Thread(target=work) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.sum_values("shared_total") == self.THREADS * 200
        assert len(registry.family("shared_total")) == 5


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry("t")
        assert registry.counter("a_total", x=1) is registry.counter("a_total", x=1)
        assert registry.counter("a_total", x=1) is not registry.counter(
            "a_total", x=2
        )

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry("t")
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing", other="label")

    def test_snapshot_roundtrip_merge(self):
        registry = MetricsRegistry("t")
        registry.counter("c_total", op="x").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h_seconds").observe(0.01)
        snapshot = registry.snapshot()
        assert snapshot["schema_version"] == OBS_SCHEMA_VERSION
        assert json.loads(json.dumps(snapshot)) == snapshot  # JSON-safe
        other = MetricsRegistry("u")
        other.merge_snapshot(snapshot)
        other.merge_snapshot(snapshot)
        assert other.counter("c_total", op="x").value == 6
        assert other.histogram("h_seconds").count == 2

    def test_merge_snapshot_rejects_other_major(self):
        registry = MetricsRegistry("t")
        with pytest.raises(ValueError, match="schema"):
            registry.merge_snapshot({"schema_version": "99.0", "metrics": []})

    def test_reset_zeroes_but_keeps_series(self):
        registry = MetricsRegistry("t")
        registry.counter("c_total").inc(5)
        registry.histogram("h_seconds").observe(1.0)
        registry.reset()
        assert registry.counter("c_total").value == 0
        assert registry.histogram("h_seconds").count == 0
        assert len(registry) == 2

    def test_default_registry_is_process_global(self):
        assert default_registry() is default_registry()


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_disabled_span_records_nothing(self):
        registry = MetricsRegistry("t")
        assert not tracing_enabled()
        with span("phase", registry):
            pass
        assert len(registry) == 0

    def test_disabled_span_is_shared_singleton(self):
        assert span("a") is span("b")  # no allocation on the off path

    def test_enabled_span_records_histogram_and_counter(self):
        registry = MetricsRegistry("t")
        enable_tracing(True)
        with span("load", registry):
            pass
        with span("load", registry):
            pass
        assert registry.counter("span_total", span="load").value == 2
        assert registry.histogram("span_seconds", span="load").count == 2

    def test_nested_spans_build_paths(self):
        registry = MetricsRegistry("t")
        enable_tracing(True)
        with span("outer", registry):
            with span("inner", registry):
                pass
            with span("inner", registry):
                pass
        paths = {
            labels[0][1]
            for name, labels, _ in registry.collect()
            if name == "span_total"
        }
        assert paths == {"outer", "outer/inner"}
        assert registry.counter("span_total", span="outer/inner").value == 2

    def test_nesting_is_per_thread(self):
        registry = MetricsRegistry("t")
        enable_tracing(True)
        paths = []

        def worker():
            with span("child", registry) as active:
                paths.append(active.path)

        with span("parent", registry):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The worker thread has its own stack: no "parent/" prefix.
        assert paths == ["child"]

    def test_nested_span_records_into_parent_registry(self):
        registry = MetricsRegistry("job")
        enable_tracing(True)
        before = default_registry().snapshot()
        with span("outer", registry):
            with span("inner"):
                with span("leaf"):
                    pass
        assert _span_totals(registry) == {
            "outer": 1,
            "outer/inner": 1,
            "outer/inner/leaf": 1,
        }
        assert default_registry().snapshot() == before

    def test_given_registry_wins_over_parent(self):
        parent, own = MetricsRegistry("parent"), MetricsRegistry("own")
        enable_tracing(True)
        with span("outer", parent):
            with span("inner", own):
                pass
        assert _span_totals(parent) == {"outer": 1}
        assert _span_totals(own) == {"outer/inner": 1}

    def test_root_span_records_into_default_registry(self, monkeypatch):
        import repro.obs.tracing as tracing

        fallback = MetricsRegistry("default")
        monkeypatch.setattr(tracing, "default_registry", lambda: fallback)
        enable_tracing(True)
        with span("root"):
            pass
        assert _span_totals(fallback) == {"root": 1}


class TestSpanInto:
    """``span(name, into=d)``: the stage timer behind ``stage_times``."""

    def test_accumulates_over_reentries(self):
        stage_times = {}
        with span("a", into=stage_times):
            time.sleep(0.002)
        with span("a", into=stage_times):
            time.sleep(0.002)
        with span("b", into=stage_times):
            pass
        assert list(stage_times) == ["a", "b"]
        assert stage_times["a"] >= 0.004
        assert stage_times["b"] >= 0.0

    def test_times_with_tracing_off_without_recording(self):
        registry = MetricsRegistry("t")
        before = default_registry().snapshot()
        stage_times = {}
        active = span("stage", registry, into=stage_times)
        assert active is not span("stage")  # not the shared no-op
        with active:
            time.sleep(0.001)
        assert stage_times["stage"] >= 0.001
        assert len(registry) == 0
        assert default_registry().snapshot() == before

    @pytest.mark.parametrize("traced", [False, True])
    def test_records_when_the_body_raises(self, traced):
        registry = MetricsRegistry("t")
        enable_tracing(traced)
        stage_times = {}
        with pytest.raises(RuntimeError):
            with span("failing", registry, into=stage_times):
                raise RuntimeError("boom")
        assert "failing" in stage_times
        assert _span_totals(registry) == ({"failing": 1} if traced else {})
        # The failed span left the stack: the next one is a root again.
        with span("next", registry, into=stage_times) as active:
            assert active.path == "next"

    def test_traced_span_records_the_same_interval(self):
        registry = MetricsRegistry("t")
        enable_tracing(True)
        stage_times = {}
        with span("stage", registry, into=stage_times):
            time.sleep(0.001)
        histogram = registry.histogram("span_seconds", span="stage")
        assert histogram.count == 1
        assert histogram.sum == stage_times["stage"]


# ----------------------------------------------------------------------
# exposition
# ----------------------------------------------------------------------
class TestExposition:
    def test_prometheus_golden(self):
        registry = MetricsRegistry("t")
        registry.counter("requests_total", endpoint="/match").inc(3)
        registry.gauge("hosted").set(2)
        histogram = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        expected = "\n".join(
            [
                "# TYPE hosted gauge",
                "hosted 2",
                "# TYPE lat_seconds histogram",
                'lat_seconds_bucket{le="0.1"} 1',
                'lat_seconds_bucket{le="1"} 2',
                'lat_seconds_bucket{le="+Inf"} 3',
                "lat_seconds_sum 5.55",
                "lat_seconds_count 3",
                "# TYPE requests_total counter",
                'requests_total{endpoint="/match"} 3',
            ]
        ) + "\n"
        assert prometheus_text(registry) == expected

    def test_deterministic_across_insertion_order(self):
        first, second = MetricsRegistry("a"), MetricsRegistry("b")
        first.counter("x_total").inc()
        first.counter("a_total", z=1).inc()
        second.counter("a_total", z=1).inc()
        second.counter("x_total").inc()
        assert prometheus_text(first) == prometheus_text(second)

    def test_name_and_label_sanitization(self):
        registry = MetricsRegistry("t")
        registry.counter("weird.name-total", **{"label": 'va"l\nue'}).inc()
        text = prometheus_text(registry)
        assert "weird_name_total" in text
        assert r"va\"l\nue" in text

    def test_parse_roundtrip(self):
        registry = MetricsRegistry("t")
        registry.counter("c_total", op="x").inc(4)
        registry.histogram("h_seconds").observe(0.02)
        parsed = parse_prometheus_text(prometheus_text(registry))
        assert parsed["c_total"]['c_total{op="x"}'] == 4
        assert parsed["h_seconds"]["h_seconds_count"] == 1

    def test_json_snapshot_merges_registries(self):
        first, second = MetricsRegistry("a"), MetricsRegistry("b")
        first.counter("one_total").inc()
        second.counter("two_total").inc(2)
        merged = json_snapshot(first, second)
        names = {entry["name"] for entry in merged["metrics"]}
        assert names == {"one_total", "two_total"}


# ----------------------------------------------------------------------
# service integration
# ----------------------------------------------------------------------
class TestServiceStats:
    def test_latency_key_has_per_op_histograms(self, store):
        root, artifact_id = store
        service = AlignmentService()
        service.load(root, artifact_id)
        service.match(artifact_id, [0, 1, 2])
        service.top_k(artifact_id, [3], 2)
        stats = service.stats()
        assert set(stats["latency"]) == {"match", "top_k"}
        batch = stats["latency"]["match"]["batch"]
        assert batch["count"] == 1
        assert batch["p99"] >= batch["sum"] / batch["count"] >= 0
        assert set(stats["latency"]["match"]) == {"batch"}

    def test_legacy_keys_derived_from_metrics(self, store):
        root, artifact_id = store
        service = AlignmentService()
        service.load(root, artifact_id)
        service.match(artifact_id, [0, 1, 2])
        service.match(artifact_id, [0, 1, 2])
        stats = service.stats()
        assert stats["queries"] == 6
        assert stats["batches"] == 2
        assert stats["per_op"] == {"match": 6}
        assert stats["total_latency_s"] > 0

    def test_reset_clears_histograms_and_spans(self, store):
        root, artifact_id = store
        service = AlignmentService()
        service.load(root, artifact_id)
        enable_tracing(True)
        with span("custom", service.metrics):
            service.match(artifact_id, [0])
        service.reset_stats()
        stats = service.stats()
        assert stats["queries"] == 0
        assert stats["per_op"] == {}
        assert stats["latency"] == {}
        assert service.metrics.counter("span_total", span="custom").value == 0

    def test_stats_isolated_per_service(self, store):
        root, artifact_id = store
        first, second = AlignmentService(), AlignmentService()
        first.load(root, artifact_id)
        second.load(root, artifact_id)
        first.match(artifact_id, [0, 1])
        assert first.stats()["queries"] == 2
        assert second.stats()["queries"] == 0

    def test_note_never_takes_service_lock(self, store):
        """Stats recording must not serialize against the service lock."""
        root, artifact_id = store
        service = AlignmentService()
        service.load(root, artifact_id)
        with service._lock:  # hold the index lock...
            service._note("match", 4, started=0.0)  # ...must not block
        assert service.stats()["batches"] == 1


# ----------------------------------------------------------------------
# /metrics endpoint
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def _state(self, store) -> ApiState:
        root, _ = store
        return ApiState(root=root, metrics=MetricsRegistry("test"))

    def test_prometheus_default(self, store):
        root, artifact_id = store
        state = self._state(store)
        status, payload = dispatch(
            state, "POST", "/match", body={"artifact_id": artifact_id, "nodes": [0]}
        )
        assert status == 200
        status, raw = dispatch(state, "GET", "/metrics")
        assert status == 200
        assert isinstance(raw, RawResponse)
        assert raw.content_type == PROMETHEUS_CONTENT_TYPE
        parsed = parse_prometheus_text(raw.text)
        assert (
            parsed["api_requests_total"][
                'api_requests_total{endpoint="/match",status="2xx"}'
            ]
            == 1
        )
        assert 'serve_batch_seconds_bucket{op="match"' in raw.text

    def test_scrape_is_not_self_counted(self, store):
        state = self._state(store)
        _, first = dispatch(state, "GET", "/metrics")
        _, second = dispatch(state, "GET", "/metrics")
        assert first.text == second.text

    def test_json_format(self, store):
        state = self._state(store)
        dispatch(state, "GET", "/health")
        status, payload = dispatch(
            state, "GET", "/metrics", params={"format": "json"}
        )
        assert status == 200
        assert payload["schema_version"] == OBS_SCHEMA_VERSION
        names = {entry["name"] for entry in payload["metrics"]}
        assert "api_requests_total" in names

    def test_unknown_format_is_400(self, store):
        state = self._state(store)
        status, payload = dispatch(
            state, "GET", "/metrics", params={"format": "xml"}
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_error_requests_counted_by_status_class(self, store):
        state = self._state(store)
        dispatch(state, "GET", "/no-such-route")
        _, raw = dispatch(state, "GET", "/metrics")
        parsed = parse_prometheus_text(raw.text)
        assert (
            parsed["api_requests_total"][
                'api_requests_total{endpoint="other",status="4xx"}'
            ]
            == 1
        )

    def test_handle_metrics_merges_service_registry(self, store):
        root, artifact_id = store
        state = self._state(store)
        state.service.load(root, artifact_id)
        state.service.match(artifact_id, [0, 1])
        raw = handle_metrics(state)
        assert "serve_queries_total" in raw.text  # from service registry
        parsed = parse_prometheus_text(raw.text)
        assert (
            parsed["serve_queries_total"]['serve_queries_total{op="match"}'] == 2
        )

    def test_stdlib_http_serves_metrics(self, store):
        import urllib.request

        from repro.api.http import BackgroundServer

        root, artifact_id = store
        state = self._state(store)
        with BackgroundServer(state) as server:
            response = urllib.request.urlopen(server.address + "/metrics")
            body = response.read().decode()
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        _, raw = dispatch(state, "GET", "/metrics")
        assert body == raw.text


# ----------------------------------------------------------------------
# runner integration
# ----------------------------------------------------------------------
_TINY_50 = {"name": "tiny", "params": {"n_nodes": 50}}
_FAST_HTC = {"epochs": 2, "embedding_dim": 8, "orbit_cache": "off"}


class TestRunnerObservability:
    def test_job_spans_merged_into_manifest(self, tmp_path):
        from repro.runner.executor import run_suite
        from repro.runner.spec import SuiteSpec

        enable_tracing(True)
        suite = SuiteSpec(
            name="obs", datasets=["tiny"], methods=["Degree"], n_runs=1, seed=0
        )
        report = run_suite(suite, tmp_path, jobs=1)
        spans = _manifest_span_paths(report)
        assert "runner.job" in spans
        assert "runner.job/align" in spans

    def test_htc_job_records_fig8_stages(self, tmp_path):
        from repro.core.aligner import (
            STAGE_FINE_TUNING,
            STAGE_INTEGRATION,
            STAGE_LAPLACIAN,
            STAGE_ORBIT_COUNTING,
            STAGE_TRAINING,
        )
        from repro.runner.executor import run_suite
        from repro.runner.spec import SuiteSpec

        enable_tracing(True)
        before = _span_totals(default_registry())
        suite = SuiteSpec(
            name="obs-htc", datasets=[_TINY_50], methods=["HTC"], config=_FAST_HTC
        )
        report = run_suite(suite, tmp_path, jobs=1)
        assert report.counts == {"done": 1}
        stages = (
            STAGE_ORBIT_COUNTING,
            STAGE_LAPLACIAN,
            STAGE_TRAINING,
            STAGE_FINE_TUNING,
            STAGE_INTEGRATION,
        )
        expected = {f"runner.job/align/{stage}" for stage in stages}
        assert expected <= _manifest_span_paths(report)
        assert _span_totals(default_registry()) == before

    @pytest.mark.parametrize(
        "jobs, executor", [(1, None), (2, "process-pool")], ids=["inline", "pool"]
    )
    def test_sharded_job_records_shard_stages(
        self, tmp_path, monkeypatch, jobs, executor
    ):
        from repro.runner.executor import run_suite
        from repro.runner.spec import SuiteSpec

        # Workers started by spawn read tracing from the environment.
        monkeypatch.setenv(TRACE_ENV_VAR, "1")
        enable_tracing(True)
        before = _span_totals(default_registry())
        suite = SuiteSpec(
            name="obs-shard",
            datasets=[_TINY_50],
            methods=["HTC"],
            config=dict(_FAST_HTC, shard_count=2),
        )
        report = run_suite(suite, tmp_path, jobs=jobs, executor=executor)
        assert report.counts == {"done": 1}
        assert report.executor == (executor or "serial")
        spans = _manifest_span_paths(report)
        for stage in ("partition", "shard_alignment", "stitch", "refine"):
            assert f"runner.job/align/{stage}" in spans
        assert "runner.job/align/stitch/stitch.merge" in spans
        assert _span_totals(default_registry()) == before

    def test_manifest_clean_when_tracing_off(self, tmp_path):
        from repro.runner.executor import run_suite
        from repro.runner.spec import SuiteSpec

        suite = SuiteSpec(
            name="obs-off", datasets=["tiny"], methods=["Degree"], n_runs=1, seed=0
        )
        report = run_suite(suite, tmp_path, jobs=1)
        manifest = json.loads(report.manifest_path.read_text())
        assert "observability" not in manifest
        assert all("observability" not in a for a in report.artifacts)


# ----------------------------------------------------------------------
# backend selection and the similarity hot path
# ----------------------------------------------------------------------
class TestSelectionRecordsNothing:
    def test_backend_selection_and_kernels_leave_metrics_untouched(self):
        """Choosing a backend or scoring a block is not a metrics event."""
        from repro.backend import get_executor_backend, resolve_executor_backend
        from repro.similarity import cosine_similarity, pearson_similarity

        before = default_registry().snapshot()
        for name in ("auto", "serial", "process-pool", "process-pool-shm"):
            resolve_executor_backend(name)
            get_executor_backend(name)
        rng = np.random.default_rng(0)
        source, target = rng.standard_normal((70, 8)), rng.standard_normal((50, 8))
        pearson_similarity(source, target)
        cosine_similarity(source, target)
        assert default_registry().snapshot() == before
        assert "backend_resolutions_total" not in {
            name for name, _, _ in default_registry().collect()
        }
