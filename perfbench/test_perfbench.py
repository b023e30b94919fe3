"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import types

import pytest

from align import _trajectories
from measure import (
    open_loop_times,
    percentile,
    quartile_spread,
    raised_iterations,
    samples_beyond,
    schedule,
    self_times,
    tail_percentile,
    useful_ratio,
)
from spans import Probe, Tracer, installed


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond_counts_what_ranks_above():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(100, 99) == 1
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(5, 50) == 2


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(1, 101))) == (90.0, 90, 10)
    assert tail_percentile(list(range(1, 1001))) == (99.0, 990, 10)
    assert tail_percentile(list(range(1, 10001))) == (99.9, 9990, 10)
    assert tail_percentile(list(range(19))) is None


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 2.0, "end": 5.0},   # overlaps span 1
        {"id": 3, "parent": 0, "start": 8.0, "end": 12.0},  # runs past its parent
        {"id": 4, "parent": 1, "start": 1.5, "end": 2.0},
    ]
    result = self_times(spans)
    assert result[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert result[1] == pytest.approx(2.0 - 0.5)
    assert result[2] == pytest.approx(3.0)
    assert result[4] == pytest.approx(0.5)


def test_open_loop_latency_counts_the_stall_for_later_requests():
    due = schedule(100.0, 3, start=1.0)
    assert due == pytest.approx([1.0, 1.01, 1.02])
    # The first request stalls for 40 ms; the next two are sent late.
    sent = [1.0, 1.05, 1.051]
    done = [1.04, 1.051, 1.052]
    latency, lateness = open_loop_times(due, sent, done)
    assert latency == pytest.approx([0.04, 0.041, 0.032])
    assert lateness == pytest.approx([0.0, 0.04, 0.031])
    with pytest.raises(ValueError):
        schedule(0.0, 3)


def test_useful_ratio_counts_iterations_that_raised_the_best_count():
    assert raised_iterations([5, 7, 9, 9]) == 2
    assert raised_iterations([5, 4, 6]) == 1
    assert useful_ratio([[5, 7, 9, 9]]) == pytest.approx(2 / 3)
    assert useful_ratio([[5, 7, 9, 9], [3, 2]]) == pytest.approx(2 / 4)
    assert useful_ratio([[3]]) is None


def test_trajectory_merges_repeat_counts_of_one_matrix():
    tracer = Tracer()
    with tracer.span("refine_view"):
        for matrix, count in (("A", 5), ("A", 5), ("B", 7), ("B", 7), ("C", 7)):
            with tracer.span("mnn", matrix=matrix, count=count):
                pass
    assert _trajectories(tracer) == [[5, 7, 7]]


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake")

    def double(x):
        return 2 * x

    class Base:
        def step(self):
            return "base"

    class Child(Base):
        pass

    module.double, module.Base, module.Child = double, Base, Child
    monkeypatch.setitem(sys.modules, "perfbench_fake", module)
    return module


def test_probes_record_spans_and_restore_targets(fake_module):
    original = fake_module.double
    tracer = Tracer()
    probes = [
        Probe("double", "perfbench_fake:double",
              lambda span, args, kwargs, result: span["attrs"].update(result=result)),
        Probe("step", "perfbench_fake:Child.step"),
    ]
    with installed(tracer, probes) as absent:
        assert fake_module.double(3) == 6
        assert fake_module.Child().step() == "base"
    assert absent == {}
    assert [s["name"] for s in tracer.spans] == ["double", "step"]
    assert tracer.spans[0]["attrs"]["result"] == 6
    assert fake_module.double is original
    assert "step" not in fake_module.Child.__dict__


def test_missing_probe_target_is_reported_absent(fake_module):
    tracer = Tracer()
    probes = [Probe("gone", "perfbench_fake:removed"), Probe("double", "perfbench_fake:double")]
    with installed(tracer, probes) as absent:
        fake_module.double(1)
    assert set(absent) == {"gone"}
    assert "perfbench_fake:removed" in absent["gone"]
    assert len(tracer.named("double")) == 1
