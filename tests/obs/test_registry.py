"""Tests of the metrics registry: primitives, merge semantics, scoping."""

import itertools
import json

import pytest

from repro.core.pipeline import DomoConfig, DomoReconstructor
from repro.obs.registry import (
    COUNT_EDGES,
    ITERATION_EDGES,
    TIME_EDGES_S,
    MetricsRegistry,
    current_registry,
    disabled_metrics,
    isolated_registry,
)

from tests.core.conftest import make_received


def _worker_snapshot(i: int) -> dict:
    registry = MetricsRegistry()
    registry.inc("windows", 1)
    registry.inc("solves", i + 1)
    registry.set_gauge("depth", float(i - 1))
    registry.observe("iters", 10.0 * (i + 1), ITERATION_EDGES)
    # Dyadic durations sum exactly in any order, so the merged snapshot
    # is bit-identical across permutations (float addition is only
    # associative when no rounding occurs).
    registry.record_span("solve", 0.25 * 2.0 ** i, error=False)
    return registry.snapshot()


def test_merge_is_order_independent():
    snapshots = [_worker_snapshot(i) for i in range(4)]
    merged = []
    for order in itertools.permutations(range(4)):
        target = MetricsRegistry()
        for i in order:
            target.merge(snapshots[i])
        merged.append(target.snapshot())
    assert all(snap == merged[0] for snap in merged)
    assert merged[0]["counters"]["windows"] == 4
    assert merged[0]["counters"]["solves"] == 1 + 2 + 3 + 4
    assert merged[0]["histograms"]["iters"]["count"] == 4
    assert merged[0]["spans"]["solve"]["count"] == 4


def test_merge_preserves_negative_gauges():
    source = MetricsRegistry()
    source.set_gauge("offset", -5.0)
    target = MetricsRegistry()
    target.merge(source.snapshot())
    gauge = target.snapshot()["gauges"]["offset"]
    assert gauge["last"] == -5.0
    assert gauge["min"] == -5.0
    assert gauge["max"] == -5.0


def test_gauge_last_is_merge_commutative():
    a = MetricsRegistry()
    a.set_gauge("g", 3.0)
    b = MetricsRegistry()
    b.set_gauge("g", 7.0)
    ab = MetricsRegistry()
    ab.merge(a.snapshot())
    ab.merge(b.snapshot())
    ba = MetricsRegistry()
    ba.merge(b.snapshot())
    ba.merge(a.snapshot())
    assert ab.snapshot() == ba.snapshot()


def test_histogram_rejects_bad_edges_and_nan():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.histogram("bad", (3.0, 1.0))
    registry.observe("t", float("nan"), TIME_EDGES_S)
    assert registry.snapshot()["histograms"]["t"]["count"] == 0
    with pytest.raises(ValueError):
        registry.histogram("t", COUNT_EDGES)  # conflicting edges
    # Edges compare by value: ints match the stored floats.
    floats = registry.histogram("i", (1.0, 2.0, 4.0))
    assert registry.histogram("i", (1, 2, 4)) is floats
    assert registry.histogram("i", [1, 2.0, 4]) is floats
    with pytest.raises(ValueError):
        registry.histogram("i", (1, 2, 5))


def test_histogram_counts_invariant():
    registry = MetricsRegistry()
    for value in (0.5, 1.5, 1e6, 0.0):
        registry.observe("c", value, COUNT_EDGES)
    data = registry.snapshot()["histograms"]["c"]
    assert len(data["counts"]) == len(data["edges"]) + 1
    assert sum(data["counts"]) == data["count"] == 4
    assert data["counts"][-1] == 1  # the 1e6 overflow


def test_isolated_and_disabled_scopes():
    outer = current_registry()
    with isolated_registry() as registry:
        assert current_registry() is registry
        current_registry().inc("seen")
        with disabled_metrics():
            current_registry().inc("unseen")
            current_registry().set_gauge("unseen_g", 1.0)
        snap = registry.snapshot()
    assert current_registry() is outer
    assert snap["counters"] == {"seen": 1}
    assert "unseen" not in snap["counters"]
    assert snap["gauges"] == {}


def _two_hop_trace(num_sources=4, packets_per_source=10, period=500.0):
    received = []
    for source in range(2, 2 + num_sources):
        for seqno in range(packets_per_source):
            t0 = seqno * period + source * 17.0
            packet, _ = make_received(
                source, seqno, (source, 1, 0), (t0, t0 + 10.0, t0 + 20.0)
            )
            received.append(packet)
    return received


def _estimate_with_registry(trace, parallel: bool):
    config = DomoConfig(
        parallel=parallel, max_workers=2 if parallel else None
    )
    with isolated_registry() as registry:
        result = DomoReconstructor(config).estimate(trace)
    return result, registry.snapshot()


def test_parallel_and_serial_runs_agree_on_deterministic_metrics():
    """Worker snapshots merged at drain == the serial aggregate.

    Only deterministic metrics are compared: event counters and the
    value-shaped histograms (iterations, unknowns, residuals). Timing
    histograms bucket wall clock and legitimately differ run to run.
    """
    trace = _two_hop_trace()
    serial_result, serial = _estimate_with_registry(trace, parallel=False)
    parallel_result, parallel = _estimate_with_registry(trace, parallel=True)
    assert parallel_result.estimates == serial_result.estimates
    assert parallel["counters"] == serial["counters"]
    for name in ("window.unknowns", "window.iterations"):
        if name in serial["histograms"]:
            assert (
                parallel["histograms"][name] == serial["histograms"][name]
            )
    assert serial["counters"]["pipeline.windows_solved"] > 0
    assert (
        serial["counters"]["executor.drained"]
        == serial["counters"]["executor.submitted"]
    )


def test_estimate_identical_with_metrics_on_and_off():
    """Instrumentation must be observation-only: bit-equal estimates."""
    trace = _two_hop_trace()
    with isolated_registry():
        on = DomoReconstructor(DomoConfig()).estimate(trace)
    with disabled_metrics():
        off = DomoReconstructor(DomoConfig()).estimate(trace)

    def canonical(result):
        return json.dumps(
            {
                "arrivals": sorted(
                    (repr(k), v) for k, v in result.arrival_times.items()
                ),
                "estimates": sorted(
                    (repr(k), v) for k, v in result.estimates.items()
                ),
                "windows": result.windows_used,
            }
        )

    assert canonical(on) == canonical(off)
