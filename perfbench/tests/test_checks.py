"""Each output check passes on a real output and fails on a corrupted one."""

from __future__ import annotations

import pytest

from perfbench import checks
from perfbench.common import import_program
from perfbench.inputs import simulate

import_program()


@pytest.fixture(scope="module")
def trace():
    return simulate(nodes=16, duration_s=30.0, base_seed=3)


@pytest.fixture(scope="module")
def estimates(trace):
    from repro.core.pipeline import DomoConfig, DomoReconstructor

    return DomoReconstructor(DomoConfig()).estimate(trace).estimates


def test_estimate_count(trace, estimates):
    unknowns = sum(max(0, len(p.path) - 2) for p in trace.received)
    assert checks.estimate_count(estimates, unknowns) == []
    corrupted = dict(estimates)
    corrupted.pop(next(iter(corrupted)))
    assert checks.estimate_count(corrupted, unknowns)


def test_same_estimates(estimates):
    assert checks.same_estimates(estimates, dict(estimates), "rerun") == []
    corrupted = dict(estimates)
    key = next(iter(corrupted))
    corrupted[key] = corrupted[key] + 1e-9
    assert checks.same_estimates(estimates, corrupted, "rerun")


def test_served_results(estimates):
    keys = set(estimates)
    assert checks.served_results(keys, set(keys), []) == []
    assert checks.served_results(keys - {next(iter(keys))}, keys, [])
    assert checks.served_results(keys | {"extra"}, keys, [])
    assert checks.served_results(keys, keys, ["stream 's' is drained"])


def test_bounds_contain_truth(trace):
    from repro.core.pipeline import DomoConfig, DomoReconstructor

    sample = [p.packet_id for p in trace.received if len(p.path) > 2][:4]
    result = DomoReconstructor(DomoConfig(graph_cut_size=15)).bounds(
        trace, packet_ids=sample
    )
    bounds = {k: (b.lower, b.upper) for k, b in result.bounds.items()}
    truth = {
        k: trace.ground_truth[k.packet_id].arrival_times_ms[k.hop]
        for k in bounds
    }
    assert bounds and checks.bounds_contain_truth(bounds, truth) == []
    key = next(iter(bounds))
    lower, upper = bounds[key]
    shifted = dict(truth)
    shifted[key] = upper + 0.01
    assert checks.bounds_contain_truth(bounds, shifted)
    # Within the rounding tolerance is still contained.
    shifted[key] = upper + 0.0005
    assert checks.bounds_contain_truth(bounds, shifted) == []


def test_nonnegative_latencies():
    assert checks.nonnegative_latencies([0.0, 3.5, 12.0]) == []
    assert checks.nonnegative_latencies([3.5, -0.2])
