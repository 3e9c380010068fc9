"""Tests for the Eq. (8) minimum-delay-variance estimator."""

import numpy as np
import pytest

from repro.core.constraints import ConstraintConfig, build_constraints
from repro.backends.domo_qp import (
    EstimatorConfig,
    enumerate_pairs,
    estimate_arrival_times,
)
from repro.core.records import ArrivalKey, TraceIndex
from repro.sim.packet import PacketId

from tests.core.conftest import bundle_of, make_received


def _system(bundle, **cfg):
    index = TraceIndex(list(bundle.received))
    return build_constraints(index, ConstraintConfig(**cfg))


def test_pair_enumeration_respects_epsilon(busy_node_trace):
    system = _system(busy_node_trace)
    near = enumerate_pairs(system, EstimatorConfig(epsilon_ms=10.0))
    far = enumerate_pairs(system, EstimatorConfig(epsilon_ms=1000.0))
    assert len(near) < len(far)
    # With eps=10 only (x, y) at nodes 1 qualifies (t0 gap 5 < 10).
    assert all(
        abs(
            system.index.by_id[a.packet_id].generation_time_ms
            - system.index.by_id[b.packet_id].generation_time_ms
        )
        < 10.0
        for _, a, _, b, _ in near
    )


def test_pair_cap(busy_node_trace):
    system = _system(busy_node_trace)
    capped = enumerate_pairs(
        system, EstimatorConfig(epsilon_ms=1000.0, max_pairs_per_visit=1)
    )
    uncapped = enumerate_pairs(
        system, EstimatorConfig(epsilon_ms=1000.0, max_pairs_per_visit=100)
    )
    assert len(capped) <= len(uncapped)


def test_estimates_satisfy_intervals(busy_node_trace):
    system = _system(busy_node_trace)
    estimates = estimate_arrival_times(system)
    for key, value in estimates.items():
        lo, hi = system.intervals[key]
        assert lo - 1e-3 <= value <= hi + 1e-3


def test_estimator_uses_delay_similarity():
    """Two same-window packets through one node get similar delays.

    Packet x: (2,1,0) with true times (0, 10, 20) — both hops unknown? No:
    only t(x@1) unknown. Packet y: (3,1,0) generated 5ms later. Without
    any other information, minimizing delay variance at nodes 2, 3 and 1
    should place both node-1 delays close to each other.
    """
    x = make_received(2, 0, (2, 1, 0), (0.0, 10.0, 20.0))
    y = make_received(3, 0, (3, 1, 0), (5.0, 15.0, 25.0))
    system = _system(bundle_of(x, y))
    estimates = estimate_arrival_times(system)
    d1_x = 20.0 - estimates[ArrivalKey(PacketId(2, 0), 1)]
    d1_y = 25.0 - estimates[ArrivalKey(PacketId(3, 0), 1)]
    assert d1_x == pytest.approx(d1_y, abs=1.0)


def test_estimate_exact_with_enough_constraints():
    """A sum-of-delays equality pins the unknown exactly.

    Source 5 sends q then p; S(p) = D_5(p) = 12 and no other packets exist,
    so Eq. (7) gives t(p@1) - t0(p) <= 12 + slack and Eq. (6) gives
    >= 12 - slack: the unknown is pinned within the slack.
    """
    q = make_received(5, 0, (5, 4, 0), (0.0, 10.0, 20.0), sum_of_delays=10)
    p = make_received(5, 1, (5, 4, 0), (100.0, 112.0, 125.0), sum_of_delays=12)
    system = _system(bundle_of(q, p), sum_slack_ms=0.5)
    estimates = estimate_arrival_times(system)
    assert estimates[ArrivalKey(PacketId(5, 1), 1)] == pytest.approx(
        112.0, abs=1.0
    )


def test_empty_system():
    x = make_received(1, 0, (1, 0), (0.0, 10.0))
    system = _system(bundle_of(x))
    assert estimate_arrival_times(system) == {}


def test_estimates_cover_all_unknowns(busy_node_trace):
    system = _system(busy_node_trace)
    estimates = estimate_arrival_times(system)
    assert set(estimates) == set(system.variables.keys())


def test_pairing_horizon_boundary_is_excluded():
    """A generation-time gap of exactly epsilon does NOT pair (the scan
    breaks on ``>= epsilon_ms``), while any smaller gap does."""
    x = make_received(2, 0, (2, 1, 0), (0.0, 10.0, 22.0))
    y = make_received(3, 0, (3, 1, 0), (10.0, 24.0, 30.0))
    system = _system(bundle_of(x, y))
    assert enumerate_pairs(system, EstimatorConfig(epsilon_ms=10.0)) == []
    inside = enumerate_pairs(system, EstimatorConfig(epsilon_ms=10.5))
    assert len(inside) == 1
    assert inside[0][0] == 1  # node 1 is the only shared forwarder


def test_identical_generation_times_pair_under_any_epsilon():
    """Zero gap sits strictly below every legal (positive) epsilon."""
    x = make_received(2, 0, (2, 1, 0), (0.0, 10.0, 22.0))
    y = make_received(3, 0, (3, 1, 0), (0.0, 12.0, 25.0))
    system = _system(bundle_of(x, y))
    pairs = enumerate_pairs(system, EstimatorConfig(epsilon_ms=1e-9))
    assert len(pairs) == 1
    node, a, _, b, _ = pairs[0]
    assert node == 1
    assert a.packet_id != b.packet_id


def test_pair_cap_zero_disables_pairing_but_not_the_solve(busy_node_trace):
    system = _system(busy_node_trace)
    config = EstimatorConfig(max_pairs_per_visit=0)
    assert enumerate_pairs(system, config) == []
    # The solve degrades to the anchor objective and still covers
    # every unknown inside its interval.
    estimates = estimate_arrival_times(system, config)
    assert set(estimates) == set(system.variables.keys())
    for key, value in estimates.items():
        lo, hi = system.intervals[key]
        assert lo - 1e-3 <= value <= hi + 1e-3


def test_self_pairs_excluded_on_multi_hop_revisit():
    """A packet crossing the same node twice must not pair with itself
    there — only with other packets' visits."""
    p = make_received(2, 0, (2, 1, 3, 1, 0), (0.0, 10.0, 20.0, 30.0, 40.0))
    q = make_received(4, 0, (4, 1, 0), (2.0, 12.0, 24.0))
    system = _system(bundle_of(p, q))
    pairs = enumerate_pairs(system, EstimatorConfig(epsilon_ms=1000.0))
    assert pairs
    assert all(a.packet_id != b.packet_id for _, a, _, b, _ in pairs)
    # Each of p's two node-1 visits pairs with q's single visit there.
    at_shared_node = [pair for pair in pairs if pair[0] == 1]
    assert len(at_shared_node) == 2


def test_estimator_config_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError, match="epsilon_ms must be > 0"):
        EstimatorConfig(epsilon_ms=0.0)
    with pytest.raises(ValueError, match="epsilon_ms must be > 0"):
        EstimatorConfig(epsilon_ms=-5.0)


def test_estimator_config_rejects_negative_pair_cap():
    with pytest.raises(ValueError, match="max_pairs_per_visit must be >= 0"):
        EstimatorConfig(max_pairs_per_visit=-1)
    # Zero is legal: it disables pairing, not the estimator.
    assert EstimatorConfig(max_pairs_per_visit=0).max_pairs_per_visit == 0


def test_anchor_centers_unconstrained_packet():
    """A lone two-hop packet with no peers sits near its interval midpoint."""
    x = make_received(2, 0, (2, 1, 0), (0.0, 30.0, 100.0))
    system = _system(bundle_of(x))
    estimates = estimate_arrival_times(system)
    key = ArrivalKey(PacketId(2, 0), 1)
    lo, hi = system.intervals[key]
    assert estimates[key] == pytest.approx(0.5 * (lo + hi), abs=2.0)
