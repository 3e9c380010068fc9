"""Tests for constraint construction: order, FIFO, sum-of-delays.

The central property — checked both on hand-built fixtures and on real
simulator traces — is **soundness**: the true arrival times always satisfy
every emitted row.
"""

import numpy as np
import pytest

from repro.core.constraints import (
    ConstraintConfig,
    build_constraints,
)
from repro.core.records import ArrivalKey, TraceIndex
from repro.sim import NetworkConfig, simulate_network
from repro.sim.packet import PacketId

from tests.core.conftest import bundle_of, make_received


def _system(bundle, **cfg):
    index = TraceIndex(list(bundle.received))
    return build_constraints(index, ConstraintConfig(**cfg))


def _truth_vector(system, bundle):
    x = np.zeros(system.num_unknowns)
    for i, key in enumerate(system.variables):
        x[i] = bundle.truth_of(key.packet_id).arrival_times_ms[key.hop]
    return x


def test_order_rows_emitted(busy_node_trace):
    system = _system(busy_node_trace)
    order_rows = system.builder.rows_by_tag("order")
    # x and z have one unknown each: two order rows survive folding per
    # packet (t1-t0 >= w and t2-t1 >= w), y likewise.
    assert len(order_rows) == 6


def test_truth_satisfies_all_rows_hand_built(busy_node_trace):
    system = _system(busy_node_trace)
    x = _truth_vector(system, busy_node_trace)
    assert system.builder.max_violation(x) <= 1e-9


def test_fifo_pairs_resolved_on_busy_node(busy_node_trace):
    system = _system(busy_node_trace)
    # x and z from the same source are unambiguous; x/y overlap at node 1
    # but their sink arrivals resolve them via the next-hop intervals.
    assert len(system.fifo_resolved) >= 1


def test_fifo_direction_matches_truth(busy_node_trace):
    system = _system(busy_node_trace)
    for pair in system.fifo_resolved:
        t_x = busy_node_trace.truth_of(pair.x_at.packet_id).arrival_times_ms[
            pair.x_at.hop
        ]
        t_y = busy_node_trace.truth_of(pair.y_at.packet_id).arrival_times_ms[
            pair.y_at.hop
        ]
        expected = 1 if t_x < t_y else -1
        assert pair.direction == expected, f"pair at node {pair.node}"


def test_unresolvable_pair_goes_to_sdr_list():
    # Two packets through node 1 whose arrival intervals overlap at the
    # shared hop AND whose next hops are interior (unknown) too: no sound
    # resolution exists.
    x = make_received(2, 0, (2, 1, 4, 0), (0.0, 50.0, 70.0, 100.0))
    y = make_received(3, 0, (3, 1, 5, 0), (1.0, 52.0, 72.0, 101.0))
    system = _system(bundle_of(x, y))
    assert len(system.fifo_unresolved) == 1
    assert len(system.fifo_resolved) == 0


def test_fifo_horizon_limits_pairs():
    x = make_received(2, 0, (2, 1, 0), (0.0, 10.0, 20.0))
    y = make_received(3, 0, (3, 1, 0), (50_000.0, 50_010.0, 50_020.0))
    system = _system(bundle_of(x, y), fifo_horizon_ms=1000.0)
    assert len(system.fifo_resolved) + len(system.fifo_unresolved) == 0


def test_sum_lower_row_accounted(chain_trace):
    system = _system(chain_trace)
    # Packet d anchors a sum row, but d is single-hop so every term is
    # known: the row folds to a (consistent) constant and is not emitted.
    assert system.stats["sum_lower_rows"] == 1
    assert len(system.builder.rows_by_tag("sum_lo")) == 0
    assert system.stats.get("inconsistent_known_rows", 0) == 0


def test_sum_lower_row_with_unknown_terms():
    # Source 5 is two hops from the sink, so D_5(p) involves the unknown
    # t(p@1): the Eq. (7) row survives folding.
    q = make_received(5, 0, (5, 4, 0), (0.0, 10.0, 20.0), sum_of_delays=10)
    p = make_received(5, 1, (5, 4, 0), (100.0, 112.0, 125.0), sum_of_delays=12)
    system = _system(bundle_of(q, p))
    assert len(system.builder.rows_by_tag("sum_lo")) == 1


def test_sum_rows_skipped_on_seqno_gap():
    q = make_received(1, 0, (1, 0), (0.0, 10.0), sum_of_delays=10)
    p = make_received(1, 2, (1, 0), (100.0, 110.0), sum_of_delays=10)
    system = _system(bundle_of(q, p))
    assert len(system.builder.rows_by_tag("sum_lo")) == 0
    assert len(system.builder.rows_by_tag("sum_hi")) == 0


def test_upper_sum_can_be_disabled(chain_trace):
    system = _system(chain_trace, use_upper_sum=False)
    assert len(system.builder.rows_by_tag("sum_hi")) == 0


def test_known_only_rows_checked_not_emitted():
    # Single-hop packets: everything known; sum rows fold to constants.
    q = make_received(1, 0, (1, 0), (0.0, 10.0), sum_of_delays=10)
    p = make_received(1, 1, (1, 0), (100.0, 110.0), sum_of_delays=10)
    system = _system(bundle_of(q, p))
    assert system.num_unknowns == 0
    assert len(system.builder) == 0


def test_inconsistent_known_row_counted():
    # S(p) = 3 but D(p) = 10 with everything known: impossible row.
    q = make_received(1, 0, (1, 0), (0.0, 10.0), sum_of_delays=10)
    p = make_received(1, 1, (1, 0), (100.0, 110.0), sum_of_delays=3)
    system = _system(bundle_of(q, p), sum_slack_ms=0.0)
    assert system.stats.get("inconsistent_known_rows", 0) >= 1


def test_interval_tightening_recorded_in_system(busy_node_trace):
    system = _system(busy_node_trace)
    index = TraceIndex(list(busy_node_trace.received))
    for key, (lo, hi) in system.intervals.items():
        t_lo, t_hi = index.trivial_interval(key)
        assert lo >= t_lo - 1e-9
        assert hi <= t_hi + 1e-9


@pytest.fixture(scope="module")
def sim_trace():
    return simulate_network(
        NetworkConfig(
            num_nodes=25,
            placement="grid",
            duration_ms=30_000.0,
            packet_period_ms=3_000.0,
            seed=11,
        )
    )


def test_truth_satisfies_all_rows_simulated(sim_trace):
    """Soundness on a real trace: ground truth inside the feasible set."""
    index = TraceIndex(list(sim_trace.received))
    system = build_constraints(index, ConstraintConfig())
    x = _truth_vector(system, sim_trace)
    assert system.builder.max_violation(x) <= 1e-6


def test_intervals_contain_truth_simulated(sim_trace):
    index = TraceIndex(list(sim_trace.received))
    system = build_constraints(index, ConstraintConfig())
    for key in system.variables:
        lo, hi = system.intervals[key]
        t = sim_trace.truth_of(key.packet_id).arrival_times_ms[key.hop]
        assert lo - 1e-6 <= t <= hi + 1e-6


def test_resolution_statistics_populated(sim_trace):
    index = TraceIndex(list(sim_trace.received))
    system = build_constraints(index, ConstraintConfig())
    assert system.stats["unknowns"] == system.num_unknowns
    assert system.stats["fifo_resolved"] > 0
    assert system.stats["rows"] == len(system.builder)


# ----------------------------------------------------------------------
# fifo_mode="none" and the shared visit-pair enumerator
# ----------------------------------------------------------------------


def _same_t0_pair():
    """Sources 2 and 3 forward through node 1 with identical t0."""
    return bundle_of(
        make_received(2, 0, (2, 1, 0), (0.0, 10.0, 22.0)),
        make_received(3, 0, (3, 1, 0), (0.0, 12.0, 25.0)),
    )


def test_fifo_mode_none_emits_no_fifo_pairs_or_rows():
    from repro.core.pipeline import DomoConfig, constraint_config_for

    index = TraceIndex(list(_same_t0_pair().received))
    none = build_constraints(
        index, constraint_config_for(DomoConfig(fifo_mode="none"))
    )
    assert len(none.fifo_resolved) + len(none.fifo_unresolved) == 0
    assert none.builder.rows_by_tag("fifo") == []
    # The linearized mode still pairs a zero gap (inside any horizon);
    # the departure leg joins two known sink arrivals and folds away.
    linearized = build_constraints(
        TraceIndex(list(_same_t0_pair().received)),
        constraint_config_for(DomoConfig()),
    )
    assert len(linearized.fifo_resolved) + len(linearized.fifo_unresolved) == 1
    assert len(linearized.builder.rows_by_tag("fifo")) == 1


def test_visit_pairs_horizon_boundary_fifo_includes_eq8_excludes():
    x = make_received(2, 0, (2, 1, 0), (0.0, 10.0, 22.0))
    y = make_received(3, 0, (3, 1, 0), (10.0, 24.0, 30.0))
    space = TraceIndex(list(bundle_of(x, y).received)).key_space
    nodes, xs, ys = space.visit_pairs(10.0, 12, include_horizon=True)
    assert nodes == [1] and len(xs) == len(ys) == 1
    assert space.visit_pairs(10.0, 12, include_horizon=False) == ([], [], [])
    # The FIFO build and Eq. (8) read the boundary each their own way.
    system = _system(bundle_of(x, y), fifo_horizon_ms=10.0)
    assert len(system.fifo_resolved) + len(system.fifo_unresolved) == 1
    from repro.backends.domo_qp import EstimatorConfig, enumerate_pairs

    assert enumerate_pairs(system, EstimatorConfig(epsilon_ms=10.0)) == []


def test_visit_pairs_cap_counts_pairs_with_other_packets():
    packets = [
        make_received(2 + i, 0, (2 + i, 1, 0), (float(i), 10.0 + i, 20.0 + i))
        for i in range(3)
    ]
    space = TraceIndex(list(bundle_of(*packets).received)).key_space
    capped = space.visit_pairs(1_000.0, 1, include_horizon=True)
    # Each node-1 visit pairs with its next visit only.
    assert len(capped[0]) == 2
    assert len(space.visit_pairs(1_000.0, 2, include_horizon=True)[0]) == 3
    assert space.visit_pairs(1_000.0, 0, include_horizon=True) == ([], [], [])


def test_visit_pairs_self_skip_does_not_use_up_the_cap():
    # p visits node 1 twice; its first visit's next node-1 visit is its
    # own, which is skipped without counting, so it still pairs with q.
    p = make_received(2, 0, (2, 1, 3, 1, 0), (0.0, 10.0, 20.0, 30.0, 40.0))
    q = make_received(4, 0, (4, 1, 0), (2.0, 12.0, 24.0))
    index = TraceIndex(list(bundle_of(p, q).received), omega_ms=1.0)
    space = index.key_space
    nodes, xs, ys = space.visit_pairs(1_000.0, 1, include_horizon=True)
    at_shared = [
        (space.arrival_key(x), space.arrival_key(y))
        for node, x, y in zip(nodes, xs, ys)
        if node == 1
    ]
    assert len(at_shared) == 2
    assert all(a.packet_id != b.packet_id for a, b in at_shared)
    assert {a.hop for a, _ in at_shared} == {1, 3}


def test_sizes_are_read_without_making_rows_pairs_or_keys(
    busy_node_trace, monkeypatch
):
    """``len()`` of the system's views (what a tracer reads inside the
    build) makes no ConstraintRow, FifoPair or ArrivalKey objects."""
    import repro.core.constraints as constraints
    import repro.core.records as records
    import repro.optim.modeling as modeling

    made = []
    for module, name in (
        (modeling, "ConstraintRow"),
        (constraints, "FifoPair"),
        (records, "ArrivalKey"),
    ):
        original = getattr(module, name)

        def counting(*args, _original=original, **kwargs):
            made.append(_original)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    system = build_constraints(TraceIndex(list(busy_node_trace.received)))
    sizes = (
        len(system.builder),
        len(system.builder.rows),
        len(system.fifo_resolved) + len(system.fifo_unresolved),
        system.num_unknowns,
        len(system.intervals),
    )
    assert made == []
    assert sizes[0] == sizes[1] == system.stats["rows"] > 0
    assert sizes[2] > 0 and sizes[3] == system.stats["unknowns"]
    assert len(list(system.builder.rows)) == sizes[0]
    assert len(made) == sizes[0]
