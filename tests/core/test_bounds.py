"""Tests for the sub-graph LP bound computation."""

import numpy as np
import pytest

from repro.core import bounds
from repro.core.bounds import BoundComputer, BoundsConfig
from repro.core.constraints import ConstraintConfig, build_constraints
from repro.core.records import ArrivalKey, TraceIndex
from repro.obs.registry import isolated_registry
from repro.sim import NetworkConfig, simulate_network
from repro.sim.packet import PacketId

from tests.core.conftest import bundle_of, make_received


def _computer(bundle, **cfg):
    index = TraceIndex(list(bundle.received))
    system = build_constraints(index, ConstraintConfig())
    return BoundComputer(system, BoundsConfig(**cfg)), system


def test_known_key_collapses(busy_node_trace):
    computer, _ = _computer(busy_node_trace)
    result = computer.bounds_for(ArrivalKey(PacketId(2, 0), 0))
    assert result.method == "known"
    assert result.lower == result.upper == 0.0


def test_bounds_contain_truth(busy_node_trace):
    computer, system = _computer(busy_node_trace)
    for key in system.variables:
        result = computer.bounds_for(key)
        truth = busy_node_trace.truth_of(key.packet_id).arrival_times_ms[key.hop]
        assert result.lower - 1e-6 <= truth <= result.upper + 1e-6


def test_bounds_at_least_as_tight_as_intervals(busy_node_trace):
    computer, system = _computer(busy_node_trace)
    for key in system.variables:
        result = computer.bounds_for(key)
        lo, hi = system.intervals[key]
        assert result.lower >= lo - 1e-6
        assert result.upper <= hi + 1e-6


def test_sum_equality_pins_bound():
    """Eq. (6)+(7) together pin a lone source's delay within the slack."""
    q = make_received(5, 0, (5, 4, 0), (0.0, 10.0, 20.0), sum_of_delays=10)
    p = make_received(5, 1, (5, 4, 0), (100.0, 112.0, 125.0), sum_of_delays=12)
    computer, _ = _computer(bundle_of(q, p))
    result = computer.bounds_for(ArrivalKey(PacketId(5, 1), 1))
    # slack defaults to 2 ms on each side of S(p) = 12.
    assert result.lower >= 110.0 - 1e-6
    assert result.upper <= 114.0 + 1e-6


def test_bounds_for_all_matches_individual(busy_node_trace):
    computer, system = _computer(busy_node_trace)
    batch = computer.bounds_for_all()
    for key in system.variables:
        single = computer.bounds_for(key)
        assert batch[key].lower == pytest.approx(single.lower, abs=1e-6)
        assert batch[key].upper == pytest.approx(single.upper, abs=1e-6)


def test_bounds_for_packet(busy_node_trace):
    computer, _ = _computer(busy_node_trace)
    results = computer.bounds_for_packet(PacketId(2, 0))
    assert len(results) == 1
    assert results[0].key == ArrivalKey(PacketId(2, 0), 1)


@pytest.fixture(scope="module")
def sim_setup():
    trace = simulate_network(
        NetworkConfig(
            num_nodes=16,
            placement="grid",
            duration_ms=20_000.0,
            packet_period_ms=3_000.0,
            seed=4,
        )
    )
    index = TraceIndex(list(trace.received))
    system = build_constraints(index, ConstraintConfig())
    return trace, system


def test_simulated_bounds_sound_with_extraction(sim_setup):
    """Sub-graph relaxation must stay sound even with a tiny cut size."""
    trace, system = sim_setup
    computer = BoundComputer(system, BoundsConfig(graph_cut_size=30))
    results = computer.bounds_for_all()
    for key, result in results.items():
        truth = trace.truth_of(key.packet_id).arrival_times_ms[key.hop]
        assert result.lower - 1e-5 <= truth <= result.upper + 1e-5


def test_larger_cut_size_not_looser(sim_setup):
    """Fig. 10(a): larger graph cut sizes give (weakly) tighter bounds."""
    trace, system = sim_setup
    small = BoundComputer(system, BoundsConfig(graph_cut_size=25))
    large = BoundComputer(system, BoundsConfig(graph_cut_size=10_000))
    keys = list(system.variables)[:20]
    widths_small = [small.bounds_for(k).width for k in keys]
    widths_large = [large.bounds_for(k).width for k in keys]
    assert np.mean(widths_large) <= np.mean(widths_small) + 1e-6


def test_stats_accumulate(sim_setup):
    _, system = sim_setup
    computer = BoundComputer(system, BoundsConfig(graph_cut_size=10_000))
    computer.bounds_for_all(list(system.variables)[:5])
    assert sum(computer.stats.values()) == 5


def test_bound_lps_report_their_simplex_iterations(sim_setup, monkeypatch):
    """HiGHS's simplex iteration count reaches ``SolverResult.iterations``,
    and ``lp.iterations`` observes every nonzero one."""
    _, system = sim_setup
    solve = bounds.solve_lp
    results = []

    def recording(problem):
        result = solve(problem)
        results.append(result)
        return result

    monkeypatch.setattr(bounds, "solve_lp", recording)
    computer = BoundComputer(system, BoundsConfig(graph_cut_size=10_000))
    with isolated_registry() as registry:
        computer.bounds_for_all(list(system.variables)[:5])
    counted = [r.iterations for r in results if r.iterations]
    assert len(results) == 10 and counted
    observed = registry.snapshot()["histograms"]["lp.iterations"]
    assert observed["count"] == len(counted)
    assert observed["sum"] == sum(counted)
