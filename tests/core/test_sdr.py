"""Tests for the semidefinite relaxation path."""

import numpy as np
import pytest

from repro.core.constraints import ConstraintConfig, build_constraints
from repro.core.records import ArrivalKey, TraceIndex
from repro.core.sdr import SdrConfig, solve_window_sdr
from repro.backends.domo_qp import estimate_arrival_times
from repro.sim.packet import PacketId

from tests.core.conftest import bundle_of, make_received


def _system(bundle, **cfg):
    index = TraceIndex(list(bundle.received))
    return build_constraints(index, ConstraintConfig(**cfg))


def _unresolved_bundle():
    """Two packets with a genuinely unresolved FIFO pair at node 1."""
    x = make_received(2, 0, (2, 1, 4, 0), (0.0, 50.0, 70.0, 100.0))
    y = make_received(3, 0, (3, 1, 5, 0), (1.0, 52.0, 72.0, 101.0))
    return bundle_of(x, y)


def test_sdr_solves_unresolved_window():
    bundle = _unresolved_bundle()
    system = _system(bundle)
    assert system.fifo_unresolved
    estimates = solve_window_sdr(system, SdrConfig())
    assert set(estimates) == set(system.variables.keys())
    for key, value in estimates.items():
        lo, hi = system.intervals[key]
        assert lo - 1.0 <= value <= hi + 1.0


def test_sdr_estimates_close_to_plain_qp(busy_node_trace):
    """On a fully resolved window the SDR must agree with the plain QP."""
    system = _system(busy_node_trace)
    assert not system.fifo_unresolved
    qp = estimate_arrival_times(system)
    sdr = solve_window_sdr(system, SdrConfig())
    for key in qp:
        assert sdr[key] == pytest.approx(qp[key], abs=2.0)


def test_sdr_respects_unknown_cap():
    bundle = _unresolved_bundle()
    system = _system(bundle)
    with pytest.raises(ValueError):
        solve_window_sdr(system, SdrConfig(max_unknowns=1))


def test_sdr_empty_window():
    x = make_received(1, 0, (1, 0), (0.0, 10.0))
    system = _system(bundle_of(x))
    assert solve_window_sdr(system, SdrConfig()) == {}


def test_sdr_bounds_contain_truth_and_tighten():
    """SDP min/max bounds stay sound and within the interval bounds."""
    from repro.core.sdr import sdr_bounds

    bundle = _unresolved_bundle()
    system = _system(bundle)
    for key in system.variables:
        lower, upper = sdr_bounds(system, key, SdrConfig())
        lo_interval, hi_interval = system.intervals[key]
        assert lower >= lo_interval - 1e-6
        assert upper <= hi_interval + 1e-6
        truth = bundle.truth_of(key.packet_id).arrival_times_ms[key.hop]
        assert lower - 0.5 <= truth <= upper + 0.5


def test_sdr_bounds_known_key_is_point():
    from repro.core.sdr import sdr_bounds

    bundle = _unresolved_bundle()
    system = _system(bundle)
    key = ArrivalKey(PacketId(2, 0), 0)
    lower, upper = sdr_bounds(system, key, SdrConfig())
    assert lower == upper == 0.0


def test_randomized_rounding_not_worse_than_mean():
    """Rounding picks the best-scoring candidate, mean solution included."""
    import numpy as np

    from repro.core.sdr import (
        _true_objective,
        _violation,
        solve_window_sdr_randomized,
    )

    bundle = _unresolved_bundle()
    system = _system(bundle)
    rng = np.random.default_rng(1)
    rounded = solve_window_sdr_randomized(
        system, SdrConfig(), num_samples=20, rng=rng
    )
    mean = solve_window_sdr(system, SdrConfig())

    def score(estimates):
        x = np.array([estimates[key] for key in system.variables])
        return _true_objective(system, x) + 10.0 * _violation(system, x)

    assert score(rounded) <= score(mean) + 1e-6


def test_randomized_rounding_respects_order():
    """Repaired samples satisfy the per-packet order constraint."""
    import numpy as np

    from repro.core.sdr import solve_window_sdr_randomized

    bundle = _unresolved_bundle()
    system = _system(bundle)
    estimates = solve_window_sdr_randomized(
        system, SdrConfig(), num_samples=10, rng=np.random.default_rng(2)
    )
    for packet in system.index.packets:
        times = [packet.generation_time_ms]
        for hop in range(1, packet.path_length - 1):
            times.append(estimates[ArrivalKey(packet.packet_id, hop)])
        times.append(packet.sink_arrival_ms)
        for a, b in zip(times, times[1:]):
            assert b - a >= system.index.omega_ms - 1e-6


def test_randomized_rounding_empty_window():
    import numpy as np

    from repro.core.sdr import solve_window_sdr_randomized

    x = make_received(1, 0, (1, 0), (0.0, 10.0))
    system = _system(bundle_of(x))
    assert (
        solve_window_sdr_randomized(
            system, SdrConfig(), rng=np.random.default_rng(0)
        )
        == {}
    )


def test_sdr_lifted_fifo_consistency():
    """SDR estimates keep the FIFO ordering consistent across both hops.

    Whatever order the relaxation settles on at the shared node, the
    next-hop order must not contradict it grossly.
    """
    bundle = _unresolved_bundle()
    system = _system(bundle)
    estimates = solve_window_sdr(system, SdrConfig())
    t_x1 = estimates[ArrivalKey(PacketId(2, 0), 1)]
    t_y1 = estimates[ArrivalKey(PacketId(3, 0), 1)]
    t_x2 = estimates[ArrivalKey(PacketId(2, 0), 2)]
    t_y2 = estimates[ArrivalKey(PacketId(3, 0), 2)]
    product = (t_x1 - t_y1) * (t_x2 - t_y2)
    assert product > -25.0  # no strong order contradiction
