"""Tests for interval propagation."""

import pytest

from repro.core.intervals import (
    KeyIntervals,
    clip_to_valid,
    propagate_path_monotonicity,
    trivial_intervals,
    width,
)
from repro.core.records import ArrivalKey, TraceIndex
from repro.sim.packet import PacketId

from tests.core.conftest import bundle_of, make_received


def _intervals(index):
    return KeyIntervals(index.key_space, *trivial_intervals(index))


def test_trivial_intervals_cover_all_keys(chain_trace):
    index = TraceIndex(list(chain_trace.received))
    intervals = _intervals(index)
    total_keys = sum(p.path_length for p in chain_trace.received)
    assert len(intervals) == total_keys
    assert set(intervals) == {
        key for p in index.packets for key in index.keys_of(p)
    }


def test_trivial_intervals_contain_truth(chain_trace):
    index = TraceIndex(list(chain_trace.received))
    intervals = _intervals(index)
    for packet in chain_trace.received:
        truth = chain_trace.truth_of(packet.packet_id)
        for hop, t in enumerate(truth.arrival_times_ms):
            lo, hi = intervals[ArrivalKey(packet.packet_id, hop)]
            assert lo - 1e-9 <= t <= hi + 1e-9


def test_propagation_is_sound_and_idempotent(chain_trace):
    index = TraceIndex(list(chain_trace.received))
    intervals = _intervals(index)
    lows, highs = intervals.lows, intervals.highs
    propagate_path_monotonicity(index.key_space, lows, highs)
    # A second pass with no external tightening changes nothing.
    assert propagate_path_monotonicity(index.key_space, lows, highs) == 0
    for packet in chain_trace.received:
        truth = chain_trace.truth_of(packet.packet_id)
        for hop, t in enumerate(truth.arrival_times_ms):
            lo, hi = intervals[ArrivalKey(packet.packet_id, hop)]
            assert lo - 1e-9 <= t <= hi + 1e-9


def test_propagation_tightens_after_external_update():
    p, t = make_received(2, 0, (2, 9, 8, 0), (0.0, 10.0, 20.0, 30.0))
    index = TraceIndex([p], omega_ms=1.0)
    intervals = _intervals(index)
    key1 = ArrivalKey(PacketId(2, 0), 1)
    key2 = ArrivalKey(PacketId(2, 0), 2)
    # Externally learn that t1 >= 15 (e.g. a FIFO resolution).
    intervals.lows[index.key_space.key_id(key1)] = 15.0
    changed = propagate_path_monotonicity(
        index.key_space, intervals.lows, intervals.highs
    )
    assert changed > 0
    assert intervals[key2][0] >= 16.0  # 15 + omega


def test_clip_to_valid_repairs_inversions():
    lows, highs = [5.0, 0.0], [3.0, 1.0]
    repaired = clip_to_valid(lows, highs)
    assert repaired == [0]
    assert (lows[0], highs[0]) == (4.0, 4.0)
    assert (lows[1], highs[1]) == (0.0, 1.0)


def test_width():
    assert width((2.0, 10.0)) == pytest.approx(8.0)
