"""Tests for TraceIndex classification and trivial intervals."""

import pytest

from repro.core.candidate import seqno_gaps
from repro.core.records import ArrivalKey, TraceIndex
from repro.sim.packet import PacketId

from tests.core.conftest import make_received


def _index(trace, omega=1.0):
    return TraceIndex(list(trace.received), omega_ms=omega)


def test_known_vs_unknown(chain_trace):
    index = _index(chain_trace)
    a = PacketId(3, 0)
    assert index.is_known(ArrivalKey(a, 0))
    assert index.is_known(ArrivalKey(a, 3))
    assert not index.is_known(ArrivalKey(a, 1))
    assert not index.is_known(ArrivalKey(a, 2))


def test_known_values(chain_trace):
    index = _index(chain_trace)
    a = PacketId(3, 0)
    assert index.known_value(ArrivalKey(a, 0)) == 0.0
    assert index.known_value(ArrivalKey(a, 3)) == 30.0
    with pytest.raises(ValueError):
        index.known_value(ArrivalKey(a, 1))


def test_unknown_keys_enumeration(chain_trace):
    index = _index(chain_trace)
    unknowns = list(index.unknown_keys())
    # a has 2 interior hops, b has 1, c and d have none.
    assert len(unknowns) == 3
    assert ArrivalKey(PacketId(3, 0), 1) in unknowns
    assert ArrivalKey(PacketId(3, 0), 2) in unknowns
    assert ArrivalKey(PacketId(2, 0), 1) in unknowns


def test_trivial_interval(chain_trace):
    index = _index(chain_trace, omega=1.0)
    key = ArrivalKey(PacketId(3, 0), 1)
    lo, hi = index.trivial_interval(key)
    assert lo == pytest.approx(1.0)  # t0 + 1 * omega
    assert hi == pytest.approx(28.0)  # t_sink - 2 * omega


def test_trivial_interval_collapses_for_knowns(chain_trace):
    index = _index(chain_trace)
    key = ArrivalKey(PacketId(3, 0), 0)
    assert index.trivial_interval(key) == (0.0, 0.0)


def test_trivial_interval_bad_hop(chain_trace):
    index = _index(chain_trace)
    with pytest.raises(ValueError):
        index.trivial_interval(ArrivalKey(PacketId(3, 0), 9))


def test_node_visits(chain_trace):
    visits = _index(chain_trace).key_space.visits
    # node 1 forwards a and b and originates c and d; sink never listed.
    keys, _, _ = visits[1]
    assert len(keys) == 4
    assert 0 not in visits


def test_local_packets_ordered_by_seqno(chain_trace):
    space = _index(chain_trace).key_space
    # Source 1's packets, followed back from its last through ``previous``.
    own = [space.position[PacketId(1, 1)]]
    while space.arrays.previous[own[0]] >= 0:
        own.insert(0, int(space.arrays.previous[own[0]]))
    assert [space.packets[i].packet_id.seqno for i in own] == [0, 1]


def test_previous_local_packet(chain_trace):
    space = _index(chain_trace).key_space
    c = space.arrays.previous[space.position[PacketId(1, 1)]]
    assert c >= 0 and space.packets[c].packet_id == PacketId(1, 0)
    assert space.arrays.previous[space.position[PacketId(1, 0)]] == -1


def test_seqno_gap_detection():
    p0, t0 = make_received(5, 0, (5, 0), (0.0, 10.0))
    p2, t2 = make_received(5, 2, (5, 0), (100.0, 110.0))
    index = TraceIndex([p0, p2])
    assert index.has_seqno_gap(p0, p2)
    assert seqno_gaps(index.key_space).tolist() == [False, True]


def test_duplicate_ids_rejected(chain_trace):
    packets = list(chain_trace.received)
    with pytest.raises(ValueError):
        TraceIndex(packets + [packets[0]])


def test_negative_omega_rejected(chain_trace):
    with pytest.raises(ValueError):
        TraceIndex(list(chain_trace.received), omega_ms=-1.0)


def test_packets_sorted_by_generation(chain_trace):
    index = _index(chain_trace)
    t0s = [p.generation_time_ms for p in index.packets]
    assert t0s == sorted(t0s)
