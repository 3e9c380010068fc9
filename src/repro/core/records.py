"""Indexing of arrival-time variables over a received trace.

For a packet ``p`` with path length ``|p|`` the sink knows ``t_0(p)``
(generation) and ``t_{|p|-1}(p)`` (sink arrival); the interior arrival
times are the unknowns Domo reconstructs. :class:`TraceIndex` classifies
every ``(packet, hop)`` pair and provides the *trivial interval* each
arrival time must lie in given only the order constraint (Eq. (5)):

    t_0(p) + i*omega  <=  t_i(p)  <=  t_sink(p) - (|p|-1-i)*omega

The constraint build and the solvers work over :class:`KeySpace`, the
index's integer numbering of the same arrival times; :class:`ArrivalKey`
objects are made only where a caller asks for keyed results.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from repro.sim.packet import PacketId
from repro.sim.trace import ReceivedPacket


def _packet_order(packet: ReceivedPacket) -> tuple[float, int, int]:
    """Canonical sort key of the index: (t0, source, seqno)."""
    return (
        packet.generation_time_ms,
        packet.packet_id.source,
        packet.packet_id.seqno,
    )


@dataclass(frozen=True, order=True)
class ArrivalKey:
    """Identity of one arrival-time quantity: packet ``p`` at hop ``i``."""

    packet_id: PacketId
    hop: int

    def __str__(self) -> str:
        return f"t[{self.packet_id}@{self.hop}]"


class TraceIndex:
    """Lookup structure over the received packets of one reconstruction.

    Args:
        packets: the received packets to reconstruct (the whole trace or
            one time window).
        omega_ms: the paper's minimum software processing delay per hop.
    """

    def __init__(self, packets: list[ReceivedPacket], omega_ms: float = 1.0):
        if omega_ms < 0:
            raise ValueError("omega must be nonnegative")
        self.omega_ms = omega_ms
        self.packets = sorted(packets, key=_packet_order)
        self.by_id: dict[PacketId, ReceivedPacket] = {
            p.packet_id: p for p in self.packets
        }
        if len(self.by_id) != len(self.packets):
            raise ValueError("duplicate packet ids in trace")
        #: node -> [(packet, hop at which the packet visits the node)]
        self.node_visits: dict[int, list[tuple[ReceivedPacket, int]]] = {}
        #: source -> its received packets in seqno order (bisect lookups).
        self._by_source: dict[int, list[ReceivedPacket]] = {}
        for packet in self.packets:
            self._register(packet)

    def _register(self, packet: ReceivedPacket) -> None:
        """Fold one packet into the derived lookup structures.

        Called in sorted order by the constructor, so plain appends keep
        ``node_visits`` ordered; :meth:`add` inserts out of order and
        restores the invariant with a sorted insert instead.
        """
        for hop, node in enumerate(packet.path[:-1]):
            self.node_visits.setdefault(node, []).append((packet, hop))
        own = self._by_source.setdefault(packet.packet_id.source, [])
        bisect.insort(own, packet, key=lambda p: p.packet_id.seqno)

    def add(self, packet: ReceivedPacket) -> None:
        """Incrementally insert one packet, preserving sorted order.

        The streaming ingest path: a sorted insert plus bisect-maintained
        per-source/per-node structures, so an index grown packet by packet
        is indistinguishable from one built from the full list at once.
        """
        if packet.packet_id in self.by_id:
            raise ValueError(f"duplicate packet id {packet.packet_id}")
        bisect.insort(self.packets, packet, key=_packet_order)
        self.by_id[packet.packet_id] = packet
        key = _packet_order(packet)
        for hop, node in enumerate(packet.path[:-1]):
            visits = self.node_visits.setdefault(node, [])
            # Visits stay ordered by (t0, source, seqno, hop) — the order
            # the constructor produces — so pair enumeration is identical
            # however the index was grown.
            position = bisect.bisect_left(
                visits, (*key, hop), key=lambda v: (*_packet_order(v[0]), v[1])
            )
            visits.insert(position, (packet, hop))
        own = self._by_source.setdefault(packet.packet_id.source, [])
        bisect.insort(own, packet, key=lambda p: p.packet_id.seqno)
        self.__dict__.pop("key_space", None)

    @cached_property
    def key_space(self) -> "KeySpace":
        """Integer ids of every arrival time (built on first use)."""
        return KeySpace(self)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def is_known(self, key: ArrivalKey) -> bool:
        """Whether the sink directly knows this arrival time."""
        packet = self.by_id[key.packet_id]
        return key.hop == 0 or key.hop == packet.path_length - 1

    def known_value(self, key: ArrivalKey) -> float:
        """The value of a known arrival time (KeyError-style errors)."""
        packet = self.by_id[key.packet_id]
        if key.hop == 0:
            return packet.generation_time_ms
        if key.hop == packet.path_length - 1:
            return packet.sink_arrival_ms
        raise ValueError(f"{key} is unknown")

    def unknown_keys(self) -> Iterator[ArrivalKey]:
        """All interior arrival times, in deterministic order."""
        for packet in self.packets:
            for hop in range(1, packet.path_length - 1):
                yield ArrivalKey(packet.packet_id, hop)

    def keys_of(self, packet: ReceivedPacket) -> list[ArrivalKey]:
        """All arrival-time keys of one packet (known and unknown)."""
        return [
            ArrivalKey(packet.packet_id, hop)
            for hop in range(packet.path_length)
        ]

    # ------------------------------------------------------------------
    # Trivial intervals
    # ------------------------------------------------------------------

    def trivial_interval(self, key: ArrivalKey) -> tuple[float, float]:
        """The order-constraint interval of an arrival time (Eq. (5))."""
        packet = self.by_id[key.packet_id]
        if not 0 <= key.hop < packet.path_length:
            raise ValueError(f"hop {key.hop} outside path of {packet.packet_id}")
        low = packet.generation_time_ms + key.hop * self.omega_ms
        high = packet.sink_arrival_ms - (
            packet.path_length - 1 - key.hop
        ) * self.omega_ms
        if self.is_known(key):
            value = self.known_value(key)
            return value, value
        return low, high

    def value_or_interval(self, key: ArrivalKey) -> tuple[float, float]:
        """Alias of :meth:`trivial_interval` (knowns collapse to a point)."""
        return self.trivial_interval(key)

    # ------------------------------------------------------------------
    # Per-source structure (used by candidate sets)
    # ------------------------------------------------------------------

    def local_packets_of(self, node: int) -> list[ReceivedPacket]:
        """Received packets generated *by* ``node``, in seqno order."""
        return list(self._by_source.get(node, []))

    def previous_local_packet(
        self, packet: ReceivedPacket
    ) -> ReceivedPacket | None:
        """The previous *received* local packet from the same source.

        Returns None when ``packet`` is its source's first received packet.
        The caller must check :meth:`has_seqno_gap` before trusting
        sum-of-delays constraints built on this pair.
        """
        own = self._by_source.get(packet.packet_id.source, [])
        index = bisect.bisect_left(
            own, packet.packet_id.seqno, key=lambda p: p.packet_id.seqno
        )
        if index >= len(own) or own[index].packet_id != packet.packet_id:
            raise ValueError(f"{packet.packet_id} is not in this index")
        return own[index - 1] if index > 0 else None

    def has_seqno_gap(
        self, previous: ReceivedPacket, packet: ReceivedPacket
    ) -> bool:
        """Whether a local packet between the two was lost.

        A gap means the lost packet may have flushed the sum-of-delays
        accumulator on the node, so Eq. (6)/(7) cannot be anchored to
        ``previous`` soundly.
        """
        return packet.packet_id.seqno != previous.packet_id.seqno + 1


class KeySpace:
    """Integer ids for the arrival times of one :class:`TraceIndex`.

    The key id of ``t_hop(p)`` is ``offsets[i] + hop``, where ``i`` is
    ``p``'s position in ``index.packets``, so a packet's keys are
    consecutive and ``k + 1`` is the next hop of key ``k``. Per key the
    space records its solver column (``-1`` when the sink knows the time),
    its known value (NaN for unknowns) and its Eq. (5) trivial interval,
    computed exactly as :meth:`TraceIndex.trivial_interval` does. Columns
    follow :meth:`TraceIndex.unknown_keys`.
    """

    def __init__(self, index: TraceIndex) -> None:
        self.omega_ms = omega = index.omega_ms
        self.packets = packets = index.packets
        #: per position, plus a final sentinel: packet i owns key ids
        #: ``offsets[i] .. offsets[i + 1] - 1``.
        self.offsets: list[int] = []
        self.position_of_key: list[int] = []
        self.hop: list[int] = []
        self.column: list[int] = []
        self.value: list[float] = []
        self.low: list[float] = []
        self.high: list[float] = []
        #: column -> key id.
        self.unknown: list[int] = []
        #: node -> (visit key ids, their packets' t0, their positions):
        #: nodes in first-visit order, visits in (t0, source, seqno, hop)
        #: order, as the constructor lays out ``index.node_visits``.
        self.visits: dict[int, tuple[list[int], list[float], list[int]]] = {}
        self.t0 = [p.generation_time_ms for p in packets]
        self.sink = [p.sink_arrival_ms for p in packets]
        self.source = [p.packet_id.source for p in packets]
        column, value, low, high = self.column, self.value, self.low, self.high
        for position, packet in enumerate(packets):
            offset = len(column)
            self.offsets.append(offset)
            t0 = packet.generation_time_ms
            sink = packet.sink_arrival_ms
            last = packet.path_length - 1
            self.position_of_key.extend([position] * (last + 1))
            self.hop.extend(range(last + 1))
            for hop, node in enumerate(packet.path):
                if hop == 0 or hop == last:
                    known = t0 if hop == 0 else sink
                    column.append(-1)
                    value.append(known)
                    low.append(known)
                    high.append(known)
                else:
                    column.append(len(self.unknown))
                    self.unknown.append(offset + hop)
                    value.append(math.nan)
                    low.append(t0 + hop * omega)
                    high.append(sink - (last - hop) * omega)
                if hop < last:
                    visits = self.visits.get(node)
                    if visits is None:
                        visits = self.visits[node] = ([], [], [])
                    visits[0].append(offset + hop)
                    visits[1].append(t0)
                    visits[2].append(position)
        self.offsets.append(len(column))
        #: position -> position of the source's previous received packet
        #: (by seqno), or -1 for its first.
        self.previous = [-1] * len(packets)
        position = self.position
        for own in index._by_source.values():
            for earlier, later in zip(own, own[1:]):
                self.previous[position[later.packet_id]] = position[
                    earlier.packet_id
                ]

    @cached_property
    def position(self) -> dict[PacketId, int]:
        """packet id -> position in ``index.packets``."""
        return {p.packet_id: i for i, p in enumerate(self.packets)}

    def key_id(self, key: ArrivalKey) -> int:
        """Id of an arrival key; KeyError when the index does not hold it."""
        position = self.position[key.packet_id]
        offset = self.offsets[position]
        if not 0 <= key.hop < self.offsets[position + 1] - offset:
            raise KeyError(key)
        return offset + key.hop

    def arrival_key(self, key_id: int) -> ArrivalKey:
        """The :class:`ArrivalKey` of a key id (a new object per call)."""
        return ArrivalKey(
            self.packets[self.position_of_key[key_id]].packet_id,
            self.hop[key_id],
        )

    def visit_pairs(
        self, horizon_ms: float, max_per_visit: int, include_horizon: bool
    ) -> tuple[list[int], list[int], list[int]]:
        """Same-node visit pairs ``(node, x, y)`` as three parallel lists.

        The one pair enumerator behind the FIFO constraints, Eq. (8) and
        the SDR lift. Per node, visits are taken in (t0, source, seqno,
        hop) order; each visit ``x`` pairs with the visits after it until
        their t0 gap passes ``horizon_ms`` (a gap equal to it pairs only
        with ``include_horizon``) or until it holds ``max_per_visit``
        pairs. A packet revisiting the node does not pair with itself and
        such a skip does not count against the cap. ``x`` and ``y`` are
        the key ids of the two arrivals at the node.
        """
        nodes: list[int] = []
        xs: list[int] = []
        ys: list[int] = []
        if max_per_visit <= 0:
            return nodes, xs, ys
        for node, (keys, t0s, owners) in self.visits.items():
            count = len(keys)
            for i in range(count - 1):
                t0_x = t0s[i]
                owner = owners[i]
                taken = 0
                for j in range(i + 1, count):
                    gap = t0s[j] - t0_x
                    if gap > horizon_ms or (
                        gap == horizon_ms and not include_horizon
                    ):
                        break
                    if owners[j] == owner:
                        continue
                    nodes.append(node)
                    xs.append(keys[i])
                    ys.append(keys[j])
                    taken += 1
                    if taken == max_per_visit:
                        break
        return nodes, xs, ys


def assemble_arrival_vector(
    packet: ReceivedPacket,
    estimates: dict[ArrivalKey, float],
    omega_ms: float,
) -> list[float]:
    """One packet's full arrival-time vector (index = hop).

    Knowns (t0, sink arrival) are taken from the packet; interior hops
    come from ``estimates`` and fall back to the Eq. (5) trivial-interval
    midpoint when no kept window covered them. Only per-packet quantities
    enter, so the batch pipeline and the streaming engine assemble
    bit-identical vectors from the same estimates.
    """
    last = packet.path_length - 1
    times: list[float] = []
    for hop in range(packet.path_length):
        if hop == 0:
            times.append(packet.generation_time_ms)
        elif hop == last:
            times.append(packet.sink_arrival_ms)
        else:
            key = ArrivalKey(packet.packet_id, hop)
            value = estimates.get(key)
            if value is None:
                low = packet.generation_time_ms + hop * omega_ms
                high = packet.sink_arrival_ms - (last - hop) * omega_ms
                value = 0.5 * (low + high)
            times.append(value)
    return times
