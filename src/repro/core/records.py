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

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterator

import numpy as np

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
    # Sequence numbers
    # ------------------------------------------------------------------

    def has_seqno_gap(
        self, previous: ReceivedPacket, packet: ReceivedPacket
    ) -> bool:
        """Whether a local packet between the two was lost.

        A gap means the lost packet may have flushed the sum-of-delays
        accumulator on the node, so Eq. (6)/(7) cannot be anchored to
        ``previous`` soundly.
        """
        return packet.packet_id.seqno != previous.packet_id.seqno + 1


#: a window of at most this many arrival times enumerates its visit pairs
#: and emits its two-term rows in Python loops, a larger one with numpy:
#: below it numpy's fixed cost per call outweighs the work. Set from the
#: measured crossover (DESIGN §3, "Preprocessor: the integer key space").
LOOP_MAX_KEYS = 100


def is_loop_size(num_keys: int) -> bool:
    """Whether a window over ``num_keys`` arrival times takes the loop
    kernels (at most :data:`LOOP_MAX_KEYS`)."""
    return num_keys <= LOOP_MAX_KEYS


def spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(starts[i], starts[i] + counts[i])`` for every ``i``,
    concatenated."""
    shifts = starts - counts.cumsum() + counts
    return shifts.repeat(counts) + np.arange(counts.sum())


class KeySpace:
    """Integer ids for the arrival times of one :class:`TraceIndex`.

    The key id of ``t_hop(p)`` is ``offsets[i] + hop``, where ``i`` is
    ``p``'s position in ``index.packets``, so a packet's keys are
    consecutive and ``k + 1`` is the next hop of key ``k``. Per key the
    space records the node the arrival is at, its solver column (``-1``
    when the sink knows the time), its known value (NaN for unknowns) and
    its Eq. (5) trivial interval, computed exactly as
    :meth:`TraceIndex.trivial_interval` does. Columns follow
    :meth:`TraceIndex.unknown_keys`.

    A *visit* is a key before the packet's last hop: the packet's arrival
    at a node it forwards from (or generated at). Visits are grouped by
    node, nodes in first-visit order, each group's visits in key order,
    which is (t0, source, seqno, hop) order; group ``g`` is node
    ``visit_nodes[g]`` and holds ``visit_keys[visit_bounds[g]:
    visit_bounds[g + 1]]``. A packet that revisits a node has adjacent
    visits in its group.

    The fields are Python lists, laid out in one pass over the packets:
    the sequential sweeps and a small window's loop kernels read them.
    The array kernels read :attr:`arrays`.
    """

    def __init__(self, index: TraceIndex) -> None:
        self.omega_ms = omega = index.omega_ms
        self.packets = packets = index.packets
        # A packet's runs go into the lists whole.
        offsets, node, position, hop = [0], [], [], []
        column, value, low, high, unknown = [], [], [], [], []
        groups: dict[int, list[int]] = {}
        for i, packet in enumerate(packets):
            path = packet.path
            size = len(path)
            first = offsets[-1]
            offsets.append(first + size)
            node += path
            position += [i] * size
            hop += range(size)
            for visit, at in enumerate(path[:-1], first):
                groups.setdefault(at, []).append(visit)
            t0 = packet.generation_time_ms
            column.append(-1)
            value.append(t0)
            low.append(t0)
            high.append(t0)
            if size > 1:
                last, sink = size - 1, packet.sink_arrival_ms
                inner = range(1, last)
                column += range(len(unknown), len(unknown) + last - 1)
                unknown += range(first + 1, first + last)
                value += [math.nan] * (last - 1)
                low += [t0 + h * omega for h in inner]
                high += [sink - (last - h) * omega for h in inner]
                column.append(-1)
                value.append(sink)
                low.append(sink)
                high.append(sink)
        #: per position, plus a final sentinel: packet i owns key ids
        #: ``offsets[i] .. offsets[i + 1] - 1``.
        self.offsets = offsets
        #: per key: the node the arrival is at, its packet's position and
        #: its hop, its column and known value, its Eq. (5) trivial
        #: interval.
        self.node = node
        self.position_of_key = position
        self.hop = hop
        self.column = column
        self.value = value
        self.low = low
        self.high = high
        #: column -> key id.
        self.unknown = unknown
        #: per position, the packet's generation time, sink arrival and
        #: source.
        self.t0 = t0s = [p.generation_time_ms for p in packets]
        self.sink = [p.sink_arrival_ms for p in packets]
        self.source = [p.packet_id.source for p in packets]
        self.visit_nodes = list(groups)
        self.visit_bounds = list(
            accumulate(map(len, groups.values()), initial=0)
        )
        self.visit_keys = list(chain.from_iterable(groups.values()))
        #: per visit, the position of the visiting packet and its t0.
        self.visit_owner = [position[key] for key in self.visit_keys]
        self.visit_t0 = [t0s[owner] for owner in self.visit_owner]
        #: whether the build enumerates pairs and emits its two-term rows
        #: in loops over the lists (:func:`is_loop_size`) or with
        #: :attr:`arrays`.
        self.loop_sized = is_loop_size(len(node))

    @cached_property
    def arrays(self) -> "KeyArrays":
        """The fields as numpy arrays, for the array kernels."""
        return KeyArrays(self)

    @cached_property
    def visits(self) -> dict[int, tuple[list[int], list[float], list[int]]]:
        """node -> (visit key ids, their packets' t0, their positions),
        nodes in first-visit order."""
        bounds = self.visit_bounds
        return {
            node: (
                self.visit_keys[start:stop],
                self.visit_t0[start:stop],
                self.visit_owner[start:stop],
            )
            for node, start, stop in zip(self.visit_nodes, bounds, bounds[1:])
        }

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

    def arrival_keys(self, key_ids: list[int]) -> list[ArrivalKey]:
        """:meth:`arrival_key` of each id."""
        packets, position, hop = self.packets, self.position_of_key, self.hop
        return [
            ArrivalKey(packets[position[key]].packet_id, hop[key])
            for key in key_ids
        ]

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
        the key ids of the two arrivals at the node; pairs come node by
        node in first-visit order, then by ``x``, then by ``y``.
        :meth:`KeyArrays.visit_pairs` gives the same pairs as arrays.
        """
        nodes: list[int] = []
        xs: list[int] = []
        ys: list[int] = []
        if max_per_visit <= 0:
            return nodes, xs, ys
        keys, t0s, owners = self.visit_keys, self.visit_t0, self.visit_owner
        bounds = self.visit_bounds
        for node, start, stop in zip(self.visit_nodes, bounds, bounds[1:]):
            for i in range(start, stop - 1):
                t0_x = t0s[i]
                owner = owners[i]
                taken = 0
                for j in range(i + 1, stop):
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


class KeyArrays:
    """A :class:`KeySpace`'s fields as numpy arrays, each made from its
    list on first read, plus the per-position arrays the array kernels
    derive from them. A window whose build takes the loop kernels so
    makes only the arrays its solve reads."""

    #: the fields made from the key space's list of the same name, with
    #: their dtypes.
    DTYPES = {
        "offsets": np.int64,
        "node": np.int64,
        "position_of_key": np.int64,
        "hop": np.int64,
        "column": np.int64,
        "value": float,
        "t0": float,
        "sink": float,
        "source": np.int64,
        "visit_bounds": np.int64,
        "visit_nodes": np.int64,
        "visit_keys": np.int64,
        "visit_owner": np.int64,
        "visit_t0": float,
    }

    def __init__(self, space: KeySpace) -> None:
        # A copy of the space's fields, not the space: a reference back
        # to it would make a cycle, and a window's key space would then
        # outlive its last reader until the cyclic collector ran.
        self._lists = dict(vars(space))
        self.packets = space.packets

    def __getattr__(self, name: str) -> np.ndarray:
        """Make a field's array on its first read."""
        dtype = self.DTYPES.get(name)
        if dtype is None:
            raise AttributeError(name)
        array = np.array(self._lists[name], dtype=dtype)
        setattr(self, name, array)
        return array

    @cached_property
    def folded(self) -> np.ndarray:
        """Per key, the known time a row folds into its bounds (a -0.0
        read as 0.0, as a fold from 0.0 reads it), 0.0 for unknowns."""
        return np.where(self.column < 0, self.value + 0.0, 0.0)

    @cached_property
    def seqno(self) -> np.ndarray:
        """Per position, the packet's sequence number."""
        return np.array(
            [p.packet_id.seqno for p in self.packets], dtype=np.int64
        )

    @cached_property
    def previous(self) -> np.ndarray:
        """position -> position of the source's previous received packet
        (by seqno), or -1 for its first."""
        previous = np.full(len(self.packets), -1, dtype=np.int64)
        order = np.lexsort((self.seqno, self.source))
        source = self.source[order]
        later = (source[1:] == source[:-1]).nonzero()[0]
        previous[order[later + 1]] = order[later]
        return previous

    @cached_property
    def _visit_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Per visit, the end of its node's group and the end of its
        packet's run of adjacent visits in that group."""
        owner, bounds = self.visit_owner, self.visit_bounds
        group_end = bounds[1:].repeat(np.diff(bounds))
        last = np.ones(len(owner), dtype=bool)
        np.not_equal(owner[1:], owner[:-1], out=last[:-1])
        last[bounds[1:-1] - 1] = True
        ends = last.nonzero()[0] + 1
        return group_end, ends.repeat(np.diff(ends, prepend=0))

    def visit_pairs(
        self, horizon_ms: float, max_per_visit: int, include_horizon: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`KeySpace.visit_pairs` as three int arrays, all visits at
        once: visit ``i``'s candidates are the ``max_per_visit`` visits
        after its packet's run, and a candidate pairs when no gap up to
        and including its own stops the scan."""
        count = len(self._lists["visit_keys"])
        if max_per_visit <= 0 or count == len(self._lists["visit_nodes"]):
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        group_end, run_end = self._visit_runs
        width = min(max_per_visit, int(np.diff(self.visit_bounds).max()))
        after = run_end[:, None] + np.arange(width)
        inside = after < group_end[:, None]
        after[~inside] = 0
        t0 = self.visit_t0
        gap = t0[after] - t0[:, None]
        stop = (gap > horizon_ms) if include_horizon else (gap >= horizon_ms)
        stop |= ~inside
        # A skipped revisit has gap 0.0 and stops the scan like any other.
        if 0.0 > horizon_ms or (0.0 == horizon_ms and not include_horizon):
            stop[run_end > np.arange(1, count + 1)] = True
        visit, slot = (~np.logical_or.accumulate(stop, axis=1)).nonzero()
        xs = self.visit_keys[visit]
        return self.node[xs], xs, self.visit_keys[after[visit, slot]]


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
