"""MNT-style per-hop arrival-time bounds (Keller et al., SenSys'12).

MNT reconstructs, for each received packet ``p`` and each hop, the two
*local packets* of the forwarding node that bracket ``p`` in the node's
FIFO departure order. Local packets anchor time because their generation
instants are known at the sink; forwarded packets inherit bounds from
their brackets:

* ``p`` departed node ``n`` after ``l_before`` did, and ``l_before``
  departed no earlier than its own generation + omega;
* ``p`` was enqueued before ``l_after`` was generated, so p's *arrival*
  at ``n`` is at most ``t0(l_after)``; its departure precedes
  ``l_after``'s, which is over by ``t_sink(l_after)`` minus the remaining
  path's minimum delay.

The departure order itself is estimated the way MNT does in collection
trees: packets sharing a forwarder leave it in the order they reach the
sink (exactly FIFO when the downstream path is shared, a heuristic under
path divergence). Bounds are then sharpened by the same per-path
monotonicity propagation MNT's authors call "correlating information from
packets passing through the same forwarding nodes". Estimated values are
bound midpoints, matching the paper's evaluation methodology (§VI.A).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.core.intervals import (
    Interval,
    KeyIntervals,
    clip_to_valid,
    propagate_path_monotonicity,
    trivial_intervals,
)
from repro.core.records import ArrivalKey, KeySpace, TraceIndex
from repro.sim.packet import PacketId
from repro.sim.trace import ReceivedPacket, TraceBundle


@dataclass
class MntConfig:
    """Knobs of the MNT reconstruction."""

    omega_ms: float = 1.0
    #: rounds of bracket-then-propagate refinement.
    refinement_rounds: int = 3
    #: propagate bounds along each packet's path between rounds. The
    #: published MNT brackets against local packets and "correlates
    #: information from packets passing through the same forwarding
    #: nodes"; with this off only the literal one-shot bracketing runs,
    #: giving a strictly weaker (more paper-literal) baseline.
    propagate: bool = True


@dataclass
class MntReconstruction:
    """MNT's output: per-arrival-time intervals plus midpoint estimates."""

    intervals: KeyIntervals
    index: TraceIndex
    stats: dict = field(default_factory=dict)

    def arrival_bounds(self, packet_id: PacketId) -> list[Interval]:
        packet = self.index.by_id[packet_id]
        return [
            self.intervals[ArrivalKey(packet_id, hop)]
            for hop in range(packet.path_length)
        ]

    def delay_bounds(self, packet_id: PacketId) -> list[Interval]:
        arrivals = self.arrival_bounds(packet_id)
        return [
            (later[0] - earlier[1], later[1] - earlier[0])
            for earlier, later in zip(arrivals, arrivals[1:])
        ]

    def delay_widths(self) -> list[float]:
        widths = []
        for packet in self.index.packets:
            for lo, hi in self.delay_bounds(packet.packet_id):
                widths.append(hi - lo)
        return widths

    def estimated_arrival_times(self, packet_id: PacketId) -> list[float]:
        """Midpoints of the bounds (§VI.A: 'the average of the two bounds')."""
        return [
            0.5 * (lo + hi) for lo, hi in self.arrival_bounds(packet_id)
        ]

    def estimated_delays(self, packet_id: PacketId) -> list[float]:
        times = self.estimated_arrival_times(packet_id)
        return [b - a for a, b in zip(times, times[1:])]


class MntReconstructor:
    """Runs the MNT bracketing over a received trace."""

    def __init__(self, config: MntConfig | None = None) -> None:
        self.config = config or MntConfig()

    def reconstruct(self, trace) -> MntReconstruction:
        packets = (
            list(trace.received) if isinstance(trace, TraceBundle) else list(trace)
        )
        index = TraceIndex(packets, omega_ms=self.config.omega_ms)
        space = index.key_space
        lows, highs = trivial_intervals(index)
        if self.config.propagate:
            propagate_path_monotonicity(space, lows, highs)

        brackets = 0
        rounds = self.config.refinement_rounds if self.config.propagate else 1
        for _ in range(max(1, rounds)):
            tightened = self._apply_brackets(space, lows, highs)
            brackets += tightened
            if self.config.propagate:
                tightened += propagate_path_monotonicity(space, lows, highs)
            clip_to_valid(lows, highs)
            if tightened == 0:
                break
        return MntReconstruction(
            intervals=KeyIntervals(space, lows, highs),
            index=index,
            stats={"bracket_tightenings": brackets},
        )

    # ------------------------------------------------------------------

    def _apply_brackets(
        self, space: KeySpace, lows: list[float], highs: list[float]
    ) -> int:
        """One pass of local-packet bracketing at every forwarder."""
        omega = self.config.omega_ms
        packets = space.packets
        tightened = 0
        for node, (keys, _, owners) in space.visits.items():
            # MNT's departure-order estimate: sink arrival order.
            ordered = sorted(
                zip(keys, owners), key=lambda visit: space.sink[visit[1]]
            )
            # Positions of this node's local packets in that order.
            local_positions = [
                i
                for i, (key, owner) in enumerate(ordered)
                if space.hop[key] == 0 and space.source[owner] == node
            ]
            if not local_positions:
                continue
            for position, (arrive, owner) in enumerate(ordered):
                if space.hop[arrive] == 0 and space.source[owner] == node:
                    continue  # local packets are their own anchors
                depart = arrive + 1
                split = bisect.bisect_left(local_positions, position)
                if split > 0:
                    l_before = packets[ordered[local_positions[split - 1]][1]]
                    # p departed after l_before's departure (>= t0 + omega)
                    tightened += _raise_lower(
                        lows, depart, l_before.generation_time_ms + omega
                    )
                    # FIFO: p was enqueued after l_before was generated.
                    tightened += _raise_lower(
                        lows, arrive, l_before.generation_time_ms
                    )
                if split < len(local_positions):
                    l_after = packets[ordered[local_positions[split]][1]]
                    remaining = l_after.path_length - 2
                    departure_cap = (
                        l_after.sink_arrival_ms - max(0, remaining) * omega
                    )
                    tightened += _lower_upper(highs, depart, departure_cap)
                    # p was enqueued before l_after was generated... no:
                    # before l_after *departed*; generation is the sound cap
                    # on l_after's enqueue, and FIFO gives arrival order.
                    tightened += _lower_upper(
                        highs, arrive, l_after.generation_time_ms
                    )
        return tightened


def _raise_lower(lows: list[float], key: int, value: float) -> int:
    if value > lows[key]:
        lows[key] = value
        return 1
    return 0


def _lower_upper(highs: list[float], key: int, value: float) -> int:
    if value < highs[key]:
        highs[key] = value
        return 1
    return 0
