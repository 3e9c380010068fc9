"""Candidate sets for the sum-of-delays constraints (paper §IV.A).

For a packet ``p`` whose source attached the 2-byte sum ``S(p)``:

* ``C(p)`` — packets whose delay at ``N_0(p)`` *may* be covered by
  ``S(p)``: they pass through ``N_0(p)``, were generated before ``p``, and
  reached the sink after ``q`` (p's previous local packet) was generated.
  Under zero loss, ``S(p) <= D(p) + sum over C(p)`` (Eq. (6)).
* ``C*(p) ⊆ C(p)`` — packets *guaranteed* covered: generated at or after
  ``t_0(q)`` and delivered by ``t_0(p)``. FIFO at the source then forces
  their departure into the accumulator window, so
  ``S(p) >= D(p) + sum over C*(p)`` (Eq. (7)) holds even under loss.

Both sets exclude ``p`` itself (its delay is the explicit ``D`` term) and
``q`` (whose delay was flushed into ``S(q)`` when the accumulator reset).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.records import KeySpace, TraceIndex
from repro.sim.trace import ReceivedPacket


@dataclass
class CandidateSets:
    """C(p) and C*(p) for one packet, plus the anchoring context."""

    packet: ReceivedPacket
    previous_local: ReceivedPacket
    #: (candidate packet, hop at which it visits the source of ``packet``)
    possible: list[tuple[ReceivedPacket, int]] = field(default_factory=list)
    guaranteed: list[tuple[ReceivedPacket, int]] = field(default_factory=list)
    #: True when no local packet was lost between ``previous_local`` and
    #: ``packet`` — only then is the (7) anchor sound.
    anchored: bool = True

    def __post_init__(self) -> None:
        possible_ids = {x.packet_id for x, _ in self.possible}
        for x, _ in self.guaranteed:
            if x.packet_id not in possible_ids:
                raise ValueError("C*(p) must be a subset of C(p)")


def candidate_keys(
    space: KeySpace, position: int
) -> tuple[int, list[int], list[int]] | None:
    """C(p) / C*(p) of the packet at ``position`` as visit key ids.

    Each id is a candidate's arrival at ``N_0(p)``, so its delay there is
    ``t[id + 1] - t[id]``. Returns ``(previous_local position, possible,
    guaranteed)``, or None when the packet is its source's first received
    packet (no previous local packet to delimit the accumulator window).
    """
    previous = space.previous[position]
    if previous < 0:
        return None
    source = space.source[position]
    t0, sink, sources = space.t0, space.sink, space.source
    t0_p = t0[position]
    t0_q = t0[previous]
    possible: list[int] = []
    guaranteed: list[int] = []
    keys, _, owners = space.visits.get(source, ((), (), ()))
    for key, owner in zip(keys, owners):
        # Other local packets of the source (q and p included) reset the
        # accumulator when they depart, so their delays are never part of
        # S(p). (With no seqno gap there are none between q and p anyway;
        # earlier/later ones fail the time conditions, but be explicit.)
        if sources[owner] == source:
            continue
        # Condition 2: generated before p.
        if t0[owner] >= t0_p:
            continue
        # Condition 3: delivered after q was generated.
        if sink[owner] <= t0_q:
            continue
        possible.append(key)
        if t0[owner] >= t0_q and sink[owner] <= t0_p:
            guaranteed.append(key)
    return previous, possible, guaranteed


def compute_candidate_sets(
    index: TraceIndex, packet: ReceivedPacket
) -> CandidateSets | None:
    """Compute C(p) / C*(p) for ``packet``, or None when unanchorable.

    Returns None when ``packet`` is the first received packet of its
    source (no previous local packet to delimit the accumulator window).
    """
    space = index.key_space
    position = space.position.get(packet.packet_id)
    if position is None:
        raise ValueError(f"{packet.packet_id} is not in this index")
    found = candidate_keys(space, position)
    if found is None:
        return None
    previous, possible, guaranteed = found

    def visits(keys: list[int]) -> list[tuple[ReceivedPacket, int]]:
        return [
            (space.packets[space.position_of_key[key]], space.hop[key])
            for key in keys
        ]

    previous_packet = space.packets[previous]
    return CandidateSets(
        packet=packet,
        previous_local=previous_packet,
        possible=visits(possible),
        guaranteed=visits(guaranteed),
        anchored=not index.has_seqno_gap(previous_packet, packet),
    )


def loss_evidence(index: TraceIndex) -> int:
    """Number of observable seqno gaps across all source streams.

    A gap between consecutive *received* local packets of one source
    means at least one packet was lost (or quarantined at ingestion).
    Eq. (6) — ``S(p) <= D(p) + sum over C(p)`` — only holds loss-free: a
    lost packet's delay may be inside ``S(p)`` but absent from ``C(p)``.
    The degradation ladder uses this count to decide whether to downgrade
    the sum constraints to the loss-tolerant C*(p)-only form (Eq. (7)).
    """
    sources = {p.packet_id.source for p in index.packets}
    gaps = 0
    for source in sources:
        own = index.local_packets_of(source)
        for previous, packet in zip(own, own[1:]):
            if index.has_seqno_gap(previous, packet):
                gaps += 1
    return gaps
