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

import numpy as np

from repro.core.records import KeySpace, TraceIndex, spans
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


def seqno_gaps(space: KeySpace) -> np.ndarray:
    """Per position, whether a local packet was lost between the packet's
    previous received local packet and it (False for a source's first).

    A gap between consecutive *received* local packets of one source
    means at least one packet was lost (or quarantined at ingestion).
    Eq. (6) — ``S(p) <= D(p) + sum over C(p)`` — only holds loss-free: a
    lost packet's delay may be inside ``S(p)`` but absent from ``C(p)``,
    so with ``loss_aware_sums`` any gap in the window downgrades the sum
    rows to the loss-tolerant C*(p)-only form (Eq. (7)).
    """
    arrays = space.arrays
    previous = arrays.previous
    return (previous >= 0) & (arrays.seqno != arrays.seqno[previous] + 1)


def candidate_visits(
    space: KeySpace, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C(p) / C*(p) of the packets at ``positions``, flattened.

    Every packet must have a previous local packet. Returns ``(rows,
    keys, guaranteed)`` over C(p): ``rows`` indexes ``positions`` (in
    ascending order), ``keys`` is a candidate's arrival at ``N_0(p)`` as
    a key id, so its delay there is ``t[key + 1] - t[key]``, in the
    node's visit order, and ``guaranteed`` marks the members of C*(p).
    """
    arrays = space.arrays
    source = arrays.source[positions]
    nodes = arrays.visit_nodes
    if not len(nodes):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty.astype(bool)
    by_node = nodes.argsort()
    group = by_node[
        np.minimum(
            np.searchsorted(nodes, source, sorter=by_node), len(nodes) - 1
        )
    ]
    bounds = arrays.visit_bounds
    counts = np.where(
        nodes[group] == source, bounds[group + 1] - bounds[group], 0
    )
    rows = np.arange(len(positions)).repeat(counts)
    visit = spans(bounds[group], counts)
    owner = arrays.visit_owner[visit]
    t0, sink = arrays.t0, arrays.sink
    t0_owner, sink_owner = t0[owner], sink[owner]
    t0_p = t0[positions][rows]
    t0_q = t0[arrays.previous[positions]][rows]
    # Other local packets of the source (q and p included) reset the
    # accumulator when they depart, so their delays are never part of
    # S(p). (With no seqno gap there are none between q and p anyway;
    # earlier/later ones fail the time conditions, but be explicit.)
    possible = (
        (arrays.source[owner] != source[rows])
        # Condition 2: generated before p.
        & (t0_owner < t0_p)
        # Condition 3: delivered after q was generated.
        & (sink_owner > t0_q)
    ).nonzero()[0]
    guaranteed = (t0_owner >= t0_q) & (sink_owner <= t0_p)
    return (
        rows[possible],
        arrays.visit_keys[visit[possible]],
        guaranteed[possible],
    )


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
    previous = int(space.arrays.previous[position])
    if previous < 0:
        return None
    _, keys, guaranteed = candidate_visits(space, np.array([position]))

    def visits(keys: np.ndarray) -> list[tuple[ReceivedPacket, int]]:
        return [
            (space.packets[space.position_of_key[key]], space.hop[key])
            for key in keys.tolist()
        ]

    previous_packet = space.packets[previous]
    return CandidateSets(
        packet=packet,
        previous_local=previous_packet,
        possible=visits(keys),
        guaranteed=visits(keys[guaranteed]),
        anchored=not index.has_seqno_gap(previous_packet, packet),
    )

