"""Differential test of the window build against the per-row build.

The oracle below is the per-row constraint build the array build
replaced, kept verbatim: a list-backed :class:`ConstraintBuilder` and
:class:`KeySpace`, ``KeySpace.visit_pairs``, ``_resolve_fifo_pairs``,
``_RowWriter`` and the ``_add_*_rows`` emitters with their helpers. For
generated windows it checks that
:func:`repro.core.constraints.build_constraints` gives byte-equal A, l,
u, tags, intervals, FIFO pairs and directions and stats, on both sides
of the size rule (:func:`repro.core.records.is_loop_size`), and that
:meth:`repro.core.records.KeySpace.visit_pairs` and
:meth:`repro.core.records.KeyArrays.visit_pairs` enumerate the same
pairs under both horizon rules.

Windows come from small simulated traces, raw or through the loss,
wrapped-sum and path-damage injectors, and from hand-built bundles with
node revisits, self-loops, equal generation times, seqno gaps and paths
that start off their id's source. Every
:class:`~repro.core.constraints.ConstraintConfig` knob the build reads
is drawn. ``--hypothesis-profile=ci`` runs ten times the examples.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace
from functools import cached_property
from typing import Callable, Iterable, Mapping

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import INF
from repro.core import records
from repro.core.constraints import ConstraintConfig, build_constraints
from repro.core.pipeline import DomoConfig, constraint_config_for
from repro.core.preprocessor import build_window_systems, choose_window_span
from repro.core.records import ArrivalKey, TraceIndex
from repro.core.validation import validate_packets
from repro.faults.injectors import inject, make_injector
from repro.optim.modeling import ConstraintRow
from repro.sim import NetworkConfig, simulate_network
from repro.sim.io import trace_from_dict, trace_to_dict
from repro.sim.packet import PacketId
from repro.sim.trace import ReceivedPacket

from tests.core.conftest import bundle_of, make_received

# ----------------------------------------------------------------------
# The oracle: the per-row build, verbatim
# ----------------------------------------------------------------------


class ConstraintBuilder:
    """Accumulates rows in CSR form and builds the sparse system.

    Row ``r`` holds columns ``indices[indptr[r]:indptr[r + 1]]`` (sorted,
    distinct) with coefficients ``data[...]`` (nonzero) and bounds
    ``lower[r]`` / ``upper[r]``. Producers that already hold rows in that
    form append to the lists directly. A row's tag is a string, or any
    other value that ``tag_names`` turns into one on demand;
    :class:`ConstraintRow` objects are made only when :attr:`rows` is read.
    """

    def __init__(
        self,
        num_variables: int | None = None,
        tag_names: Callable[[object], str] | None = None,
    ) -> None:
        self._num_variables = num_variables
        self._tag_names = tag_names
        self.indptr: list[int] = [0]
        self.indices: list[int] = []
        self.data: list[float] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.tags: list = []
        self._rows: list[ConstraintRow] | None = None

    def __len__(self) -> int:
        return len(self.lower)

    def _append(self, indices, coefficients, lower, upper, tag) -> None:
        """Append a row already in canonical form (sorted distinct
        columns, nonzero coefficients); nothing is checked."""
        self.indices.extend(indices)
        self.data.extend(coefficients)
        self.indptr.append(len(self.indices))
        self.lower.append(lower)
        self.upper.append(upper)
        self.tags.append(tag)

    def add(
        self,
        terms: Mapping[int, float] | Iterable[tuple[int, float]],
        lower: float = -INF,
        upper: float = INF,
        tag="",
    ) -> None:
        """Add a row ``lower <= sum(coeff * x) <= upper``.

        Terms with the same index are merged; zero coefficients are kept out.
        """
        if lower > upper:
            raise ValueError(f"empty row interval [{lower}, {upper}]")
        merged: dict[int, float] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for index, coefficient in items:
            if index < 0:
                raise ValueError(f"negative variable index {index}")
            merged[index] = merged.get(index, 0.0) + float(coefficient)
        merged = {i: c for i, c in merged.items() if c != 0.0}
        if not merged:
            if lower > 0.0 or upper < 0.0:
                raise ValueError("constant row is infeasible")
            return
        indices = sorted(merged)
        self._append(
            indices, [merged[i] for i in indices], float(lower), float(upper), tag
        )

    def build(self, num_variables: int | None = None):
        """Assemble ``(A, l, u)`` with ``A`` in CSR format.

        Args:
            num_variables: number of columns; defaults to the value passed
                at construction or to ``max index + 1``.
        """
        if num_variables is None:
            num_variables = self._num_variables
        largest = max(self.indices, default=-1)
        if num_variables is None:
            num_variables = 1 + largest
        if largest >= num_variables:
            raise ValueError(
                f"row references column {largest} >= n={num_variables}"
            )
        matrix = sp.csr_matrix(
            (self.data, self.indices, self.indptr),
            shape=(len(self), num_variables),
        )
        return matrix, np.array(self.lower, dtype=float), np.array(
            self.upper, dtype=float
        )


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


def trivial_intervals(index: TraceIndex) -> tuple[list[float], list[float]]:
    """Order-constraint intervals of every arrival time, as fresh
    ``(lows, highs)`` lists over the index's key ids."""
    space = index.key_space
    return list(space.low), list(space.high)


def propagate_path_monotonicity(
    space: KeySpace, lows: list[float], highs: list[float]
) -> int:
    """Tighten intervals along each packet's path in place.

    Enforces ``lo(t_{i+1}) >= lo(t_i) + omega`` (forward sweep) and
    ``hi(t_i) <= hi(t_{i+1}) - omega`` (backward sweep), packet by packet
    in index order. Returns how many interval endpoints were tightened.
    """
    omega = space.omega_ms
    offsets = space.offsets
    tightened = 0
    for first, end in zip(offsets, offsets[1:]):
        for key in range(first + 1, end):
            bound = lows[key - 1] + omega
            if bound > lows[key]:
                lows[key] = bound
                tightened += 1
        for key in range(end - 2, first - 1, -1):
            bound = highs[key + 1] - omega
            if bound < highs[key]:
                highs[key] = bound
                tightened += 1
    return tightened


def clip_to_valid(lows: list[float], highs: list[float]) -> list[int]:
    """Repair any inverted intervals (lo > hi) by collapsing to midpoint.

    Inversions indicate inconsistent tightening (e.g. a wrong FIFO
    resolution under heavy quantization); collapsing keeps downstream
    solvers well-posed. Returns the repaired key ids for diagnostics.
    """
    repaired = []
    for key, (lo, hi) in enumerate(zip(lows, highs)):
        if lo > hi:
            mid = 0.5 * (lo + hi)
            lows[key] = highs[key] = mid
            repaired.append(key)
    return repaired


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


_ORDER, _FIFO, _SUM_LO, _SUM_HI = range(4)


def _apply_direction(
    direction: int,
    x: int,
    y: int,
    margins: tuple[float, float],
    lows: list[float],
    highs: list[float],
) -> None:
    """Tighten both legs' intervals with a resolved ordering."""
    early, late = (x, y) if direction == 1 else (y, x)
    for leg, margin in enumerate(margins):
        e, l = early + leg, late + leg
        if highs[l] - margin < highs[e]:
            highs[e] = highs[l] - margin
        if lows[e] + margin > lows[l]:
            lows[l] = lows[e] + margin


def _resolve_fifo_pairs(
    space: KeySpace,
    xs: list[int],
    ys: list[int],
    arrival_margins: list[float],
    lows: list[float],
    highs: list[float],
    config: ConstraintConfig,
) -> list[int]:
    """Iteratively resolve pair directions and tighten intervals.

    Returns each pair's direction: ``+1`` when x provably precedes y,
    ``-1`` for the converse, ``0`` when unresolved. The arrival margin
    only applies when *both* packets physically arrived at the node over
    the radio (a locally generated packet can be timestamped at any
    instant); departures are always transmissions.
    """
    departure = config.fifo_departure_margin_ms
    directions = [0] * len(xs)
    propagate_path_monotonicity(space, lows, highs)
    # First pass: structural resolution via shared downstream paths. When
    # x and y follow the *same node sequence* from the shared node to the
    # sink, per-hop FIFO preserves their order at every one of those
    # hops, so the (known) sink arrival order is the departure order.
    packets, position, hop = space.packets, space.position_of_key, space.hop
    for i, (x, y) in enumerate(zip(xs, ys)):
        px, py = packets[position[x]], packets[position[y]]
        if px.path[hop[x]:] != py.path[hop[y]:]:
            continue
        direction = 1 if px.sink_arrival_ms < py.sink_arrival_ms else -1
        directions[i] = direction
        _apply_direction(
            direction, x, y, (arrival_margins[i], departure), lows, highs
        )
    propagate_path_monotonicity(space, lows, highs)
    clip_to_valid(lows, highs)
    for _ in range(max(1, config.resolution_rounds)):
        progress = 0
        for i, (x, y) in enumerate(zip(xs, ys)):
            if directions[i] != 0:
                continue
            if highs[x] <= lows[y] or highs[x + 1] <= lows[y + 1]:
                direction = 1
            elif highs[y] <= lows[x] or highs[y + 1] <= lows[x + 1]:
                direction = -1
            else:
                continue
            directions[i] = direction
            progress += 1
            _apply_direction(
                direction, x, y, (arrival_margins[i], departure), lows, highs
            )
        propagate_path_monotonicity(space, lows, highs)
        clip_to_valid(lows, highs)
        if progress == 0:
            break
    return directions


class _RowWriter:
    """Folds rows over key ids into the builder's CSR lists.

    Known arrival times contribute ``coeff * value`` to both bounds, in
    term order; rows that become constant are checked and dropped.
    """

    def __init__(
        self, space: KeySpace, builder: ConstraintBuilder, stats: dict
    ) -> None:
        self.column = space.column
        self.value = space.value
        self.builder = builder
        self.stats = stats

    def _constant(self, lower: float, upper: float) -> None:
        # Fully known: tolerate small violations (quantization noise).
        if lower > 1e-6 or upper < -1e-6:
            self.stats["inconsistent_known_rows"] = (
                self.stats.get("inconsistent_known_rows", 0) + 1
            )

    def difference(self, late: int, early: int, lower: float, tag: int) -> None:
        """``t[late] - t[early] >= lower``, appended to the CSR lists."""
        c_late = self.column[late]
        c_early = self.column[early]
        shift = 0.0
        if c_late < 0:
            shift += self.value[late]
        if c_early < 0:
            shift -= self.value[early]
        builder = self.builder
        indices, data = builder.indices, builder.data
        if c_late < 0:
            if c_early < 0:
                self._constant(lower - shift, INF)
                return
            indices.append(c_early)
            data.append(-1.0)
        elif c_early < 0:
            indices.append(c_late)
            data.append(1.0)
        elif c_early < c_late:
            indices += (c_early, c_late)
            data += (-1.0, 1.0)
        else:
            indices += (c_late, c_early)
            data += (1.0, -1.0)
        builder.indptr.append(len(indices))
        builder.lower.append(lower - shift)
        builder.upper.append(INF)
        builder.tags.append(tag)

    def terms(
        self, terms: dict[int, float], lower: float, upper: float, tag: int
    ) -> None:
        """``lower <= sum(coeff * t[key]) <= upper`` over distinct keys."""
        folded: dict[int, float] = {}
        shift = 0.0
        for key, coefficient in terms.items():
            column = self.column[key]
            if column < 0:
                shift += coefficient * self.value[key]
            else:
                folded[column] = coefficient
        lower = lower - shift if lower != -INF else -INF
        upper = upper - shift if upper != INF else INF
        if not folded:
            self._constant(lower, upper)
            return
        self.builder.add(folded, lower=lower, upper=upper, tag=tag)


def _add_order_rows(rows: _RowWriter, space: KeySpace, config: ConstraintConfig):
    """Eq. (5): consecutive arrival times separated by at least omega."""
    offsets = space.offsets
    for first, end in zip(offsets, offsets[1:]):
        for key in range(first + 1, end):
            rows.difference(key, key - 1, config.omega_ms, 4 * key + _ORDER)


def _add_fifo_rows(
    rows: _RowWriter,
    nodes: list[int],
    xs: list[int],
    ys: list[int],
    directions: list[int],
    arrival_margins: list[float],
    config: ConstraintConfig,
):
    """Linear rows for every resolved FIFO pair (both hops)."""
    departure = config.fifo_departure_margin_ms
    for node, x, y, direction, arrival in zip(
        nodes, xs, ys, directions, arrival_margins
    ):
        if direction == 0:
            continue
        early, late = (x, y) if direction == 1 else (y, x)
        tag = 4 * node + _FIFO
        rows.difference(late, early, arrival, tag)
        rows.difference(late + 1, early + 1, departure, tag)


def _add_sum_rows(rows: _RowWriter, index: TraceIndex, config: ConstraintConfig):
    """Eq. (6)/(7): bracket each S(p) by candidate-set delay sums.

    Degradation hooks (robustness tier): packets whose S(p) was flagged
    by validation contribute no sum rows at all; with ``loss_aware_sums``
    and loss evidence in the window, the loss-unsafe Eq. (6) rows are
    suppressed (C*(p)-only degradation). Both events are counted in
    the system's stats.
    """
    space = index.key_space
    emitted_lower = emitted_upper = 0
    distrusted_skips = degraded_upper = 0
    unanchored = 0
    suppress_upper = config.loss_aware_sums and loss_evidence(index) > 0
    for position, packet in enumerate(space.packets):
        if packet.packet_id in config.distrusted_sum_ids:
            distrusted_skips += 1
            continue
        found = candidate_keys(space, position)
        if found is None:
            continue
        previous, possible, guaranteed = found
        if index.has_seqno_gap(space.packets[previous], packet):
            unanchored += 1
            continue
        if packet.path_length < 2:
            continue
        offset = space.offsets[position]
        s_value = float(packet.sum_of_delays_ms)

        # Eq. (7): S(p) >= D(p) + sum over C*(p). Always sound.
        rows.terms(
            _delay_terms(offset, guaranteed),
            -INF,
            s_value + config.sum_slack_ms,
            4 * position + _SUM_LO,
        )
        emitted_lower += 1

        # Eq. (6): S(p) <= D(p) + sum over C(p). Only holds loss-free;
        # kept optional, size-capped, and suppressed under loss evidence.
        if (
            config.use_upper_sum
            and len(possible) <= config.max_possible_set
        ):
            if suppress_upper:
                degraded_upper += 1
                continue
            rows.terms(
                _delay_terms(offset, possible),
                s_value - config.sum_slack_ms,
                INF,
                4 * position + _SUM_HI,
            )
            emitted_upper += 1
    stats = rows.stats
    stats["sum_lower_rows"] = emitted_lower
    stats["sum_upper_rows"] = emitted_upper
    stats["sum_rows_distrusted"] = distrusted_skips
    stats["sum_upper_degraded"] = degraded_upper
    stats["sum_unanchored"] = unanchored


def _delay_terms(offset: int, visits: list[int]) -> dict[int, float]:
    """``D(p) + sum of D = t[hop+1] - t[hop]`` over candidate visits, as
    key id -> coefficient (``p``'s first hop starts at ``offset``)."""
    terms = {offset + 1: 1.0, offset: -1.0}
    for arrive in visits:
        terms[arrive + 1] = terms.get(arrive + 1, 0.0) + 1.0
        terms[arrive] = terms.get(arrive, 0.0) - 1.0
    return terms


class OracleIndex(TraceIndex):
    """A :class:`TraceIndex` whose key space is the oracle's, with the
    per-source lookups the oracle reads."""

    @cached_property
    def key_space(self) -> KeySpace:
        return KeySpace(self)

    @cached_property
    def _by_source(self) -> dict[int, list[ReceivedPacket]]:
        """source -> its received packets in seqno order."""
        by_source: dict[int, list[ReceivedPacket]] = {}
        for packet in self.packets:
            by_source.setdefault(packet.packet_id.source, []).append(packet)
        for own in by_source.values():
            own.sort(key=lambda p: p.packet_id.seqno)
        return by_source

    def local_packets_of(self, node: int) -> list[ReceivedPacket]:
        """Received packets generated *by* ``node``, in seqno order."""
        return list(self._by_source.get(node, []))


def oracle_build(members, config: ConstraintConfig):
    """The per-row build's system parts, as its ``build_constraints``
    assembled them."""
    index = OracleIndex(members, omega_ms=config.omega_ms)
    space = index.key_space
    lows, highs = trivial_intervals(index)
    nodes, xs, ys = space.visit_pairs(
        config.fifo_horizon_ms,
        config.max_fifo_pairs_per_visit,
        include_horizon=True,
    )
    arrival_margins = [
        config.fifo_arrival_margin_ms
        if space.hop[x] > 0 and space.hop[y] > 0
        else 0.0
        for x, y in zip(xs, ys)
    ]
    directions = _resolve_fifo_pairs(
        space, xs, ys, arrival_margins, lows, highs, config
    )
    builder = ConstraintBuilder(num_variables=len(space.unknown))
    stats: dict = {}
    rows = _RowWriter(space, builder, stats)
    _add_order_rows(rows, space, config)
    _add_fifo_rows(rows, nodes, xs, ys, directions, arrival_margins, config)
    _add_sum_rows(rows, index, config)
    key = space.arrival_key
    pairs = [
        (node, key(x), key(y), key(x + 1), key(y + 1), direction)
        for node, x, y, direction in zip(nodes, xs, ys, directions)
    ]
    resolved = [pair for pair in pairs if pair[-1] != 0]
    unresolved = [pair for pair in pairs if pair[-1] == 0]
    stats.update(
        unknowns=len(space.unknown),
        rows=len(builder),
        fifo_resolved=len(resolved),
        fifo_unresolved=len(unresolved),
    )
    return space, builder, lows, highs, resolved, unresolved, stats


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------

#: ``LOOP_MAX_KEYS`` values that send every window to the array build and
#: to the loop kernels.
KERNELS = {"arrays": -1, "loops": 10**9}


def _bits(values) -> tuple:
    array = np.asarray(values)
    return array.dtype.str, array.shape, array.tobytes()


def _pairs(fifo_pairs) -> list[tuple]:
    return [
        (p.node, p.x_at, p.y_at, p.x_next, p.y_next, p.direction)
        for p in fifo_pairs
    ]


def assert_same_build(members, config: ConstraintConfig) -> None:
    """Both kernels of the build against the oracle, byte for byte. A
    window the oracle refuses, both kernels refuse alike."""
    try:
        built = oracle_build(members, config)
    except ValueError as refused:
        for limit in KERNELS.values():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(records, "LOOP_MAX_KEYS", limit)
                index = TraceIndex(members, omega_ms=config.omega_ms)
                with pytest.raises(ValueError, match=re.escape(str(refused))):
                    build_constraints(index, config)
        return
    space, builder, lows, highs, resolved, unresolved, stats = built
    n = len(space.unknown)
    A, lower, upper = builder.build(num_variables=n)
    for name, limit in KERNELS.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(records, "LOOP_MAX_KEYS", limit)
            index = TraceIndex(members, omega_ms=config.omega_ms)
            system = build_constraints(index, config)
            got_A, got_lower, got_upper = system.builder.build(
                num_variables=n
            )
            for got, want in (
                (got_A.indptr, A.indptr),
                (got_A.indices, A.indices),
                (got_A.data, A.data),
                (got_lower, lower),
                (got_upper, upper),
                (system.intervals.lows, lows),
                (system.intervals.highs, highs),
            ):
                assert _bits(got) == _bits(want), name
            assert system.builder.tags.tolist() == builder.tags, name
            assert _pairs(system.fifo_resolved) == resolved, name
            assert _pairs(system.fifo_unresolved) == unresolved, name
            assert list(system.stats.items()) == list(stats.items()), name
            for horizon, cap in (
                (config.fifo_horizon_ms, config.max_fifo_pairs_per_visit),
                (1_000.0, 6),
            ):
                for include_horizon in (True, False):
                    want = list(
                        space.visit_pairs(horizon, cap, include_horizon)
                    )
                    got = index.key_space
                    as_lists = got.visit_pairs(horizon, cap, include_horizon)
                    as_arrays = got.arrays.visit_pairs(
                        horizon, cap, include_horizon
                    )
                    assert list(as_lists) == want, name
                    assert [part.tolist() for part in as_arrays] == want, name


# ----------------------------------------------------------------------
# Generated windows
# ----------------------------------------------------------------------

#: every knob the build reads; ``distrusted_sum_ids`` is drawn per input.
configs = st.builds(
    ConstraintConfig,
    omega_ms=st.sampled_from([0.0, 0.5, 1.0]),
    sum_slack_ms=st.sampled_from([0.0, 2.0]),
    use_upper_sum=st.booleans(),
    max_possible_set=st.sampled_from([0, 1, 3, 60]),
    fifo_horizon_ms=st.sampled_from([0.0, 8.0, 500.0, 5_000.0]),
    max_fifo_pairs_per_visit=st.sampled_from([0, 1, 2, 12]),
    fifo_arrival_margin_ms=st.sampled_from([0.0, 0.3, 2.0]),
    fifo_departure_margin_ms=st.sampled_from([0.0, 1.0]),
    resolution_rounds=st.sampled_from([1, 3]),
    loss_aware_sums=st.booleans(),
)

#: examples per property: a tenth of the profile's budget.
EXAMPLES = max(10, settings.default.max_examples // 10)


@st.composite
def simulated_traces(draw):
    seed = draw(st.integers(0, 2**16))
    trace = simulate_network(
        NetworkConfig(
            num_nodes=draw(st.sampled_from([4, 9, 16])),
            placement="grid",
            duration_ms=draw(st.sampled_from([6_000.0, 12_000.0])),
            packet_period_ms=draw(st.sampled_from([500.0, 1_000.0, 2_000.0])),
            seed=seed,
        )
    )
    faults = draw(
        st.lists(
            st.sampled_from(["delete_received", "wrap_sum", "corrupt_path"]),
            unique=True,
        )
    )
    if faults:
        injectors = [
            make_injector(kind, rate=draw(st.sampled_from([0.1, 0.3])))
            for kind in faults
        ]
        trace = trace_from_dict(
            inject(
                trace_to_dict(trace), injectors, np.random.default_rng(seed)
            )
        )
    return trace


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    trace=simulated_traces(),
    config=configs,
    target=st.sampled_from([8, 30, 200]),
)
def test_simulated_windows_build_as_the_per_row_oracle(trace, config, target):
    packets, report = validate_packets(list(trace.received), DomoConfig().validation)
    config = replace(
        config,
        distrusted_sum_ids=constraint_config_for(
            DomoConfig(), report
        ).distrusted_sum_ids,
    )
    span = choose_window_span(packets, target)
    for ws in build_window_systems(packets, config, window_span_ms=span):
        assert_same_build(ws.index.packets, config)


#: hop delays, ms: whole, or with a fraction, so that the order in which
#: a row folds its known times shows in its bounds' last bits.
delays = st.builds(
    lambda whole, part: whole + part,
    st.integers(1, 30),
    st.sampled_from([0.0, 0.0, 0.1, 0.7]),
)


@st.composite
def bundles(draw):
    """Packets from sources 1-4 to sink 0 over relays 1-5: a relay may
    repeat (a revisit, or a self-loop when adjacent) or be the source,
    generation times collide, seqnos skip, and now and then a path
    starts at another node than its id's source, as a damaged record's
    may."""
    received = []
    seqnos: dict[int, int] = {}
    for _ in range(draw(st.integers(1, 8))):
        source = draw(st.integers(1, 4))
        seqno = seqnos[source] = seqnos.get(source, -1) + draw(
            st.integers(1, 2)
        )
        head = draw(st.sampled_from([source] * 3 + [1, 2, 3, 4, 5]))
        path = (head, *draw(st.lists(st.integers(1, 5), max_size=4)), 0)
        times = [float(draw(st.sampled_from([0, 0, 5, 10, 40])))]
        for delay in draw(
            st.lists(
                delays, min_size=len(path) - 1, max_size=len(path) - 1
            )
        ):
            times.append(times[-1] + delay)
        received.append(
            make_received(
                source, seqno, path, times, draw(st.integers(0, 80))
            )
        )
    return bundle_of(*received)


@settings(max_examples=5 * EXAMPLES, deadline=None)
@given(bundle=bundles(), config=configs, data=st.data())
def test_hand_built_bundles_build_as_the_per_row_oracle(bundle, config, data):
    ids = [p.packet_id for p in bundle.received]
    distrusted = data.draw(st.frozensets(st.sampled_from(ids)))
    assert_same_build(
        list(bundle.received), replace(config, distrusted_sum_ids=distrusted)
    )


def test_a_chain_tightens_pair_by_pair_in_pair_order():
    """Three packets leave node 1 along one path, so the structural rule
    resolves all three pairs; with an arrival margin the chain's bounds
    depend on applying them one by one in pair order (in reverse, the
    third packet's arrival bound comes out 1 ms lower)."""
    bundle = bundle_of(
        *(
            make_received(2 + i, 0, (2 + i, 1, 0), (i, 10.0 + i, 20.0 + i))
            for i in range(3)
        )
    )
    assert_same_build(
        list(bundle.received), ConstraintConfig(fifo_arrival_margin_ms=2.0)
    )


@pytest.mark.parametrize(
    "path, own_path, sum_of_delays",
    [
        ((3, 5, 0), (3, 1, 0), 20),
        ((3, 0), (3, 1, 0), 20),
        ((3, 3, 5, 0), (3, 1, 0), 20),
        ((3, 3, 0), (3, 0), 20),
        ((3, 3, 0), (3, 0), 40),
    ],
)
def test_a_candidate_whose_path_starts_off_its_source(
    path, own_path, sum_of_delays
):
    """A record of source 7 whose path starts at node 3 is a candidate of
    source 3's second packet with its generation, a known time, as the
    arrival at node 3: the row folds it into its bound, after the
    candidate's departure when that is known too (path ``(3, 0)``; the
    fractional times make the order show). With a self-loop at node 3
    the unknown terms of a single-hop packet's rows cancel: the oracle
    drops such a row, or refuses it when its bounds exclude 0 (S =
    20)."""
    times = [30.1 + 10.2 * hop for hop in range(len(path))]
    own_times = (60.0, 70.0, 80.0) if len(own_path) == 3 else (60.0, 80.0)
    bundle = bundle_of(
        make_received(3, 0, (3, 1, 0), (0.0, 10.0, 20.0), 5),
        make_received(7, 0, path, times),
        make_received(3, 1, own_path, own_times, sum_of_delays),
    )
    assert_same_build(list(bundle.received), ConstraintConfig())
