"""Construction of Domo's three constraint families (paper §IV.A).

:func:`build_constraints` turns a :class:`TraceIndex` into a
:class:`ConstraintSystem`: sparse linear rows over the unknown arrival
times (known times folded in as constants) plus the list of *unresolved*
FIFO pairs kept for semidefinite relaxation.

FIFO handling. Eq. (1) — ``(t_ix(x) - t_iy(y)) (t_ix+1(x) - t_iy+1(y)) > 0``
— is non-convex. Two convexifications are supported:

* **resolved/linearized** (default): when the packets' arrival intervals
  at either hop are disjoint, the sign of both factors is determined, and
  Eq. (1) splits into two *linear* inequalities. Resolving tightens
  intervals, which resolves more pairs, so resolution iterates to a fixed
  point.
* **SDR**: pairs whose direction cannot be proven are returned in
  ``fifo_unresolved`` and handled by :mod:`repro.core.sdr` (Eq. (2)-(4)).

The build runs over the index's integer :class:`~repro.core.records.KeySpace`
and its arrays: FIFO pairs are three int arrays (lists in a window
under the size rule), and rows enter the builder as array blocks —
order rows, then FIFO rows, then sum rows. Two steps stay
sequential because their floats depend on order: the interval tightening
by resolved pairs, over two float lists in pair order, and each row's
fold of its known times into its bounds, in term order (``np.bincount``
adds in input order). Equal inputs so give bit-identical systems.
:class:`ArrivalKey`, :class:`FifoPair`, row objects and tag strings are
made only when a caller reads them through the system's views.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from repro.core.candidate import candidate_visits, seqno_gaps
from repro.core.intervals import (
    KeyIntervals,
    clip_to_valid,
    propagate_path_monotonicity,
    trivial_intervals,
)
from repro.core.records import ArrivalKey, KeySpace, TraceIndex
from repro.constants import INF
from repro.optim.modeling import ConstraintBuilder, Deferred, VariableRegistry


@dataclass(frozen=True)
class FifoPair:
    """One shared-node packet pair subject to Eq. (1).

    ``x_at`` / ``y_at`` are the arrival keys at the shared node ``node``;
    ``x_next`` / ``y_next`` at the respective next hops. ``direction`` is
    ``+1`` when x provably precedes y, ``-1`` for the converse, ``0`` when
    unresolved.
    """

    node: int
    x_at: ArrivalKey
    y_at: ArrivalKey
    x_next: ArrivalKey
    y_next: ArrivalKey
    direction: int = 0

    def keys(self) -> tuple[ArrivalKey, ArrivalKey, ArrivalKey, ArrivalKey]:
        return (self.x_at, self.y_at, self.x_next, self.y_next)


@dataclass
class ConstraintConfig:
    """Knobs of constraint construction."""

    #: minimum software processing delay per hop (paper's omega), ms.
    omega_ms: float = 1.0
    #: tolerance absorbed by the quantized S(p) field and clock drift, ms.
    sum_slack_ms: float = 2.0
    #: emit the loss-unsafe upper sum constraint Eq. (6)?
    use_upper_sum: bool = True
    #: Eq. (6) rows are skipped when C(p) exceeds this size (weak + dense).
    max_possible_set: int = 60
    #: generation-time horizon within which two packets sharing a node are
    #: examined as a FIFO pair, ms. Pairs further apart are resolved by
    #: their trivial intervals already.
    fifo_horizon_ms: float = 5_000.0
    #: each node visit is paired with at most this many successors (keeps
    #: pair counts linear on busy forwarders near the sink; more distant
    #: orderings follow transitively from the chained constraints).
    max_fifo_pairs_per_visit: int = 12
    #: minimum separation enforced between ordered same-node events, ms.
    #: The *arrival* margin applies when both packets were received over
    #: the radio (frames at one receiver cannot overlap, so successive
    #: receptions are at least one airtime apart); it must be 0 whenever a
    #: local generation is involved (generations can coincide with
    #: receptions). The *departure* margin applies to successive
    #: transmissions from one node (ack turnaround + backoff + airtime).
    #: Defaults are 0 (paper-faithful, substrate-agnostic); the experiment
    #: harness sets MAC-derived values for the simulator substrate.
    fifo_arrival_margin_ms: float = 0.0
    fifo_departure_margin_ms: float = 0.0
    #: rounds of resolve-then-propagate iteration.
    resolution_rounds: int = 3
    #: packet ids whose S(p) field was flagged by validation (wrapped,
    #: saturated, repaired): their Eq. (6)/(7) rows are skipped entirely —
    #: a corrupt sum poisons both directions.
    distrusted_sum_ids: frozenset = frozenset()
    #: constraint-level degradation: when True and the window shows loss
    #: evidence (seqno gaps, or quarantined packets upstream), the
    #: loss-unsafe Eq. (6) upper rows are suppressed, falling back to the
    #: C*(p)-only Eq. (7) form the paper guarantees under loss. Off by
    #: default (seed behavior); the pipeline turns it on when validation
    #: detects corruption.
    loss_aware_sums: bool = False


@dataclass
class ConstraintSystem:
    """The assembled constraint set over one packet collection.

    ``variables``, ``intervals`` and the FIFO lists are views over the
    integer build: their keys and pairs are made on first read.
    """

    index: TraceIndex
    variables: VariableRegistry
    builder: ConstraintBuilder
    intervals: KeyIntervals
    fifo_resolved: Sequence[FifoPair] = field(default_factory=list)
    fifo_unresolved: Sequence[FifoPair] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def num_unknowns(self) -> int:
        return len(self.variables)

    def term_index(self, key: ArrivalKey) -> int | None:
        """Column of an unknown key (None for known arrival times)."""
        return self.variables.get(key)

    def variable_bounds(self) -> tuple[list[float], list[float]]:
        """Per-variable interval bounds aligned with the registry order."""
        lows, highs = self.intervals.lows, self.intervals.highs
        unknown = self.index.key_space.unknown
        return [lows[k] for k in unknown], [highs[k] for k in unknown]


class KeyColumns(VariableRegistry):
    """The index's unknown keys in column order, made on first use."""

    def __init__(self, space: KeySpace) -> None:
        self._space = space

    def __len__(self) -> int:
        return len(self._space.unknown)

    @cached_property
    def _keys(self) -> list[ArrivalKey]:
        return self._space.arrival_keys(self._space.unknown)

    @cached_property
    def _index(self) -> dict[ArrivalKey, int]:
        return {key: column for column, key in enumerate(self._keys)}


# Row tags are stored as ``4 * argument + family`` and spelled out only
# when read: order rows carry the later key id, FIFO rows the node, sum
# rows the packet position.
_ORDER, _FIFO, _SUM_LO, _SUM_HI = range(4)


def _tag_name(space: KeySpace, code: int) -> str:
    argument, family = divmod(int(code), 4)
    if family == _ORDER:
        packet = space.packets[space.position_of_key[argument]]
        return f"order:{packet.packet_id}:{space.hop[argument]}"
    if family == _FIFO:
        return f"fifo:{argument}"
    prefix = "sum_lo" if family == _SUM_LO else "sum_hi"
    return f"{prefix}:{space.packets[argument].packet_id}"


def upper_sum_rows(builder: ConstraintBuilder) -> np.ndarray:
    """Mask of the loss-unsafe Eq. (6) rows (tag ``sum_hi``) of a builder
    :func:`build_constraints` filled, read from the integer tag codes."""
    return np.asarray(builder.tags, dtype=np.int64) % 4 == _SUM_HI


def build_constraints(
    index: TraceIndex, config: ConstraintConfig | None = None
) -> ConstraintSystem:
    """Assemble the full constraint system for the packets in ``index``."""
    config = config or ConstraintConfig()
    space = index.key_space
    lows, highs = trivial_intervals(index)
    builder = ConstraintBuilder(
        num_variables=len(space.unknown), tag_names=partial(_tag_name, space)
    )
    two_term_rows = _two_term_rows_loop if space.loop_sized else _two_term_rows
    pairs, resolved, inconsistent = two_term_rows(
        space, lows, highs, builder, config
    )
    sum_stats = _add_sum_rows(builder, index, config)
    inconsistent += sum_stats.pop("inconsistent_known_rows")
    stats: dict = {}
    if inconsistent:
        stats["inconsistent_known_rows"] = inconsistent
    stats.update(sum_stats)
    system = ConstraintSystem(
        index=index,
        variables=KeyColumns(space),
        builder=builder,
        intervals=KeyIntervals(space, lows, highs),
        fifo_resolved=Deferred(
            resolved, partial(_fifo_pairs, space, pairs, resolved=True)
        ),
        fifo_unresolved=Deferred(
            len(pairs[3]) - resolved,
            partial(_fifo_pairs, space, pairs, resolved=False),
        ),
        stats=stats,
    )
    stats.update(
        unknowns=len(space.unknown),
        rows=len(builder),
        fifo_resolved=len(system.fifo_resolved),
        fifo_unresolved=len(system.fifo_unresolved),
    )
    return system


def _fifo_pairs(
    space: KeySpace, pairs: tuple, resolved: bool
) -> list[FifoPair]:
    """The resolved or the unresolved pairs of ``(nodes, xs, ys,
    directions)`` as :class:`FifoPair` objects."""
    nodes, xs, ys, directions = map(np.asarray, pairs)
    chosen = ((directions != 0) == resolved).nonzero()[0]
    x, y = xs[chosen], ys[chosen]

    def keys(key_ids: np.ndarray) -> list[ArrivalKey]:
        return space.arrival_keys(key_ids.tolist())

    return [
        FifoPair(
            node=node,
            x_at=x_at,
            y_at=y_at,
            x_next=x_next,
            y_next=y_next,
            direction=direction,
        )
        for node, x_at, y_at, x_next, y_next, direction in zip(
            nodes[chosen].tolist(),
            keys(x),
            keys(y),
            keys(x + 1),
            keys(y + 1),
            directions[chosen].tolist(),
        )
    ]


# ----------------------------------------------------------------------
# FIFO pairs and the two-term rows: Eq. (5) order rows, then both hops
# of every resolved pair. A window under the size rule
# (``KeySpace.loop_sized``) takes them one at a time over the key
# space's lists, a larger one over its arrays; both share the
# sequential steps.
# ----------------------------------------------------------------------


def _two_term_rows(
    space: KeySpace,
    lows: list[float],
    highs: list[float],
    builder: ConstraintBuilder,
    config: ConstraintConfig,
) -> tuple[tuple, int, int]:
    """Enumerate and resolve the window's FIFO pairs, tightening the
    intervals, and add the order and FIFO rows.

    Returns the pairs as ``(nodes, xs, ys, directions)`` (a direction is
    ``+1`` when x provably precedes y, ``-1`` for the converse, ``0``
    when unresolved), how many were resolved and how many fully known
    rows broke their bound.
    """
    arrays = space.arrays
    nodes, xs, ys = arrays.visit_pairs(
        config.fifo_horizon_ms,
        config.max_fifo_pairs_per_visit,
        include_horizon=True,
    )
    # The arrival margin only applies when *both* packets physically
    # arrived at the node over the radio (a locally generated packet can
    # be timestamped at any instant); departures are always
    # transmissions.
    margins = np.where(
        np.minimum(arrays.hop[xs], arrays.hop[ys]) > 0,
        config.fifo_arrival_margin_ms,
        0.0,
    )
    departure = config.fifo_departure_margin_ms
    directions = np.zeros(len(xs), dtype=np.int64)
    propagate_path_monotonicity(space, lows, highs)
    pending = []
    if len(xs):
        # The structural rule (:func:`_path_suffix_ids`) for all pairs at
        # once; the pairs it resolves then tighten one by one.
        suffix = _path_suffix_ids(space.packets)
        same = suffix[xs] == suffix[ys]
        x, y = xs[same], ys[same]
        sink, position = arrays.sink, arrays.position_of_key
        forward = sink[position[x]] < sink[position[y]]
        directions[same] = np.where(forward, 1, -1)
        _tighten(
            np.where(forward, x, y).tolist(),
            np.where(forward, y, x).tolist(),
            margins[same].tolist(),
            departure,
            lows,
            highs,
        )
        propagate_path_monotonicity(space, lows, highs)
        if len(x) < len(xs):
            unresolved = (~same).nonzero()[0]
            pending = list(
                zip(
                    unresolved.tolist(),
                    xs[unresolved].tolist(),
                    ys[unresolved].tolist(),
                    margins[unresolved].tolist(),
                )
            )
    _resolution_rounds(space, pending, directions, lows, highs, config)
    inconsistent = _add_difference_rows(
        builder, space, nodes, xs, ys, directions, margins, config
    )
    resolved = int(np.count_nonzero(directions))
    return (nodes, xs, ys, directions), resolved, inconsistent


def _two_term_rows_loop(
    space: KeySpace,
    lows: list[float],
    highs: list[float],
    builder: ConstraintBuilder,
    config: ConstraintConfig,
) -> tuple[tuple, int, int]:
    """:func:`_two_term_rows` one pair and one row at a time, over lists.
    It makes no numpy call: on a served window one costs more than a
    loop step, and more again when caches are cold."""
    nodes, xs, ys = space.visit_pairs(
        config.fifo_horizon_ms,
        config.max_fifo_pairs_per_visit,
        include_horizon=True,
    )
    hop = space.hop
    margin = config.fifo_arrival_margin_ms
    margins = [
        margin if hop[x] > 0 and hop[y] > 0 else 0.0 for x, y in zip(xs, ys)
    ]
    departure = config.fifo_departure_margin_ms
    directions = [0] * len(xs)
    propagate_path_monotonicity(space, lows, highs)
    pending = []
    if xs:
        packets, position = space.packets, space.position_of_key
        for i, (x, y) in enumerate(zip(xs, ys)):
            px, py = packets[position[x]], packets[position[y]]
            if px.path[hop[x]:] != py.path[hop[y]:]:
                pending.append((i, x, y, margins[i]))
            elif px.sink_arrival_ms < py.sink_arrival_ms:
                directions[i] = 1
                _tighten([x], [y], [margins[i]], departure, lows, highs)
            else:
                directions[i] = -1
                _tighten([y], [x], [margins[i]], departure, lows, highs)
        propagate_path_monotonicity(space, lows, highs)
    _resolution_rounds(space, pending, directions, lows, highs, config)
    inconsistent = _add_difference_rows_loop(
        builder, space, hop, nodes, xs, ys, directions, margins, config
    )
    resolved = len(directions) - directions.count(0)
    return (nodes, xs, ys, directions), resolved, inconsistent


def _path_suffix_ids(packets) -> np.ndarray:
    """Per key id, an id of its packet's path from that hop to the sink:
    two keys share an id exactly when those node sequences are equal.

    The structural rule: when x and y follow the *same node sequence*
    from the shared node to the sink, per-hop FIFO preserves their order
    at every one of those hops, so the (known) sink arrival order is the
    departure order.
    """
    ids: dict[tuple[int, ...], int] = {}
    of_path: dict[tuple[int, ...], list[int]] = {}
    suffixes: list[int] = []
    for packet in packets:
        path = packet.path
        known = of_path.get(path)
        if known is None:
            known = of_path[path] = [
                ids.setdefault(path[hop:], len(ids))
                for hop in range(len(path))
            ]
        suffixes += known
    return np.array(suffixes, dtype=np.int64)


def _tighten(
    early: list[int],
    late: list[int],
    arrival_margins: list[float],
    departure_margin: float,
    lows: list[float],
    highs: list[float],
) -> None:
    """Tighten both legs' intervals with resolved orderings, pair by pair.

    Sequential on purpose: each pair reads the bounds the pairs before it
    left, so a chain e1 < e2 < e3 tightens as a loop over it does, not as
    all its orderings applied at once would.
    """
    for e, l, margin in zip(early, late, arrival_margins):
        bound = highs[l] - margin
        if bound < highs[e]:
            highs[e] = bound
        bound = lows[e] + margin
        if bound > lows[l]:
            lows[l] = bound
        e += 1
        l += 1
        bound = highs[l] - departure_margin
        if bound < highs[e]:
            highs[e] = bound
        bound = lows[e] + departure_margin
        if bound > lows[l]:
            lows[l] = bound


def _resolution_rounds(
    space: KeySpace,
    pending: list[tuple[int, int, int, float]],
    directions,
    lows: list[float],
    highs: list[float],
    config: ConstraintConfig,
) -> None:
    """Resolve the pairs the structural rule left open by their intervals.

    ``pending`` holds ``(pair, x, y, arrival margin)`` in pair order. A
    pair whose intervals are disjoint at either hop is resolved and
    tightens the intervals at once, which may resolve later pairs;
    rounds repeat, each followed by propagation and clipping, until one
    resolves nothing. Propagation and clipping are idempotent, so when
    the bounds did not move since the last of them, neither runs.
    """
    departure = config.fifo_departure_margin_ms
    if not clip_to_valid(lows, highs) and not pending:
        return
    for _ in range(max(1, config.resolution_rounds)):
        unresolved = []
        for pair in pending:
            i, x, y, margin = pair
            if highs[x] <= lows[y] or highs[x + 1] <= lows[y + 1]:
                directions[i] = 1
                _tighten([x], [y], [margin], departure, lows, highs)
            elif highs[y] <= lows[x] or highs[y + 1] <= lows[x + 1]:
                directions[i] = -1
                _tighten([y], [x], [margin], departure, lows, highs)
            else:
                unresolved.append(pair)
        progress = len(pending) - len(unresolved)
        pending = unresolved
        propagate_path_monotonicity(space, lows, highs)
        clip_to_valid(lows, highs)
        if progress == 0:
            break


def _add_difference_rows(
    builder: ConstraintBuilder,
    space: KeySpace,
    nodes: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    directions: np.ndarray,
    arrival_margins: np.ndarray,
    config: ConstraintConfig,
) -> int:
    """Add the rows ``t[late] - t[early] >= lower``: Eq. (5) for
    consecutive arrival times (separated by at least omega) in key order,
    then both hops of every resolved FIFO pair, pair by pair.

    Known arrival times fold into the bound as a loop over the row's two
    terms would fold them (late first, from 0.0); a row left without an
    unknown is checked and dropped. Returns how many of those broke
    their bound by more than 1e-6 (more than quantization noise).
    """
    arrays = space.arrays
    order = (arrays.hop > 0).nonzero()[0]
    resolved = directions.nonzero()[0]
    forward = directions[resolved] == 1
    x, y = xs[resolved], ys[resolved]
    legs = np.empty((len(resolved), 2))
    legs[:, 0] = arrival_margins[resolved]
    legs[:, 1] = config.fifo_departure_margin_ms
    late = np.concatenate(
        (order, (np.where(forward, y, x)[:, None] + (0, 1)).ravel())
    )
    early = np.concatenate(
        (order - 1, (np.where(forward, x, y)[:, None] + (0, 1)).ravel())
    )
    lower = np.concatenate(
        (np.full(len(order), config.omega_ms), legs.ravel())
    ) - (arrays.folded[late] - arrays.folded[early])
    c_late, c_early = arrays.column[late], arrays.column[early]
    # Each row's columns ascending: a known term's -1 sorts first and is
    # left out.
    columns = np.empty((len(late), 2), dtype=np.int64)
    np.minimum(c_late, c_early, out=columns[:, 0])
    np.maximum(c_late, c_early, out=columns[:, 1])
    entries = columns >= 0
    kept = entries[:, 1]
    tags = np.concatenate(
        (4 * order + _ORDER, (4 * nodes[resolved] + _FIFO).repeat(2))
    )
    builder.add_block(
        entries[kept, 0] + 1,
        columns[entries],
        np.where(columns == c_late[:, None], 1.0, -1.0)[entries],
        lower[kept],
        np.full(int(np.count_nonzero(kept)), INF),
        tags[kept],
    )
    return int(np.count_nonzero(lower[~kept] > 1e-6))


def _add_difference_rows_loop(
    builder: ConstraintBuilder,
    space: KeySpace,
    hop: list[int],
    nodes: list[int],
    xs: list[int],
    ys: list[int],
    directions: list[int],
    arrival_margins: list[float],
    config: ConstraintConfig,
) -> int:
    """:func:`_add_difference_rows` one row at a time."""
    column, value = space.column, space.value
    rows = [
        (key, key - 1, config.omega_ms, 4 * key + _ORDER)
        for key, at in enumerate(hop)
        if at
    ]
    departure = config.fifo_departure_margin_ms
    for node, x, y, direction, margin in zip(
        nodes, xs, ys, directions, arrival_margins
    ):
        if direction:
            early, late = (x, y) if direction == 1 else (y, x)
            tag = 4 * node + _FIFO
            rows.append((late, early, margin, tag))
            rows.append((late + 1, early + 1, departure, tag))
    counts, indices, data, lower, tags = [], [], [], [], []
    inconsistent = 0
    for late, early, bound, tag in rows:
        c_late, c_early = column[late], column[early]
        shift = 0.0
        if c_late < 0:
            shift += value[late]
        if c_early < 0:
            shift -= value[early]
        bound -= shift
        if c_late < 0 and c_early < 0:
            inconsistent += bound > 1e-6
            continue
        if c_late < 0:
            terms = ((c_early, -1.0),)
        elif c_early < 0:
            terms = ((c_late, 1.0),)
        elif c_early < c_late:
            terms = ((c_early, -1.0), (c_late, 1.0))
        else:
            terms = ((c_late, 1.0), (c_early, -1.0))
        counts.append(len(terms))
        for term in terms:
            indices.append(term[0])
            data.append(term[1])
        lower.append(bound)
        tags.append(tag)
    builder.add_block(counts, indices, data, lower, [INF] * len(lower), tags)
    return inconsistent


def _add_sum_rows(
    builder: ConstraintBuilder, index: TraceIndex, config: ConstraintConfig
) -> dict:
    """Eq. (6)/(7): bracket each S(p) by candidate-set delay sums.

    Degradation hooks (robustness tier): packets whose S(p) was flagged
    by validation contribute no sum rows at all; with ``loss_aware_sums``
    and loss evidence in the window, the loss-unsafe Eq. (6) rows are
    suppressed (C*(p)-only degradation). Both events are counted in the
    returned stats, as are the rows left without an unknown that broke
    their bounds.

    Rows come packet by packet, Eq. (7) before Eq. (6). Each sums
    ``D(p)`` and ``D = t[key + 1] - t[key]`` over its candidate visits,
    in that term order, and folds its known times into its bounds in
    that order from 0.0, as ``np.bincount`` adds them up. A row whose
    unknown terms all cancel is dropped, or raises when its bounds
    exclude 0, as :meth:`ConstraintBuilder.add` treats such a row.
    """
    space = index.key_space
    packets = space.packets
    distrusted = config.distrusted_sum_ids
    trusted = [p.packet_id not in distrusted for p in packets]
    stats = {
        "inconsistent_known_rows": 0,
        "sum_lower_rows": 0,
        "sum_upper_rows": 0,
        "sum_rows_distrusted": len(packets) - sum(trusted),
        "sum_upper_degraded": 0,
        "sum_unanchored": 0,
    }
    if len(set(space.source)) == len(packets):
        return stats  # no packet has a previous local packet
    arrays = space.arrays
    considered = (arrays.previous >= 0) & np.array(trusted, dtype=bool)
    gaps = seqno_gaps(space)
    offsets = arrays.offsets
    lengths = np.diff(offsets)
    anchored = (considered & ~gaps & (lengths >= 2)).nonzero()[0]
    rows, visits, guaranteed = candidate_visits(space, anchored)
    # Eq. (6): S(p) <= D(p) + sum over C(p). Only holds loss-free; kept
    # optional, size-capped, and suppressed under loss evidence.
    upper = np.zeros(len(anchored), dtype=bool)
    if config.use_upper_sum:
        upper = (
            np.bincount(rows, minlength=len(anchored))
            <= config.max_possible_set
        )
    degraded = 0
    if config.loss_aware_sums and np.count_nonzero(gaps):
        degraded = int(np.count_nonzero(upper))
        upper[:] = False
    # Eq. (7): S(p) >= D(p) + sum over C*(p). Always sound.
    lower_row = np.arange(len(anchored)) + upper.cumsum() - upper
    upper_row = lower_row[upper] + 1
    num_rows = len(anchored) + len(upper_row)
    is_lower = np.zeros(num_rows, dtype=bool)
    is_lower[lower_row] = True
    packet = np.empty(num_rows, dtype=np.int64)
    packet[lower_row] = anchored
    packet[upper_row] = anchored[upper]
    in_upper = upper[rows]
    candidate_row = np.concatenate(
        (lower_row[rows[guaranteed]], lower_row[rows[in_upper]] + 1)
    )
    candidate = np.concatenate((visits[guaranteed], visits[in_upper]))
    # A candidate's two terms, +t[key + 1] then -t[key]. Its departure is
    # known when it is a sink arrival; its arrival at N_0(p) when the
    # record's path starts there under another source's id.
    legs = np.empty((len(candidate), 2), dtype=np.int64)
    legs[:, 0] = candidate + 1
    legs[:, 1] = candidate
    legs = legs.ravel()
    leg_row = candidate_row.repeat(2)
    leg_sign = np.tile((1.0, -1.0), len(candidate))
    column = arrays.column
    known = column[legs] < 0
    # Known terms in term order: t[p@1] when it is p's sink arrival,
    # t[p@0], then the candidates' known terms.
    row = np.arange(num_rows)
    single_hop = lengths[packet] == 2
    shift = np.bincount(
        np.concatenate((row[single_hop], row, leg_row[known])),
        np.concatenate(
            (
                arrays.sink[packet[single_hop]],
                -arrays.t0[packet],
                leg_sign[known] * arrays.value[legs[known]],
            )
        ),
        minlength=num_rows,
    )
    # Unknown terms, merged per key, in column (= key) order.
    own = ~single_hop
    term_row = np.concatenate((row[own], leg_row[~known]))
    term_key = np.concatenate((offsets[packet[own]] + 1, legs[~known]))
    term_sign = np.concatenate(
        (np.ones(int(np.count_nonzero(own))), leg_sign[~known])
    )
    combined = term_row * len(column) + term_key
    order = combined.argsort(kind="stable")
    combined = combined[order]
    distinct = np.ones(len(combined), dtype=bool)
    np.not_equal(combined[1:], combined[:-1], out=distinct[1:])
    coefficients = np.bincount(distinct.cumsum() - 1, term_sign[order])
    combined = combined[distinct]
    has_keys = np.zeros(num_rows, dtype=bool)
    has_keys[combined // len(column)] = True
    nonzero = coefficients != 0.0
    term_row, term_key = np.divmod(combined[nonzero], len(column))
    has_terms = np.zeros(num_rows, dtype=bool)
    has_terms[term_row] = True

    sums = np.array(
        [packets[i].sum_of_delays_ms for i in packet.tolist()], dtype=float
    )
    lower = np.where(is_lower, -INF, sums - config.sum_slack_ms - shift)
    upper_bound = np.where(is_lower, sums + config.sum_slack_ms - shift, INF)
    cancelled = has_keys & ~has_terms
    if cancelled.any() and np.any(
        (lower[cancelled] > 0.0) | (upper_bound[cancelled] < 0.0)
    ):
        raise ValueError("constant row is infeasible")
    builder.add_block(
        np.bincount(term_row, minlength=num_rows)[has_terms],
        column[term_key],
        coefficients[nonzero],
        lower[has_terms],
        upper_bound[has_terms],
        (4 * packet + np.where(is_lower, _SUM_LO, _SUM_HI))[has_terms],
    )
    constant = ~has_keys
    stats.update(
        inconsistent_known_rows=int(
            np.count_nonzero(
                (lower[constant] > 1e-6) | (upper_bound[constant] < -1e-6)
            )
        ),
        sum_lower_rows=len(anchored),
        sum_upper_rows=len(upper_row),
        sum_upper_degraded=degraded,
        sum_unanchored=int(np.count_nonzero(considered & gaps)),
    )
    return stats
