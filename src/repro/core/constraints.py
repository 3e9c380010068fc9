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

The build runs over the index's integer :class:`~repro.core.records.KeySpace`:
intervals are two float lists, FIFO pairs three int lists, and rows go
straight into the builder's CSR lists — order rows, then FIFO rows, then
sum rows, each folding its known times into its bounds term by term, so
equal inputs give bit-identical systems. :class:`ArrivalKey`,
:class:`FifoPair`, row objects and tag strings are made only when a
caller reads them through the system's views.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from repro.core.candidate import candidate_keys, loss_evidence
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
        return [self._space.arrival_key(k) for k in self._space.unknown]

    @cached_property
    def _index(self) -> dict[ArrivalKey, int]:
        return {key: column for column, key in enumerate(self._keys)}


# Row tags are stored as ``4 * argument + family`` and spelled out only
# when read: order rows carry the later key id, FIFO rows the node, sum
# rows the packet position.
_ORDER, _FIFO, _SUM_LO, _SUM_HI = range(4)


def _tag_name(space: KeySpace, code: int) -> str:
    argument, family = divmod(code, 4)
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
    builder = ConstraintBuilder(
        num_variables=len(space.unknown), tag_names=partial(_tag_name, space)
    )
    stats: dict = {}
    rows = _RowWriter(space, builder, stats)
    _add_order_rows(rows, space, config)
    _add_fifo_rows(rows, nodes, xs, ys, directions, arrival_margins, config)
    _add_sum_rows(rows, index, config)

    def pairs(resolved: bool) -> Deferred:
        chosen = [i for i, d in enumerate(directions) if (d != 0) == resolved]
        return Deferred(
            len(chosen),
            partial(_fifo_pairs, space, nodes, xs, ys, directions, chosen),
        )

    system = ConstraintSystem(
        index=index,
        variables=KeyColumns(space),
        builder=builder,
        intervals=KeyIntervals(space, lows, highs),
        fifo_resolved=pairs(resolved=True),
        fifo_unresolved=pairs(resolved=False),
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
    space: KeySpace,
    nodes: list[int],
    xs: list[int],
    ys: list[int],
    directions: list[int],
    chosen: list[int],
) -> list[FifoPair]:
    """The chosen pairs as :class:`FifoPair` objects."""
    key = space.arrival_key
    return [
        FifoPair(
            node=nodes[i],
            x_at=key(xs[i]),
            y_at=key(ys[i]),
            x_next=key(xs[i] + 1),
            y_next=key(ys[i] + 1),
            direction=directions[i],
        )
        for i in chosen
    ]


# ----------------------------------------------------------------------
# FIFO pair resolution
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# Row emission
# ----------------------------------------------------------------------


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
