"""Balanced Label Propagation (Ugander & Backstrom, WSDM'13), two-way form.

BLP improves a balanced partition by rounds of *label propagation with
balance constraints*: every vertex computes the gain (neighbors it would
join minus neighbors it would leave) of relocating to the other side, and
the round takes the best-gain candidates in each direction, as many as
keep the partition sizes within their configured bounds. The original
algorithm chooses those counts with a linear program over [0, 1] move
variables; in the two-partition form its one balance row has ±1
coefficients and integer sides, and with candidates sorted by decreasing
gain an optimum is a pair of prefix counts, found here in closed form
(:func:`_choose_move_counts`).

Domo uses the two-partition specialization (inside / outside of the
extracted sub-graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Hashable

from repro.graphcut.graph import ConstraintGraph


@dataclass
class BlpResult:
    """Outcome of a BLP refinement."""

    inside: set
    initial_cut: int
    final_cut: int
    rounds: int
    moves: int


def _relocation_gains(
    graph: ConstraintGraph, inside: set, frozen: set
) -> tuple[list[tuple[int, Hashable]], list[tuple[int, Hashable]], int]:
    """Per-direction candidate moves sorted by decreasing gain, and the
    cut weight of ``inside``.

    Only vertices on the boundary (with at least one cross edge) are
    candidates; interior vertices can never improve the cut by moving.
    The sorts are stable, so equal gains keep the order candidates were
    found in: ``inside``'s iteration order for out-moves and
    ``boundary_outside``'s for in-moves, which depends on the order its
    members were added (one ``add`` per cross edge, in neighbor order).
    The cut is the sum of every inside vertex's cross weight, frozen
    vertices included.
    """
    out_moves: list[tuple[int, Hashable]] = []  # inside -> outside
    in_moves: list[tuple[int, Hashable]] = []  # outside -> inside
    boundary_outside: set = set()
    cut = 0
    for vertex in inside:
        stay = cross = 0
        for neighbor, weight in graph.neighbors(vertex).items():
            if neighbor in inside:
                stay += weight
            else:
                cross += weight
                boundary_outside.add(neighbor)
        cut += cross
        if cross > 0 and vertex not in frozen:
            out_moves.append((cross - stay, vertex))
    for vertex in boundary_outside:
        if vertex in frozen:
            continue
        stay = cross = 0
        for neighbor, weight in graph.neighbors(vertex).items():
            if neighbor in inside:
                cross += weight
            else:
                stay += weight
        in_moves.append((cross - stay, vertex))
    out_moves.sort(key=lambda item: -item[0])
    in_moves.sort(key=lambda item: -item[0])
    return out_moves, in_moves, cut


def _choose_move_counts(
    out_gains: list[int],
    in_gains: list[int],
    inside_size: int,
    size_bounds: tuple[int, int],
) -> tuple[int, int]:
    """How many top-gain moves to take in each direction.

    maximize   sum of chosen gains
    subject to size_lo <= inside_size - moves_out + moves_in <= size_hi

    Both gain lists are sorted in decreasing order, so the best ``k``
    moves in one direction are its first ``k``, and the LP over [0, 1]
    move variables has an optimum at a pair of prefix counts. For each
    out-count the best in-count is the number of positive in-gains (the
    smallest maximizer of the in-prefix sums, which are concave),
    clamped into the counts the size bounds allow. Of the optimal pairs
    the one with the fewest out-moves, then the fewest in-moves, is
    returned; (0, 0) when no pair meets the size bounds.
    """
    lo, hi = size_bounds
    in_sums = list(accumulate(in_gains, initial=0))
    positive_in = sum(1 for gain in in_gains if gain > 0)
    best = None
    for moves_out, out_sum in enumerate(accumulate(out_gains, initial=0)):
        fewest = max(0, lo - inside_size + moves_out)
        most = min(len(in_gains), hi - inside_size + moves_out)
        if fewest > most:
            continue
        moves_in = min(max(positive_in, fewest), most)
        total = out_sum + in_sums[moves_in]
        if best is None or total > best[0]:
            best = (total, moves_out, moves_in)
    if best is None:
        return 0, 0
    return best[1], best[2]


def refine_two_way(
    graph: ConstraintGraph,
    inside: set,
    size_bounds: tuple[int, int] | None = None,
    frozen: set | None = None,
    max_rounds: int = 20,
) -> BlpResult:
    """Refine the inside/outside split to minimize cut edges.

    Args:
        graph: the constraint graph.
        inside: initial inside set (mutated copy is returned, input intact).
        size_bounds: (min, max) allowed inside sizes; defaults to +-10% of
            the initial size.
        frozen: vertices that may never change side (Domo pins the target
            arrival time and its immediate neighbors inside).
        max_rounds: propagation rounds before giving up.
    """
    inside = set(inside)
    frozen = frozen or set()
    if size_bounds is None:
        slack = max(1, len(inside) // 10)
        size_bounds = (len(inside) - slack, len(inside) + slack)

    # One sweep gives a partition's gains and its cut, so a candidate's
    # sweep both judges it and starts the next round.
    out_moves, in_moves, initial_cut = _relocation_gains(
        graph, inside, frozen
    )
    cut = initial_cut
    total_moves = 0
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        # Only nonnegative-gain prefixes can help; keep a small negative
        # margin so paired swaps (one +2, one -1) remain possible.
        out_moves = [m for m in out_moves if m[0] > -2]
        in_moves = [m for m in in_moves if m[0] > -2]
        moves_out, moves_in = _choose_move_counts(
            [g for g, _ in out_moves],
            [g for g, _ in in_moves],
            len(inside),
            size_bounds,
        )
        chosen_out = [v for _, v in out_moves[:moves_out]]
        chosen_in = [v for _, v in in_moves[:moves_in]]
        if not chosen_out and not chosen_in:
            break
        candidate = (inside - set(chosen_out)) | set(chosen_in)
        out_moves, in_moves, new_cut = _relocation_gains(
            graph, candidate, frozen
        )
        if new_cut >= cut:
            # Gains were computed against the pre-move partition; applying
            # many moves at once can interfere. Stop at a local optimum.
            break
        inside = candidate
        cut = new_cut
        total_moves += len(chosen_out) + len(chosen_in)
    return BlpResult(
        inside=inside,
        initial_cut=initial_cut,
        final_cut=cut,
        rounds=rounds,
        moves=total_moves,
    )
