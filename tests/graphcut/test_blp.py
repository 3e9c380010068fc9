"""Tests for balanced label propagation refinement."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphcut.blp import (
    BlpResult,
    _choose_move_counts,
    _relocation_gains,
    refine_two_way,
)
from repro.graphcut.graph import ConstraintGraph
from repro.optim.lp import LinearProgram, solve_lp


def _two_cliques(k=6, bridge_edges=1):
    """Two k-cliques joined by a few bridge edges: an obvious best cut."""
    g = ConstraintGraph()
    left = [f"L{i}" for i in range(k)]
    right = [f"R{i}" for i in range(k)]
    g.add_clique(left)
    g.add_clique(right)
    for i in range(bridge_edges):
        g.add_edge(left[i], right[i])
    return g, set(left), set(right)


def test_refine_fixes_a_bad_split():
    g, left, right = _two_cliques()
    # Start with a deliberately wrong partition: one right vertex swapped in.
    bad = (left - {"L0"}) | {"R0"}
    result = refine_two_way(g, bad, size_bounds=(5, 7))
    assert result.final_cut <= result.initial_cut
    assert result.final_cut <= g.cut_weight(left)


def test_refine_keeps_perfect_split():
    g, left, _ = _two_cliques(bridge_edges=1)
    result = refine_two_way(g, left)
    assert result.inside == left
    assert result.final_cut == 1


def test_frozen_vertices_never_move():
    g, left, right = _two_cliques()
    bad = (left - {"L0"}) | {"R0"}
    result = refine_two_way(
        g, bad, size_bounds=(5, 7), frozen={"R0"}
    )
    assert "R0" in result.inside


def test_size_bounds_respected():
    g, left, right = _two_cliques(k=8)
    start = set(list(left)[:4]) | set(list(right)[:4])
    result = refine_two_way(g, start, size_bounds=(7, 9))
    assert 7 <= len(result.inside) <= 9


def test_cut_never_increases():
    rng = np.random.default_rng(0)
    g = ConstraintGraph()
    n = 40
    for _ in range(120):
        a, b = rng.integers(0, n, size=2)
        g.add_edge(int(a), int(b))
    for trial in range(5):
        inside = {int(v) for v in rng.choice(n, size=20, replace=False)
                  if v in set(g.vertices())}
        inside = {v for v in inside if v in g}
        if not inside:
            continue
        result = refine_two_way(g, inside)
        assert result.final_cut <= result.initial_cut


def test_empty_boundary_terminates_immediately():
    g = ConstraintGraph()
    g.add_clique(["a", "b", "c"])
    g.add_vertex("iso")
    result = refine_two_way(g, {"a", "b", "c"}, size_bounds=(2, 4))
    assert result.final_cut == 0


def test_input_set_not_mutated():
    g, left, _ = _two_cliques()
    original = set(left)
    refine_two_way(g, left)
    assert left == original


def _lp_move_counts(
    out_gains: list[int],
    in_gains: list[int],
    inside_size: int,
    size_bounds: tuple[int, int],
) -> tuple[int, int]:
    """LP: how many top-gain moves to take in each direction.

    maximize   sum of chosen gains
    subject to size_lo <= inside_size - moves_out + moves_in <= size_hi

    Each candidate is a [0, 1] variable with its gain as the objective;
    sorted gains make the fractional optimum integral up to one split
    candidate, which rounding toward feasibility handles.
    """
    n_out, n_in = len(out_gains), len(in_gains)
    if n_out + n_in == 0:
        return 0, 0
    c = -np.array([float(g) for g in out_gains] + [float(g) for g in in_gains])
    balance_row = np.concatenate([-np.ones(n_out), np.ones(n_in)])
    lo, hi = size_bounds
    problem = LinearProgram(
        c=c,
        A=sp.csr_matrix(balance_row.reshape(1, -1)),
        row_lower=np.array([lo - inside_size], dtype=float),
        row_upper=np.array([hi - inside_size], dtype=float),
        x_lower=np.zeros(n_out + n_in),
        x_upper=np.ones(n_out + n_in),
    )
    result = solve_lp(problem)
    if not result.status.is_usable:
        return 0, 0
    z = result.x
    moves_out = int(round(float(np.sum(z[:n_out]))))
    moves_in = int(round(float(np.sum(z[n_out:]))))
    # Re-impose the balance bounds after rounding.
    while inside_size - moves_out + moves_in < lo and moves_out > 0:
        moves_out -= 1
    while inside_size - moves_out + moves_in > hi and moves_in > 0:
        moves_in -= 1
    return moves_out, moves_in


def _optimal_pairs(out_gains, in_gains, inside_size, size_bounds):
    """Brute force: (best total, optimal pairs in lexicographic order)
    over every feasible pair of prefix counts; (None, []) if none is."""
    lo, hi = size_bounds
    best, pairs = None, []
    for moves_out in range(len(out_gains) + 1):
        for moves_in in range(len(in_gains) + 1):
            if not lo <= inside_size - moves_out + moves_in <= hi:
                continue
            total = sum(out_gains[:moves_out]) + sum(in_gains[:moves_in])
            if best is None or total > best:
                best, pairs = total, [(moves_out, moves_in)]
            elif total == best:
                pairs.append((moves_out, moves_in))
    return best, pairs


#: gains as ``refine_two_way`` passes them: at least -1, sorted in
#: decreasing order, with many zeros and repeats.
_gains = st.lists(
    st.one_of(st.sampled_from([-1, 0, 0, 1, 2]), st.integers(-1, 90)),
    max_size=40,
).map(lambda gains: sorted(gains, reverse=True))


@settings(deadline=None)
@given(
    out_gains=_gains,
    in_gains=_gains,
    inside_size=st.integers(0, 80),
    lo_offset=st.integers(-45, 45),
    width=st.integers(-2, 20),
)
def test_move_counts_are_the_least_optimal_prefix_pair(
    out_gains, in_gains, inside_size, lo_offset, width
):
    """The closed form against the LP it replaced and a brute force:
    a feasible pair at the LP's optimum, the lexicographically smallest
    optimal one, and (0, 0) exactly when no pair is feasible."""
    bounds = (inside_size + lo_offset, inside_size + lo_offset + width)
    moves_out, moves_in = _choose_move_counts(
        out_gains, in_gains, inside_size, bounds
    )
    best, pairs = _optimal_pairs(out_gains, in_gains, inside_size, bounds)
    ref_out, ref_in = _lp_move_counts(out_gains, in_gains, inside_size, bounds)
    if not pairs:
        assert (moves_out, moves_in) == (ref_out, ref_in) == (0, 0)
        return
    assert bounds[0] <= inside_size - moves_out + moves_in <= bounds[1]
    total = sum(out_gains[:moves_out]) + sum(in_gains[:moves_in])
    assert total == sum(out_gains[:ref_out]) + sum(in_gains[:ref_in]) == best
    assert (moves_out, moves_in) == pairs[0]


def test_move_counts_pin_the_tie_rule():
    """A Fig. 10 sweep instance with tied optima: (6, 6) ties (6, 4), and
    the fewer in-moves win."""
    out_gains = [72, 71, 57, 51, 38, 14, -1]
    in_gains = [10, 8, 3, 1, 0, 0]
    _, pairs = _optimal_pairs(out_gains, in_gains, 60, (54, 66))
    assert (6, 6) in pairs
    assert _choose_move_counts(out_gains, in_gains, 60, (54, 66)) == (6, 4)


def _refine_by_cut_weight(
    graph, inside, size_bounds=None, frozen=None, max_rounds=20
):
    """``refine_two_way`` as it was before a candidate's sweep judged it:
    ``cut_weight`` before the first round and on every candidate."""
    inside = set(inside)
    frozen = frozen or set()
    if size_bounds is None:
        slack = max(1, len(inside) // 10)
        size_bounds = (len(inside) - slack, len(inside) + slack)

    initial_cut = graph.cut_weight(inside)
    cut = initial_cut
    total_moves = 0
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        out_moves, in_moves, _ = _relocation_gains(graph, inside, frozen)
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
        new_cut = graph.cut_weight(candidate)
        if new_cut >= cut:
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


@settings(deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=80
    ),
    inside_bits=st.integers(1, 2 ** 24 - 1),
    frozen_bits=st.integers(0, 2 ** 24 - 1),
    max_rounds=st.integers(1, 6),
)
def test_refine_matches_the_cut_weight_loop(
    edges, inside_bits, frozen_bits, max_rounds
):
    """The cut a gain sweep sums is the one ``cut_weight`` gives, so the
    refinement keeps its partition, cuts, rounds and moves."""
    g = ConstraintGraph()
    for v in range(24):
        g.add_vertex(v)
    for a, b in edges:
        g.add_edge(a, b)
    inside = {v for v in range(24) if inside_bits >> v & 1}
    frozen = {v for v in inside if frozen_bits >> v & 1}
    _, _, cut = _relocation_gains(g, inside, frozen)
    assert cut == g.cut_weight(inside)
    result = refine_two_way(g, inside, frozen=frozen, max_rounds=max_rounds)
    assert result == _refine_by_cut_weight(
        g, inside, frozen=frozen, max_rounds=max_rounds
    )
