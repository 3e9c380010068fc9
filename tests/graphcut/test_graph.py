"""Tests for the constraint graph structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import BoundComputer
from repro.core.constraints import build_constraints
from repro.core.pipeline import constraint_config_for
from repro.core.records import TraceIndex
from repro.core.validation import validate_packets
from repro.graphcut.graph import ConstraintGraph

from tests.core.test_golden_systems import TRACES


def _path_graph(n):
    g = ConstraintGraph()
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def test_counts():
    g = _path_graph(5)
    assert g.num_vertices == 5
    assert g.num_edges == 4


def test_add_edge_accumulates_weight():
    g = ConstraintGraph()
    g.add_edge("a", "b")
    g.add_edge("a", "b", weight=2)
    assert g.neighbors("a")["b"] == 3
    assert g.neighbors("b")["a"] == 3
    assert g.num_edges == 1


def test_self_loops_ignored():
    g = ConstraintGraph()
    g.add_edge("a", "a")
    assert g.num_edges == 0


def test_add_clique():
    g = ConstraintGraph()
    g.add_clique(["a", "b", "c"])
    assert g.num_edges == 3
    g.add_clique(["a", "b", "c"])  # reinforces weights
    assert g.neighbors("a")["b"] == 2


def test_add_clique_dedupes_members():
    g = ConstraintGraph()
    g.add_clique(["a", "a", "b"])
    assert g.num_edges == 1
    assert g.neighbors("a")["b"] == 1


def test_isolated_vertex():
    g = ConstraintGraph()
    g.add_vertex("lonely")
    assert "lonely" in g
    assert g.neighbors("lonely") == {}
    assert g.degree("lonely") == 0


def test_degree_is_weighted():
    g = ConstraintGraph()
    g.add_edge("a", "b", weight=2)
    g.add_edge("a", "c", weight=3)
    assert g.degree("a") == 5


def test_bfs_ball_order_and_cap():
    g = _path_graph(10)
    ball = g.bfs_ball(5, 5)
    assert ball[0] == 5
    assert len(ball) == 5
    assert set(ball) <= set(range(10))
    # BFS from the middle reaches both sides before distance-2 vertices.
    assert set(ball[1:3]) == {4, 6}


def test_bfs_ball_whole_component():
    g = _path_graph(4)
    assert set(g.bfs_ball(0, 100)) == {0, 1, 2, 3}


def test_bfs_ball_missing_vertex():
    g = _path_graph(3)
    with pytest.raises(KeyError):
        g.bfs_ball(99, 5)


def test_cut_weight():
    g = _path_graph(6)
    assert g.cut_weight({0, 1, 2}) == 1  # only edge (2, 3) crosses
    assert g.cut_weight({0, 2, 4}) == 5  # every edge crosses
    assert g.cut_weight(set(g.vertices())) == 0
    assert g.cut_weight(set()) == 0


@settings(max_examples=40, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
        max_size=40,
    ),
    inside_bits=st.integers(0, 2 ** 16 - 1),
)
def test_cut_weight_symmetry(edges, inside_bits):
    """cut(S) == cut(complement of S) for any vertex subset."""
    g = ConstraintGraph()
    for a, b in edges:
        g.add_edge(a, b)
    vertices = set(g.vertices())
    inside = {v for v in vertices if inside_bits >> v & 1}
    outside = vertices - inside
    assert g.cut_weight(inside) == g.cut_weight(outside)


def _reference_add_clique(graph, vertices):
    """``add_clique`` as it was before its one-pass form: one
    ``add_vertex``/``add_edge`` call per vertex and pair."""
    items = list(dict.fromkeys(vertices))
    for i, a in enumerate(items):
        graph.add_vertex(a)
        for b in items[i + 1:]:
            graph.add_edge(a, b)


def _graphs(vertices, rows):
    """The graph over ``vertices`` plus a clique per row, built with
    ``add_clique`` and with the reference."""
    graph, reference = ConstraintGraph(), ConstraintGraph()
    for vertex in vertices:
        graph.add_vertex(vertex)
        reference.add_vertex(vertex)
    for row in rows:
        graph.add_clique(row)
        _reference_add_clique(reference, row)
    return graph, reference


def _assert_same_graph(graph, reference):
    """Same vertex order, neighbor order, weights and BFS balls."""
    assert graph.vertices() == reference.vertices()
    for vertex in reference.vertices():
        assert list(graph.neighbors(vertex).items()) == list(
            reference.neighbors(vertex).items()
        )
        for size in (1, 3, 12, 40, reference.num_vertices):
            assert graph.bfs_ball(vertex, size) == reference.bfs_ball(
                vertex, size
            )


def _lossy_bound_system():
    """The lossy golden-system trace's system, built as
    ``DomoReconstructor.bounds`` builds it."""
    trace, config = TRACES["lossy"]()
    packets, report = validate_packets(list(trace.received), config.validation)
    return build_constraints(
        TraceIndex(packets, omega_ms=config.omega_ms),
        constraint_config_for(config, report),
    )


def test_add_clique_builds_the_reference_graph_of_a_bound_system():
    system = _lossy_bound_system()
    computer = BoundComputer(system)
    A, _, _ = system.builder.build(num_variables=system.num_unknowns)
    rows = [
        A.indices[start:stop].tolist()
        for start, stop in zip(A.indptr[:-1], A.indptr[1:])
    ]
    graph, reference = _graphs(range(system.num_unknowns), rows)
    assert reference.num_edges > reference.num_vertices
    _assert_same_graph(graph, reference)
    _assert_same_graph(computer.graph, reference)


def test_a_smaller_bfs_ball_is_a_prefix_of_a_larger_one():
    """Extraction slices its frozen set and the batching core from the
    cut-size ball, so each smaller ball must be that ball's prefix."""
    graph = BoundComputer(_lossy_bound_system()).graph
    for vertex in graph.vertices():
        for large in (40, graph.num_vertices):
            ball = graph.bfs_ball(vertex, large)
            for small in (1, 4, 10, 25, large):
                assert graph.bfs_ball(vertex, small) == ball[:small]


def test_add_clique_builds_the_reference_graph_of_hand_made_rows():
    """Repeated columns within a row, one-term rows, an empty row, and
    vertices first seen in a clique."""
    rows = [
        [3, 1, 3, 2],
        [5],
        [],
        [2, 7, 1, 7, 7],
        ["a", 1, "a"],
        [9, 5],
        [1, 2, 3, 5],
        [4],
    ]
    _assert_same_graph(*_graphs([0, 1, 2, 3], rows))
