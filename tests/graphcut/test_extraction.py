"""Tests for per-target sub-graph extraction."""

import numpy as np
import pytest

from repro.core.bounds import BoundComputer
from repro.graphcut.extraction import BLP_ROUNDS, SubgraphExtractor
from repro.graphcut.graph import ConstraintGraph

from tests.graphcut.test_blp import _refine_by_cut_weight
from tests.graphcut.test_graph import _lossy_bound_system


def _grid_graph(width, height):
    g = ConstraintGraph()
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                g.add_edge((x, y), (x + 1, y))
            if y + 1 < height:
                g.add_edge((x, y), (x, y + 1))
    return g


def test_small_graph_returned_whole():
    g = _grid_graph(3, 3)
    extractor = SubgraphExtractor(g, cut_size=100)
    result = extractor.extract((1, 1))
    assert result.size == 9
    assert result.cut_edges == 0


def test_extraction_contains_target_and_neighbors():
    g = _grid_graph(20, 20)
    extractor = SubgraphExtractor(g, cut_size=50)
    target = (10, 10)
    result = extractor.extract(target)
    assert target in result.inside
    for neighbor in g.neighbors(target):
        assert neighbor in result.inside
    assert 40 <= result.size <= 60


def test_blp_does_not_worsen_bfs_cut():
    g = _grid_graph(25, 25)
    target = (12, 12)
    plain = SubgraphExtractor(g, cut_size=80, use_blp=False).extract(target)
    tuned = SubgraphExtractor(g, cut_size=80, use_blp=True).extract(target)
    assert tuned.cut_edges <= plain.cut_edges


def test_blp_improves_cut_on_irregular_graph():
    """On a lumpy community graph, BLP should beat raw BFS on average."""
    rng = np.random.default_rng(1)
    g = ConstraintGraph()
    # 30 communities of 8, sparse random inter-community edges.
    for c in range(30):
        members = [(c, i) for i in range(8)]
        g.add_clique(members)
    for _ in range(60):
        a, b = rng.integers(0, 30, size=2)
        i, j = rng.integers(0, 8, size=2)
        g.add_edge((int(a), int(i)), (int(b), int(j)))
    plain_cuts, tuned_cuts = [], []
    for c in range(0, 30, 5):
        target = (c, 0)
        plain_cuts.append(
            SubgraphExtractor(g, cut_size=40, use_blp=False).extract(target).cut_edges
        )
        tuned_cuts.append(
            SubgraphExtractor(g, cut_size=40, use_blp=True).extract(target).cut_edges
        )
    assert sum(tuned_cuts) <= sum(plain_cuts)


def test_missing_target_raises():
    g = _grid_graph(3, 3)
    extractor = SubgraphExtractor(g, cut_size=5)
    with pytest.raises(KeyError):
        extractor.extract((99, 99))


def test_invalid_cut_size_rejected():
    with pytest.raises(ValueError):
        SubgraphExtractor(ConstraintGraph(), cut_size=0)


def test_larger_cut_sizes_include_smaller_balls():
    g = _grid_graph(20, 20)
    target = (5, 5)
    small = SubgraphExtractor(g, cut_size=20, use_blp=False).extract(target)
    large = SubgraphExtractor(g, cut_size=120, use_blp=False).extract(target)
    assert small.inside <= large.inside


@pytest.mark.parametrize("cut_size", [12, 40])
def test_extractions_match_one_bfs_per_ball(cut_size):
    """On the lossy golden trace's graph, every extraction equals the one
    made with a BFS per ball (the cut size, then a tenth of it for the
    frozen set) and a BLP judging each candidate with ``cut_weight``."""
    graph = BoundComputer(_lossy_bound_system()).graph
    assert graph.num_vertices > cut_size
    extractor = SubgraphExtractor(graph, cut_size=cut_size)
    for target in graph.vertices():
        extracted = extractor.extract(target)
        seed = graph.bfs_ball(target, cut_size)
        reference = _refine_by_cut_weight(
            graph,
            set(seed),
            frozen=set(graph.bfs_ball(target, max(1, cut_size // 10))),
            max_rounds=BLP_ROUNDS,
        )
        assert extracted.ball == seed
        assert extracted.blp == reference
        assert extracted.inside == reference.inside
        assert extracted.cut_edges == reference.final_cut
