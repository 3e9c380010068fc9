"""Per-target sub-graph extraction (paper §IV.C, Fig. 4).

For a target arrival time, the extractor grows a BFS ball of the
configured *graph cut size* (criterion 1: predetermined vertex count;
criterion 2: BFS keeps the boundary far from the target), then tunes the
boundary with BLP so fewer constraints are cut. The extracted vertex set
plus the boundary's trivial intervals is what the bound LPs are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.graphcut.blp import BlpResult, refine_two_way
from repro.graphcut.graph import ConstraintGraph


@dataclass
class ExtractedSubgraph:
    """One extraction outcome."""

    target: Hashable
    inside: set
    cut_edges: int
    blp: BlpResult | None
    #: the BFS ball of the cut size around the target, in BFS order
    #: (empty when the sub-graph is the whole graph); a smaller ball
    #: around the target is a prefix of it.
    ball: list = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.inside)


#: maximum BLP rounds per extraction.
BLP_ROUNDS = 10


class SubgraphExtractor:
    """Extracts bound-computation sub-graphs around target vertices."""

    def __init__(
        self,
        graph: ConstraintGraph,
        cut_size: int = 10_000,
        use_blp: bool = True,
    ) -> None:
        """
        Args:
            graph: the constraint graph over unknown arrival times.
            cut_size: target number of vertices per sub-graph (the paper's
                *graph cut size*; its Fig. 10 sweeps 5000-20000).
            use_blp: tune the BFS boundary with balanced label propagation.
        """
        if cut_size < 1:
            raise ValueError("cut_size must be positive")
        self._graph = graph
        self._cut_size = cut_size
        self._use_blp = use_blp

    def extract(self, target: Hashable) -> ExtractedSubgraph:
        """Extract the sub-graph whose bounds will constrain ``target``."""
        graph = self._graph
        if target not in graph:
            raise KeyError(f"target {target!r} not in constraint graph")
        if graph.num_vertices <= self._cut_size:
            inside = set(graph.vertices())
            return ExtractedSubgraph(
                target=target, inside=inside, cut_edges=0, blp=None
            )

        ball = graph.bfs_ball(target, self._cut_size)
        seed = set(ball)
        if not self._use_blp:
            return ExtractedSubgraph(
                target=target,
                inside=seed,
                cut_edges=graph.cut_weight(seed),
                blp=None,
                ball=ball,
            )
        # The target and its BFS-closest tenth of the cut stay inside,
        # keeping the boundary away from the vertex being optimized.
        protected = max(1, self._cut_size // 10)
        result = refine_two_way(
            graph,
            seed,
            frozen=set(ball[:protected]),
            max_rounds=BLP_ROUNDS,
        )
        return ExtractedSubgraph(
            target=target,
            inside=result.inside,
            cut_edges=result.final_cut,
            blp=result,
            ball=ball,
        )
