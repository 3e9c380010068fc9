"""The constraint graph: unknown arrival times and their couplings."""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable


class ConstraintGraph:
    """Undirected multigraph over constraint variables.

    Vertices are variable keys (Domo uses ``(packet_id, hop)``); an edge's
    weight counts how many constraints couple the two endpoints. A thin
    purpose-built structure is faster here than a generic graph library
    for the two operations extraction needs: neighbor iteration and BFS.
    """

    def __init__(self) -> None:
        self._adjacency: dict[Hashable, dict[Hashable, int]] = {}

    @property
    def num_vertices(self) -> int:
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def vertices(self) -> list[Hashable]:
        return list(self._adjacency)

    def __contains__(self, vertex: Hashable) -> bool:
        return vertex in self._adjacency

    def add_vertex(self, vertex: Hashable) -> None:
        self._adjacency.setdefault(vertex, {})

    def add_edge(self, a: Hashable, b: Hashable, weight: int = 1) -> None:
        """Add (or reinforce) the edge between two distinct vertices."""
        if a == b:
            return
        self.add_vertex(a)
        self.add_vertex(b)
        self._adjacency[a][b] = self._adjacency[a].get(b, 0) + weight
        self._adjacency[b][a] = self._adjacency[b].get(a, 0) + weight

    def add_clique(self, vertices: Iterable[Hashable]) -> None:
        """Connect all pairs among ``vertices`` (one constraint row).

        New vertices are added in first-occurrence order, and each
        vertex's new neighbors in that order too, so neighbor order is
        first co-occurrence, row by row, in row term order.
        """
        items = list(dict.fromkeys(vertices))
        adjacency = self._adjacency
        for a in items:
            neighbors = adjacency.get(a)
            if neighbors is None:
                neighbors = adjacency[a] = {}
            for b in items:
                if b is not a:  # items are distinct objects
                    neighbors[b] = neighbors.get(b, 0) + 1

    def neighbors(self, vertex: Hashable) -> dict[Hashable, int]:
        """Neighbor -> edge weight mapping (empty for isolated/missing)."""
        return self._adjacency.get(vertex, {})

    def degree(self, vertex: Hashable) -> int:
        """Weighted degree of a vertex."""
        return sum(self._adjacency.get(vertex, {}).values())

    def bfs_ball(self, center: Hashable, max_size: int) -> list[Hashable]:
        """Vertices in breadth-first order from ``center``, capped at size."""
        if center not in self._adjacency:
            raise KeyError(f"vertex {center!r} not in graph")
        seen = {center}
        order = [center]
        frontier = deque([center])
        while frontier and len(order) < max_size:
            vertex = frontier.popleft()
            for neighbor in self._adjacency[vertex]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    order.append(neighbor)
                    frontier.append(neighbor)
                    if len(order) >= max_size:
                        break
        return order

    def cut_weight(self, inside: set) -> int:
        """Total weight of edges with exactly one endpoint in ``inside``."""
        total = 0
        for vertex in inside:
            for neighbor, weight in self._adjacency.get(vertex, {}).items():
                if neighbor not in inside:
                    total += weight
        return total
