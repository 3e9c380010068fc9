"""Lower/upper bounds of arrival times via sub-graph LPs (paper §IV.C).

For each unknown arrival time ``t`` Domo solves ``min t`` and ``max t``
subject to the three constraint families. Using every constraint in the
trace for every target would be quadratically expensive, so a sub-graph
of the constraint graph is extracted around the target (BFS seed of
*graph cut size* vertices, boundary tuned by BLP) and only constraints
among extracted vertices are used — constraints crossing the boundary are
*soundly relaxed* by replacing outside variables with their interval
endpoints, so the bounds remain valid (just possibly looser).

The path runs over the system's solver columns: the graph's vertices
are columns, a sub-graph's rows are found through a CSC copy of the
builder's matrix and projected onto it with numpy
(:func:`project_rows`), and each sub-graph's LP is assembled once,
without the rows its interval box already implies.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.constants import INF
from repro.core.constraints import ConstraintSystem, upper_sum_rows
from repro.core.records import ArrivalKey, spans
from repro.graphcut.extraction import SubgraphExtractor
from repro.graphcut.graph import ConstraintGraph
from repro.optim.lp import LinearProgram, solve_lp
from repro.optim.modeling import implied_rows

#: in batched mode one extraction serves every target inside its BFS core
#: of this fraction of the cut size (an amortization on top of the
#: paper's per-target scheme).
CORE_FRACTION = 0.25


@dataclass
class BoundsConfig:
    """Knobs of the bound computation."""

    #: the paper's *graph cut size* (Fig. 10 sweeps 5000-20000).
    graph_cut_size: int = 10_000
    #: tune the BFS boundary with balanced label propagation.
    use_blp: bool = True


@dataclass
class BoundResult:
    """Bounds of one arrival time, with provenance."""

    key: ArrivalKey
    lower: float
    upper: float
    #: "lp" (full solve), "lp_relaxed" (Eq. (6) dropped), "interval"
    #: (LP unusable; trivial/propagated interval), or "known".
    method: str = "lp"

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _spans(indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Positions of the entries of rows (CSR) or columns (CSC) ``ids``,
    span after span, each in storage order."""
    starts = indptr[ids]
    return spans(starts, indptr[ids + 1] - starts)


def project_rows(
    A: sp.csr_matrix,
    by_column: sp.csc_matrix,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    columns: np.ndarray,
) -> tuple[np.ndarray, sp.csr_matrix, np.ndarray, np.ndarray]:
    """Project the rows of ``row_lower <= A x <= row_upper`` onto a
    sub-graph, soundly relaxed.

    ``by_column`` is ``A`` in CSC form and ``columns`` the sub-graph's
    columns in ascending order; column ``columns[i]`` becomes local
    column ``i``. Rows touching no column are irrelevant. A row's terms
    outside the sub-graph are replaced by their worst cases over the box
    ``lows <= x <= highs``, which keeps every row valid for the true
    arrival times; each row's two slacks are summed in term order from
    0.0, as a loop over the row's terms would sum them. Rows left
    unbounded on both sides are dropped.

    Returns ``(rows, A_local, lower, upper)``: the kept rows' ids in
    ascending order and the projected rows in that order.
    """
    local_of = np.full(A.shape[1], -1, dtype=np.int64)
    local_of[columns] = np.arange(len(columns))
    rows = np.unique(by_column.indices[_spans(by_column.indptr, columns)])
    entries = _spans(A.indptr, rows)
    row_of = np.repeat(np.arange(len(rows)), np.diff(A.indptr)[rows])
    terms = A.indices[entries]
    coefficients = A.data[entries]
    local = local_of[terms]
    outside = local < 0

    at_low = coefficients[outside] * lows[terms[outside]]
    at_high = coefficients[outside] * highs[terms[outside]]
    slack_lo = np.bincount(
        row_of[outside], np.minimum(at_low, at_high), minlength=len(rows)
    )
    slack_hi = np.bincount(
        row_of[outside], np.maximum(at_low, at_high), minlength=len(rows)
    )
    lower = row_lower[rows]
    upper = row_upper[rows]
    lower = np.where(np.isfinite(lower), lower - slack_hi, -INF)
    upper = np.where(np.isfinite(upper), upper - slack_lo, INF)

    kept = (lower != -INF) | (upper != INF)
    inside = ~outside & kept[row_of]
    counts = np.bincount(row_of[inside], minlength=len(rows))[kept]
    A_local = sp.csr_matrix(
        (
            coefficients[inside],
            local[inside],
            np.concatenate(([0], np.cumsum(counts))),
        ),
        shape=(len(counts), len(columns)),
    )
    return rows[kept], A_local, lower[kept], upper[kept]


class BoundComputer:
    """Computes per-arrival-time bounds over one constraint system."""

    def __init__(
        self, system: ConstraintSystem, config: BoundsConfig | None = None
    ) -> None:
        self.system = system
        self.config = config or BoundsConfig()
        builder = system.builder
        self._A, self._row_lower, self._row_upper = builder.build(
            num_variables=system.num_unknowns
        )
        # column -> rows touching it, so a sub-graph's projection only
        # visits its own rows.
        self._by_column = self._A.tocsc()
        self._upper_sum = upper_sum_rows(builder)
        self._lows, self._highs = system.variable_bounds()
        self._low_array = np.asarray(self._lows)
        self._high_array = np.asarray(self._highs)
        self.graph = self._build_graph()
        self._extractor = SubgraphExtractor(
            self.graph,
            cut_size=self.config.graph_cut_size,
            use_blp=self.config.use_blp,
        )
        self._stats: dict[str, int] = {}

    @property
    def stats(self) -> dict:
        return dict(self._stats)

    def _build_graph(self) -> ConstraintGraph:
        """Vertices = unknown columns; a clique per builder row (§IV.C).

        Columns go in first, then each row's clique in row order. That
        order fixes neighbor and BFS order, and with them the extracted
        sub-graphs, so it must not change with the data structure. A row
        of one term adds nothing to a graph that has its column already,
        so only rows of two or more terms are visited.
        """
        graph = ConstraintGraph()
        for column in range(self.system.num_unknowns):
            graph.add_vertex(column)
        indptr, indices = self._A.indptr, self._A.indices.tolist()
        rows = np.flatnonzero(np.diff(indptr) > 1)
        starts, stops = indptr[rows].tolist(), indptr[rows + 1].tolist()
        for start, stop in zip(starts, stops):
            graph.add_clique(indices[start:stop])
        return graph

    # ------------------------------------------------------------------

    def bounds_for(self, key: ArrivalKey) -> BoundResult:
        """Bounds of one arrival time (knowns collapse to a point)."""
        if self.system.index.is_known(key):
            value = self.system.index.known_value(key)
            return BoundResult(key=key, lower=value, upper=value, method="known")
        column = self.system.variables.index_of(key)
        inside = self._extractor.extract(column).inside
        return self._solve_batch([key], inside)[key]

    def bounds_for_packet(self, packet_id) -> list[BoundResult]:
        """Bounds of every unknown arrival time of one packet."""
        return [
            self.bounds_for(key)
            for key in self.system.variables
            if key.packet_id == packet_id
        ]

    def bounds_for_all(
        self, keys: list[ArrivalKey] | None = None
    ) -> dict[ArrivalKey, BoundResult]:
        """Bounds of many (default: all) unknown arrival times.

        When the constraint graph exceeds the cut size, one extraction is
        reused for every still-uncovered target inside its BFS core
        (:data:`CORE_FRACTION` of the cut size) — the projected
        constraint rows are identical for all of them, so only the LP
        objective changes per target.
        """
        wanted = list(keys) if keys is not None else list(self.system.variables)
        if self.graph.num_vertices <= self.config.graph_cut_size:
            return self._solve_batch(wanted, range(self.system.num_unknowns))

        index_of = self.system.variables.index_of
        columns = [index_of(key) for key in wanted]
        core_size = max(1, int(self.config.graph_cut_size * CORE_FRACTION))
        results: dict[ArrivalKey, BoundResult] = {}
        for target, column in zip(wanted, columns):
            if target in results:
                continue
            extracted = self._extractor.extract(column)
            core = set(extracted.ball[:core_size]) & extracted.inside
            batch = [
                key
                for key, at in zip(wanted, columns)
                if key not in results and (key == target or at in core)
            ]
            results.update(self._solve_batch(batch, extracted.inside))
        return results

    # ------------------------------------------------------------------

    def _solve_batch(
        self, keys: list[ArrivalKey], inside: Collection[int]
    ) -> dict[ArrivalKey, BoundResult]:
        """Solve min/max LPs for several targets over one sub-graph
        (``inside``: its columns)."""
        columns = np.fromiter(inside, dtype=np.int64, count=len(inside))
        columns.sort()
        lows = self._low_array[columns]
        highs = self._high_array[columns]
        rows, A, lower, upper = project_rows(
            self._A,
            self._by_column,
            self._row_lower,
            self._row_upper,
            self._low_array,
            self._high_array,
            columns,
        )
        # The box is part of every LP, so the rows it implies change no
        # feasible set. The retry without the loss-unsafe Eq. (6) rows
        # gets its LP only when some target's full LP fails.
        needed = ~implied_rows(A, lower, upper, lows, highs)
        kept_rows = {
            "lp": needed,
            "lp_relaxed": needed & ~self._upper_sum[rows],
        }
        lps: dict[str, _BatchLP] = {}

        index_of = self.system.variables.index_of
        results: dict[ArrivalKey, BoundResult] = {}
        for key in keys:
            column = index_of(key)
            interval = (self._lows[column], self._highs[column])
            target_local = int(np.searchsorted(columns, column))
            entry = None
            for method, kept in kept_rows.items():
                if method not in lps:
                    lps[method] = _BatchLP(A, lower, upper, lows, highs, kept)
                outcome = lps[method].min_max(target_local)
                if outcome is None:
                    continue
                lower_bound = max(outcome[0], interval[0])
                upper_bound = min(outcome[1], interval[1])
                if lower_bound <= upper_bound:
                    entry = BoundResult(key, lower_bound, upper_bound, method)
                    break
            if entry is None:
                entry = BoundResult(key, interval[0], interval[1], "interval")
            self._stats[entry.method] = self._stats.get(entry.method, 0) + 1
            results[key] = entry
        return results


class _BatchLP:
    """A fixed feasible region; min/max of single coordinates on demand."""

    def __init__(self, A, lower, upper, lows, highs, rows: np.ndarray):
        self.n_local = A.shape[1]
        self.problem = LinearProgram(
            c=np.zeros(self.n_local),
            A=A[rows],
            row_lower=lower[rows],
            row_upper=upper[rows],
            x_lower=lows,
            x_upper=highs,
        )

    def min_max(self, target_local: int) -> tuple[float, float] | None:
        """(min, max) of one coordinate, or None when the LP fails."""
        c = np.zeros(self.n_local)
        c[target_local] = 1.0
        low = solve_lp(self.problem.with_objective(c))
        if not low.status.is_usable:
            return None
        high = solve_lp(self.problem.with_objective(-c))
        if not high.status.is_usable:
            return None
        return float(low.objective), float(-high.objective)
