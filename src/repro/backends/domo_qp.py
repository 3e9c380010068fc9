"""The default backend: minimum delay variance (paper Eq. (8)).

Within a short period, the sojourn times of packets crossing the *same*
node are similar, so Domo picks — among all arrival-time assignments
satisfying the constraints — the one minimizing

    sum over nodes n, packet pairs (x, y) through n with |t0 diff| < eps
        of  (D_n(x) - D_n(y))^2 .

That objective is a convex quadratic in the unknown arrival times; with
the order/sum/resolved-FIFO rows it is a QP solved by
:func:`repro.optim.qp.solve_qp`. A tiny Tikhonov pull toward the interval
midpoints selects a canonical solution when the variance objective alone
is indifferent (e.g. packets with no epsilon-neighbor). Rows with two or
more unknowns that the interval box already implies stay in the window's
system but are left out of the QP (:func:`droppable_rows`). A window with
few unknowns (:func:`~repro.optim.linalg.is_dense_size`) assembles its
QP as dense arrays, larger ones as CSC; both hold the same entries.

This module is the historical ``repro.core.estimator`` moved behind the
:class:`~repro.backends.base.EstimatorBackend` contract;
:class:`DomoQpBackend` dispatches bit-identically to the pre-refactor
executor (empty window -> ``{}``, ``fifo_mode="sdr"`` under the unknown
cap -> SDR lift, else the linearized QP). The pair and form helpers
work over the window's integer key ids and are shared with the SDR lift.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.backends.base import (
    BackendCapabilities,
    EstimatorBackend,
    WindowSolution,
)
from repro.core.constraints import ConstraintSystem
from repro.core.records import ArrivalKey, KeySpace
from repro.optim.linalg import is_dense_size
from repro.optim.modeling import CsrArrays, implied_rows
from repro.optim.qp import QPProblem, QPSettings, solve_qp
from repro.optim.result import SolverError, SolverResult


@dataclass
class EstimatorConfig:
    """Knobs of the Eq. (8) objective and its solve.

    Raises:
        ValueError: ``"epsilon_ms must be > 0"`` when the pairing
            horizon is zero or negative (an empty objective, silently,
            otherwise), and ``"max_pairs_per_visit must be >= 0"`` for a
            negative pair cap. ``max_pairs_per_visit=0`` is legal: it
            disables pairing and leaves only the anchor objective.
    """

    #: the paper's epsilon: pairing horizon on generation times, ms.
    epsilon_ms: float = 1000.0
    #: each node visit is paired with at most this many successors within
    #: epsilon (keeps the Hessian sparse on busy forwarders).
    max_pairs_per_visit: int = 6
    #: weight of the pull toward interval midpoints (solution selection).
    anchor_weight: float = 1e-6
    qp: QPSettings = field(default_factory=QPSettings)

    def __post_init__(self) -> None:
        if self.epsilon_ms <= 0:
            raise ValueError(
                f"epsilon_ms must be > 0, got {self.epsilon_ms!r}"
            )
        if self.max_pairs_per_visit < 0:
            raise ValueError(
                "max_pairs_per_visit must be >= 0, got "
                f"{self.max_pairs_per_visit!r}"
            )


def objective_pairs(
    system: ConstraintSystem, config: EstimatorConfig
) -> tuple[Sequence[int], Sequence[int], Sequence[int]]:
    """The pairs entering the objective as ``(nodes, xs, ys)``: x and y
    arrive at the node at key ids ``x`` and ``y``, t0 gap below epsilon.
    Lists when the window's build took the loop kernels, else arrays."""
    space = system.index.key_space
    kernel = space if space.loop_sized else space.arrays
    return kernel.visit_pairs(
        config.epsilon_ms, config.max_pairs_per_visit, include_horizon=False
    )


def enumerate_pairs(
    system: ConstraintSystem, config: EstimatorConfig
) -> list[tuple[int, ArrivalKey, ArrivalKey, ArrivalKey, ArrivalKey]]:
    """Pairs (node, x@h, x@h+1, y@h, y@h+1) entering the objective."""
    nodes, xs, ys = objective_pairs(system, config)
    key = system.index.key_space.arrival_key
    return [
        (node, key(x), key(x + 1), key(y), key(y + 1))
        for node, x, y in zip(nodes, xs, ys)
    ]


def linear_form(
    space: KeySpace,
    keys: tuple[int, ...],
    coefficients: tuple[float, ...],
    t_ref: float,
    scale: float = 1.0,
) -> tuple[list[int], list[float], float]:
    """Split a linear form over key ids into (columns, coeffs, constant).

    Known arrival times fold into the constant, term by term, expressed
    in the shifted and scaled frame ``(t - t_ref) / scale`` used for
    conditioning.
    """
    columns: list[int] = []
    kept: list[float] = []
    constant = 0.0
    for key, coefficient in zip(keys, coefficients):
        column = space.column[key]
        if column < 0:
            constant += coefficient * (space.value[key] - t_ref) / scale
        else:
            columns.append(column)
            kept.append(coefficient)
    return columns, kept, constant


#: D_n(x) - D_n(y) = t[x+1] - t[x] - t[y+1] + t[y], in this term order.
PAIR_COEFFICIENTS = (1.0, -1.0, -1.0, 1.0)


def pair_form(
    space: KeySpace, x: int, y: int, t_ref: float, scale: float = 1.0
) -> tuple[list[int], list[float], float]:
    """:func:`linear_form` of one pair's delay difference."""
    return linear_form(
        space, (x + 1, x, y + 1, y), PAIR_COEFFICIENTS, t_ref, scale
    )


def pair_objective(
    space: KeySpace, xs: list[int], ys: list[int], n: int, t_ref: float
) -> tuple[np.ndarray | sp.csc_matrix, np.ndarray]:
    """``P`` and ``q`` of the sum over pairs of ``(D_n(x) - D_n(y))^2``.

    Each pair is :func:`pair_form` of ``x`` and ``y`` (frame ``t - t_ref``)
    and a row of the difference matrix D, so P is ``2 D'D``: its entries
    are sums of +-2, exact in any order, so the dense P of a small window
    (:func:`~repro.optim.linalg.is_dense_size`) equals the CSC P of a
    larger one entry for entry. Known times fold into each pair's
    constant in :func:`pair_form`'s term order (an unknown term adds +0.0,
    which leaves a sum that starts at +0.0 unchanged), and ``(a'x + c)^2``
    adds ``2*c*a`` to q, accumulated in pair order, so P and q are
    bit-identical to a term-by-term assembly. Pairs with no unknown add
    nothing.
    """
    keys = np.array([xs, xs, ys, ys], dtype=np.int64).T + (1, 0, 1, 0)
    columns = space.arrays.column[keys]
    unknown = columns >= 0
    coefficients = np.broadcast_to(PAIR_COEFFICIENTS, keys.shape)
    folded = np.where(
        unknown, 0.0, coefficients * (space.arrays.value[keys] - t_ref)
    )
    constant = 0.0 + folded[:, 0] + folded[:, 1] + folded[:, 2] + folded[:, 3]
    if is_dense_size(n):
        # Pairs with no unknown leave zero rows, which add nothing.
        D = np.zeros((len(keys), n))
        np.add.at(
            D, (np.nonzero(unknown)[0], columns[unknown]), coefficients[unknown]
        )
        P = 2.0 * (D.T @ D)
    else:
        counts = unknown.sum(axis=1)
        indptr = np.concatenate(([0], np.cumsum(counts[counts > 0])))
        D = sp.csr_matrix(
            (coefficients[unknown], columns[unknown], indptr),
            shape=(len(indptr) - 1, n),
        )
        P = (2.0 * (D.T @ D)).tocsc()
        P.sort_indices()
    q = np.zeros(n)
    np.add.at(
        q, columns[unknown], ((2.0 * constant)[:, None] * coefficients)[unknown]
    )
    return P, q


def droppable_rows(
    A: CsrArrays | sp.csr_matrix,
    lower: np.ndarray,
    upper: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
) -> np.ndarray:
    """Mask of the rows of ``lower <= A x <= upper`` the Eq. (8) QP leaves out.

    A row is left out when the box ``lows <= x <= highs``, which the QP
    also enforces, implies it (:func:`~repro.optim.modeling.implied_rows`)
    and it has two or more unknowns. Single-unknown rows are kept even
    when implied: each repeats a box row and so doubles that coordinate's
    weight in the ADMM penalty, and the loose stopping tolerance makes the
    estimates depend on that weight.
    """
    implied = implied_rows(A, lower, upper, lows, highs)
    return (np.diff(A.indptr) >= 2) & implied


def _stack_box(
    A: CsrArrays | sp.csr_matrix, keep: np.ndarray
) -> np.ndarray | sp.csr_matrix:
    """The rows of ``A`` marked in ``keep`` above one identity row per
    column (the interval box), built from ``A``'s arrays: dense for a
    small window (:func:`~repro.optim.linalg.is_dense_size`), else CSR."""
    n = A.shape[1]
    counts = np.diff(A.indptr)
    entries = np.repeat(keep, counts)
    ends = np.cumsum(counts[keep])
    box_ends = (ends[-1] if len(ends) else 0) + np.arange(1, n + 1)
    data = np.concatenate((A.data[entries], np.ones(n)))
    indices = np.concatenate((A.indices[entries], np.arange(n)))
    indptr = np.concatenate(([0], ends, box_ends))
    shape = (len(ends) + n, n)
    if is_dense_size(n):
        stacked = np.zeros(shape)
        rows = np.repeat(np.arange(shape[0]), np.diff(indptr))
        np.add.at(stacked, (rows, indices), data)
        return stacked
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def estimate_arrival_times(
    system: ConstraintSystem,
    config: EstimatorConfig | None = None,
) -> dict[ArrivalKey, float]:
    """Solve the Eq. (8) QP for every unknown arrival time in ``system``.

    Returns estimates for all unknown keys (knowns are not included).
    Raises :class:`~repro.optim.result.SolverError` when the QP solver
    cannot reach a usable point.
    """
    estimates, _ = estimate_arrival_times_info(system, config)
    return estimates


def estimate_arrival_times_info(
    system: ConstraintSystem,
    config: EstimatorConfig | None = None,
) -> tuple[dict[ArrivalKey, float], SolverResult | None]:
    """Like :func:`estimate_arrival_times`, also returning the solver result.

    The second element carries the QP's iteration count, residuals and
    solve time for telemetry; it is ``None`` for the trivial zero-unknown
    window (no solve happens).
    """
    config = config or EstimatorConfig()
    n = system.num_unknowns
    if n == 0:
        return {}, None

    lows, highs = system.variable_bounds()
    lows = np.asarray(lows)
    highs = np.asarray(highs)
    t_ref = float(np.min(lows))
    midpoints = 0.5 * (lows + highs) - t_ref

    # --- objective: sum of squared delay differences -------------------
    _, xs, ys = objective_pairs(system, config)
    P, q = pair_objective(system.index.key_space, xs, ys, n, t_ref)

    # Anchor: lambda * ||x - mid||^2 selects a canonical solution; the
    # identity adds to P's diagonal only, in either form.
    lam = config.anchor_weight
    identity = (
        sp.identity(n, format="csc") if sp.issparse(P) else np.eye(n)
    )
    P = P + 2.0 * lam * identity
    q = q - 2.0 * lam * midpoints

    # --- constraints: builder rows the box leaves open + interval box ---
    A_rows, row_lower, row_upper = system.builder.csr_arrays(num_variables=n)
    keep = ~droppable_rows(A_rows, row_lower, row_upper, lows, highs)
    A = _stack_box(A_rows, keep)
    # In the frame t - t_ref a row's bounds move by its coefficient sum
    # times t_ref (t_ref itself for the box rows).
    shift = (A @ np.ones(n)) * t_ref
    lower = np.concatenate([row_lower[keep], lows])
    upper = np.concatenate([row_upper[keep], highs])
    lower = np.where(np.isfinite(lower), lower - shift, lower)
    upper = np.where(np.isfinite(upper), upper - shift, upper)

    problem = QPProblem(
        P=P, q=q, A=A, lower=lower, upper=upper, settings=config.qp
    )
    result = solve_qp(problem, x0=midpoints)
    if not result.status.is_usable:
        raise SolverError(result.status, "estimation QP failed")

    # ADMM satisfies the box only to its primal tolerance; clamp the
    # estimates into their (always valid) intervals.
    solution = np.clip(result.x, lows - t_ref, highs - t_ref) + t_ref
    estimates = dict(zip(system.variables, solution.tolist()))
    return estimates, result


class DomoQpBackend(EstimatorBackend):
    """The paper's estimator behind the backend contract.

    Dispatch mirrors the pre-refactor executor exactly so the refactor
    is bit-exact: an empty window returns no estimates and no solver
    result, ``fifo_mode="sdr"`` windows under the SDR unknown cap take
    the lift, everything else takes the linearized QP.
    """

    name = "domo-qp"
    capabilities = BackendCapabilities(exact=True, supports_relaxation=True)

    def solve_window(
        self, system: ConstraintSystem, spec
    ) -> WindowSolution:
        if system.num_unknowns == 0:
            return WindowSolution(estimates={}, solver="empty", result=None)
        if (
            spec.fifo_mode == "sdr"
            and system.num_unknowns <= spec.sdr.max_unknowns
        ):
            # Late import: repro.core.sdr itself imports this module for
            # the shared Eq. (8) helpers.
            from repro.core.sdr import solve_window_sdr_info

            estimates, result = solve_window_sdr_info(system, spec.sdr)
            return WindowSolution(
                estimates=estimates, solver="sdr", result=result
            )
        estimates, result = estimate_arrival_times_info(
            system, spec.estimator
        )
        return WindowSolution(
            estimates=estimates, solver="linearized", result=result
        )

    def solve_relaxed(
        self, system: ConstraintSystem, spec
    ) -> WindowSolution:
        # Relaxed re-solves always use the linearized QP — the SDR lift
        # exists to encode the FIFO products, which the ladder is
        # discarding anyway.
        estimates, result = estimate_arrival_times_info(
            system, spec.estimator
        )
        return WindowSolution(
            estimates=estimates, solver="linearized", result=result
        )
