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
is indifferent (e.g. packets with no epsilon-neighbor).

This module is the historical ``repro.core.estimator`` moved behind the
:class:`~repro.backends.base.EstimatorBackend` contract;
:class:`DomoQpBackend` dispatches bit-identically to the pre-refactor
executor (empty window -> ``{}``, ``fifo_mode="sdr"`` under the unknown
cap -> SDR lift, else the linearized QP). The pair and form helpers
work over the window's integer key ids and are shared with the SDR lift.
"""

from __future__ import annotations

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
) -> tuple[list[int], list[int], list[int]]:
    """The pairs entering the objective as ``(nodes, xs, ys)``: x and y
    arrive at the node at key ids ``x`` and ``y``, t0 gap below epsilon."""
    return system.index.key_space.visit_pairs(
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
    # Each pair is a row of the difference matrix D, so the objective's
    # Hessian is 2 D'D. Its entries are sums of +-2, exact in any order;
    # q is accumulated in pair order, as a term-by-term sum would be.
    space = system.index.key_space
    d_rows: list[int] = []
    d_cols: list[int] = []
    d_vals: list[float] = []
    q_terms = [0.0] * n
    num_pairs = 0
    _, xs, ys = objective_pairs(system, config)
    for x, y in zip(xs, ys):
        columns, coefficients, constant = pair_form(space, x, y, t_ref)
        if not columns:
            continue
        # (a'x + c)^2 contributes 2*a*a' to P and 2*c*a to q.
        for column, coefficient in zip(columns, coefficients):
            q_terms[column] += 2.0 * constant * coefficient
        d_rows.extend([num_pairs] * len(columns))
        d_cols.extend(columns)
        d_vals.extend(coefficients)
        num_pairs += 1
    D = sp.csr_matrix((d_vals, (d_rows, d_cols)), shape=(num_pairs, n))
    P = (2.0 * (D.T @ D)).tocsc()
    P.sort_indices()
    q = np.array(q_terms)

    # Anchor: lambda * ||x - mid||^2 selects a canonical solution.
    lam = config.anchor_weight
    P = P + 2.0 * lam * sp.identity(n, format="csc")
    q = q - 2.0 * lam * midpoints

    # --- constraints: builder rows + interval box ----------------------
    A_rows, row_lower, row_upper = system.builder.build(num_variables=n)
    row_shift = np.asarray(A_rows @ np.ones(n)).ravel() * t_ref
    row_lower = np.where(np.isfinite(row_lower), row_lower - row_shift, row_lower)
    row_upper = np.where(np.isfinite(row_upper), row_upper - row_shift, row_upper)
    identity = sp.identity(n, format="csr")
    A = sp.vstack([A_rows, identity], format="csr")
    lower = np.concatenate([row_lower, lows - t_ref])
    upper = np.concatenate([row_upper, highs - t_ref])

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
    capabilities = BackendCapabilities(
        exact=True, supports_relaxation=True, cost_rank=2
    )

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
