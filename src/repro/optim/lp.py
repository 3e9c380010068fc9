"""Linear programs: HiGHS (scipy) front end plus a self-contained simplex.

Domo's bound computation (paper §IV.C) solves two LPs per unknown arrival
time: ``min t_k`` and ``max t_k`` subject to the order, sum-of-delays and
resolved FIFO constraints over an extracted sub-graph. This module exposes

* :func:`solve_lp` — the production path, handing HiGHS (dual simplex,
  presolve on) the split model ``linprog`` builds, through scipy's
  lighter public front end :func:`scipy.optimize.milp`;
* :func:`solve_lp_simplex` — a from-scratch dense Big-M simplex used as an
  independent cross-check in tests and the solver ablation bench.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.constants import INF
from repro.obs.solver_telemetry import record_solver_result
from repro.optim.result import SolverResult, SolverStatus


@dataclass
class LinearProgram:
    """``min c'x  s.t.  row_lower <= Ax <= row_upper, x_lower <= x <= x_upper``."""

    c: np.ndarray
    A: sp.spmatrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    x_lower: np.ndarray | None = None
    x_upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.shape[0]
        self.A = sp.csr_matrix(self.A)
        if self.A.shape[1] != n:
            raise ValueError(f"A has {self.A.shape[1]} columns, expected {n}")
        m = self.A.shape[0]
        self.row_lower = np.asarray(self.row_lower, dtype=float).ravel()
        self.row_upper = np.asarray(self.row_upper, dtype=float).ravel()
        if self.row_lower.shape != (m,) or self.row_upper.shape != (m,):
            raise ValueError("row bounds must match the number of rows of A")
        if self.x_lower is None:
            self.x_lower = np.full(n, -INF)
        else:
            self.x_lower = np.asarray(self.x_lower, dtype=float).ravel()
        if self.x_upper is None:
            self.x_upper = np.full(n, INF)
        else:
            self.x_upper = np.asarray(self.x_upper, dtype=float).ravel()

    @property
    def num_variables(self) -> int:
        return self.c.shape[0]

    def with_objective(self, c) -> "LinearProgram":
        """The same feasible region under objective ``c``. The copy shares
        :attr:`highs_form`, so a region solved under many objectives is
        split once."""
        self.highs_form  # split before copying, so the copies share it
        other = copy.copy(self)
        other.c = np.asarray(c, dtype=float).ravel()
        if other.c.shape != self.c.shape:
            raise ValueError(
                f"objective has {other.c.shape[0]} entries, expected "
                f"{self.c.shape[0]}"
            )
        return other

    @cached_property
    def highs_form(self) -> tuple:
        """The feasible region as ``milp`` takes it: ``(Bounds,
        LinearConstraint)``, in the model ``linprog`` builds. Its rows are
        those with a finite upper side, then the negated rows with a finite
        lower side (lower side ``-inf``), then the equality rows, as one CSC
        matrix; rows unbounded on both sides are left out and the variable
        box is unchanged. HiGHS solves the ranged rows in their native
        form differently enough to move some bounds, so the split stays."""
        from scipy.optimize import Bounds, LinearConstraint

        eq_mask = self.row_lower == self.row_upper
        up = np.flatnonzero(~eq_mask & np.isfinite(self.row_upper))
        lo = np.flatnonzero(~eq_mask & np.isfinite(self.row_lower))
        eq = np.flatnonzero(eq_mask)
        split = self.A[np.concatenate((up, lo, eq))]
        first, last = split.indptr[[len(up), len(up) + len(lo)]]
        split.data[first:last] *= -1
        split = split.tocsc()
        split.sum_duplicates()  # as linprog's COO-to-CSC conversion does
        rhs = np.concatenate(
            (self.row_upper[up], -self.row_lower[lo], self.row_lower[eq])
        )
        lhs = np.concatenate(
            (np.full(len(up) + len(lo), -INF), self.row_lower[eq])
        )
        return (
            Bounds(self.x_lower, self.x_upper),
            LinearConstraint(split, lhs, rhs),
        )


#: scipy's status codes of a HiGHS run (``linprog`` and ``milp`` alike).
_SCIPY_STATUS = {
    0: SolverStatus.OPTIMAL,
    1: SolverStatus.ITERATION_LIMIT,
    2: SolverStatus.INFEASIBLE,
    3: SolverStatus.UNBOUNDED,
    4: SolverStatus.NUMERICAL_ERROR,
}

#: ``linprog``'s tolerance for accepting a HiGHS optimum (10 * sqrt(1e-9)).
_ACCEPT_TOL = float(np.sqrt(1e-9) * 10)


def _accepted(box, rows, x: np.ndarray, objective: float) -> bool:
    """``linprog``'s check of an optimum HiGHS reports: no NaN, and the box
    and rows met within :data:`_ACCEPT_TOL`. ``milp`` skips it, so it is
    kept here; a point that fails it is a numerical error, as under
    ``linprog``."""
    if np.isnan(objective) or np.isnan(x).any():
        return False
    activity = rows.A @ x
    return bool(
        np.all(x >= box.lb - _ACCEPT_TOL)
        and np.all(x <= box.ub + _ACCEPT_TOL)
        and np.all(activity >= rows.lb - _ACCEPT_TOL)
        and np.all(activity <= rows.ub + _ACCEPT_TOL)
    )


def solve_lp(problem: LinearProgram) -> SolverResult:
    """Solve a :class:`LinearProgram` with scipy's HiGHS backend.

    ``milp`` reports no simplex iteration count, so ``iterations`` is 0.
    """
    from scipy.optimize import milp  # loaded by the first LP (DESIGN §11)

    started = time.perf_counter()
    box, rows = problem.highs_form
    outcome = milp(
        problem.c, bounds=box, constraints=rows, options={"presolve": True}
    )
    status = _SCIPY_STATUS.get(outcome.status, SolverStatus.NUMERICAL_ERROR)
    x = outcome.x if outcome.x is not None else np.empty(0)
    if status is SolverStatus.OPTIMAL and not _accepted(
        box, rows, x, outcome.fun
    ):
        status = SolverStatus.NUMERICAL_ERROR
    return record_solver_result(
        "lp",
        SolverResult(
            status=status,
            x=x,
            objective=float(outcome.fun) if status.is_usable else float("nan"),
            solve_time_s=time.perf_counter() - started,
            info={"message": outcome.message},
        ),
    )


def solve_lp_simplex(
    problem: LinearProgram,
    max_iterations: int = 20000,
    tol: float = 1e-9,
) -> SolverResult:
    """Solve a small dense LP with a from-scratch Big-M simplex.

    The problem is rewritten in standard form ``min c'x, Ax = b, x >= 0``
    (free variables split as ``x+ - x-``, inequality rows given slacks) and
    solved by the two-phase tableau simplex with Bland's anti-cycling rule.
    Artificial columns stay in the tableau during Phase II (they may remain
    basic at level zero on redundant rows) but are banned from entering.
    Intended for modest sizes — this is the verification path, not the
    production path.
    """
    c_std, A_std, b_std, recover = _standardize(problem)
    m, n = A_std.shape

    # Normalize RHS signs, then append one artificial per row.
    negative = b_std < 0
    A_std[negative] *= -1.0
    b_std = np.abs(b_std)
    tableau_A = np.hstack([A_std, np.eye(m)])
    basis = list(range(n, n + m))

    # Phase I: minimize the sum of artificials.
    phase1_c = np.concatenate([np.zeros(n), np.ones(m)])
    status, basis, xb = _simplex_iterate(
        tableau_A, b_std, phase1_c, basis, max_iterations, tol
    )
    if status is not SolverStatus.OPTIMAL:
        return SolverResult(status=status, x=np.empty(0))
    if float(phase1_c[basis] @ xb) > 1e-7 * max(1.0, float(np.max(b_std, initial=0.0))):
        return SolverResult(status=SolverStatus.INFEASIBLE, x=np.empty(0))

    # Phase II: original costs, artificials frozen out of the entering set.
    phase2_c = np.concatenate([c_std, np.zeros(m)])
    banned = set(range(n, n + m))
    status, basis, xb = _simplex_iterate(
        tableau_A, b_std, phase2_c, basis, max_iterations, tol, banned=banned
    )
    if status is not SolverStatus.OPTIMAL:
        return SolverResult(status=status, x=np.empty(0))

    x_std = np.zeros(n)
    for row, col in enumerate(basis):
        if col < n:
            x_std[col] = xb[row]
    x = recover(x_std)
    return SolverResult(
        status=SolverStatus.OPTIMAL,
        x=x,
        objective=float(problem.c @ x),
    )


def _standardize(problem: LinearProgram):
    """Rewrite a box-form LP into ``min c'x, Ax = b, x >= 0`` (dense).

    Returns ``(c, A, b, recover)`` where ``recover`` maps a standard-form
    solution back to the original variable space.
    """
    n = problem.num_variables
    A = problem.A.toarray()
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    is_equality: list[bool] = []

    def push(row: np.ndarray, value: float, equality: bool) -> None:
        rows.append(row)
        rhs.append(value)
        is_equality.append(equality)

    for i in range(A.shape[0]):
        lo, hi = problem.row_lower[i], problem.row_upper[i]
        if lo == hi:
            push(A[i].copy(), lo, True)
        else:
            if np.isfinite(hi):
                push(A[i].copy(), hi, False)
            if np.isfinite(lo):
                push(-A[i], -lo, False)
    for j in range(n):
        lo, hi = problem.x_lower[j], problem.x_upper[j]
        unit = np.zeros(n)
        unit[j] = 1.0
        if np.isfinite(hi):
            push(unit.copy(), hi, False)
        if np.isfinite(lo):
            push(-unit, -lo, False)

    G = np.array(rows) if rows else np.zeros((0, n))
    h = np.array(rhs)
    num_rows = G.shape[0]
    slack_cols = [i for i, eq in enumerate(is_equality) if not eq]
    slack_block = np.zeros((num_rows, len(slack_cols)))
    for k, i in enumerate(slack_cols):
        slack_block[i, k] = 1.0

    A_std = np.hstack([G, -G, slack_block])
    c_std = np.concatenate([problem.c, -problem.c, np.zeros(len(slack_cols))])

    def recover(x_std: np.ndarray) -> np.ndarray:
        return x_std[:n] - x_std[n : 2 * n]

    return c_std, A_std, h, recover


def _simplex_iterate(A, b, c, basis, max_iterations, tol, banned=frozenset()):
    """Tableau simplex with Bland's rule from a given feasible basis.

    ``banned`` columns are never chosen to enter the basis (used to freeze
    Phase-I artificials during Phase II).
    """
    m, n = A.shape
    basis = list(basis)
    xb = b.copy()
    for _ in range(max_iterations):
        B = A[:, basis]
        try:
            B_inv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            B_inv = np.linalg.pinv(B)
        xb = B_inv @ b
        y = c[basis] @ B_inv
        reduced = c - y @ A
        in_basis = set(basis)
        entering = -1
        for j in range(n):
            if j not in in_basis and j not in banned and reduced[j] < -tol:
                entering = j
                break
        if entering < 0:
            return SolverStatus.OPTIMAL, basis, xb
        direction = B_inv @ A[:, entering]
        ratios = [
            (xb[i] / direction[i], i) for i in range(m) if direction[i] > tol
        ]
        # A banned column still basic (a Phase-I artificial at level zero)
        # must stay at zero, so it blocks the step in either direction.
        ratios += [
            (0.0, i)
            for i in range(m)
            if basis[i] in banned and direction[i] < -tol
        ]
        if not ratios:
            return SolverStatus.UNBOUNDED, basis, xb
        best = min(r for r, _ in ratios)
        # Bland: among minimal ratios leave the smallest basic index.
        leaving_row = min(
            (basis[i], i) for r, i in ratios if r <= best + tol
        )[1]
        basis[leaving_row] = entering
    return SolverStatus.ITERATION_LIMIT, basis, xb
