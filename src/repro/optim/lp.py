"""Linear programs: HiGHS via scipy's bindings, plus a from-scratch simplex.

Domo's bound computation (paper §IV.C) solves two LPs per unknown arrival
time: ``min t_k`` and ``max t_k`` subject to the order, sum-of-delays and
resolved FIFO constraints over an extracted sub-graph. This module exposes

* :func:`solve_lp` — the production path: HiGHS (dual simplex, presolve
  on) on the split model ``linprog`` builds, one HiGHS instance per
  feasible region, through the bindings scipy's own ``milp`` uses;
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
        split once and solved on one HiGHS instance."""
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
    def highs_form(self) -> "HighsModel":
        """The feasible region in the model ``linprog`` builds. Its rows
        are those with a finite upper side, then the negated rows with a
        finite lower side (lower side ``-inf``), then the equality rows,
        as one CSC matrix; rows unbounded on both sides are left out and
        the variable box is unchanged. HiGHS solves the ranged rows in
        their native form differently enough to move some bounds, so the
        split stays."""
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
        return HighsModel(split, lhs, rhs, self.x_lower, self.x_upper)


class HighsModel:
    """A feasible region as HiGHS takes it, and the one HiGHS instance
    :func:`solve_lp` solves it on under every objective.

    ``lhs <= A x <= rhs`` and ``lb <= x <= ub``, with ``A`` in CSC form:
    the arrays ``milp`` would hand HiGHS for this region.
    """

    def __init__(self, A: sp.csc_matrix, lhs, rhs, lb, ub) -> None:
        self.A = A
        self.lhs = lhs
        self.rhs = rhs
        self.lb = lb
        self.ub = ub
        #: the HiGHS instance and the model handed to it, both made by
        #: :meth:`load` on the region's first solve.
        self.highs = None
        self.lp = None

    def load(self) -> None:
        """Make the region's HiGHS instance, set up as ``milp`` sets one
        up (console log off, presolve on), and its model: these arrays,
        every column continuous, the objective set by each solve.

        The bindings are scipy's private ``scipy.optimize._highspy._core``,
        which scipy's own ``milp`` and ``linprog`` use since scipy 1.15.
        This is the one place the package imports them; importing them
        loads ``scipy.optimize`` (DESIGN §11).
        """
        try:
            from scipy.optimize._highspy._core import (
                HighsLp,
                HighsOptions,
                HighsVarType,
                MatrixFormat,
                _Highs,
            )
        except ImportError as exc:
            import scipy

            raise ImportError(
                "solve_lp needs scipy >= 1.15, whose "
                "scipy.optimize._highspy._core holds the HiGHS bindings it "
                f"uses; scipy {scipy.__version__} is installed ({exc})"
            ) from exc
        num_rows, num_cols = self.A.shape
        lp = HighsLp()
        lp.num_col_ = num_cols
        lp.num_row_ = num_rows
        lp.a_matrix_.num_col_ = num_cols
        lp.a_matrix_.num_row_ = num_rows
        lp.a_matrix_.format_ = MatrixFormat.kColwise
        lp.col_lower_ = self.lb
        lp.col_upper_ = self.ub
        lp.row_lower_ = self.lhs
        lp.row_upper_ = self.rhs
        lp.a_matrix_.start_ = self.A.indptr
        lp.a_matrix_.index_ = self.A.indices
        lp.a_matrix_.value_ = self.A.data
        lp.integrality_ = [HighsVarType.kContinuous] * num_cols
        options = HighsOptions()
        options.log_to_console = False
        options.presolve = "on"
        highs = _Highs()
        highs.passOptions(options)
        self.highs = highs
        self.lp = lp


#: ``milp``'s reading of a HiGHS model status: scipy's table in
#: ``_highs_to_scipy_status_message``, then scipy's status codes 0-4 as
#: solver statuses. Every other model status is a numerical error.
_HIGHS_STATUS = {
    "kOptimal": SolverStatus.OPTIMAL,
    "kTimeLimit": SolverStatus.ITERATION_LIMIT,
    "kIterationLimit": SolverStatus.ITERATION_LIMIT,
    "kModelError": SolverStatus.INFEASIBLE,
    "kInfeasible": SolverStatus.INFEASIBLE,
    "kUnbounded": SolverStatus.UNBOUNDED,
}

#: ``linprog``'s tolerance for accepting a HiGHS optimum (10 * sqrt(1e-9)).
_ACCEPT_TOL = float(np.sqrt(1e-9) * 10)


def _accepted(form: HighsModel, x: np.ndarray, objective: float) -> bool:
    """``linprog``'s check of an optimum HiGHS reports: no NaN, and the box
    and rows met within :data:`_ACCEPT_TOL`. ``milp`` skips it, so it is
    kept here; a point that fails it is a numerical error, as under
    ``linprog``."""
    if np.isnan(objective) or np.isnan(x).any():
        return False
    activity = form.A @ x
    return bool(
        np.all(x >= form.lb - _ACCEPT_TOL)
        and np.all(x <= form.ub + _ACCEPT_TOL)
        and np.all(activity >= form.lhs - _ACCEPT_TOL)
        and np.all(activity <= form.rhs + _ACCEPT_TOL)
    )


def solve_lp(problem: LinearProgram) -> SolverResult:
    """Solve a :class:`LinearProgram` with HiGHS, as ``milp`` would.

    The region's HiGHS instance (:attr:`LinearProgram.highs_form`) is made
    on its first solve. Each solve hands it the model again under the new
    objective, which clears what an earlier run left: its basis, and the
    scaling HiGHS chose, which ``clearSolver()`` would keep. A run thus
    ends where a new instance's would, bit for bit; a warm start can end
    at another optimal vertex.
    """
    started = time.perf_counter()
    if problem.c.size == 0 or not np.all(np.isfinite(problem.c)):
        raise ValueError("the objective needs at least one entry, all finite")
    form = problem.highs_form
    if form.highs is None:
        form.load()
    highs = form.highs
    form.lp.col_cost_ = problem.c
    x = np.empty(0)
    objective = float("nan")
    iterations = 0
    if highs.passModel(form.lp).name == "kError":
        model_status = "kModelError"  # milp's reading of a refused model
    else:
        highs.run()
        model_status = highs.getModelStatus().name
        info = highs.getInfo()
        iterations = info.simplex_iteration_count
    status = _HIGHS_STATUS.get(model_status, SolverStatus.NUMERICAL_ERROR)
    if status is SolverStatus.OPTIMAL:
        x = np.array(highs.getSolution().col_value)
        if _accepted(form, x, info.objective_function_value):
            objective = float(info.objective_function_value)
        else:
            status = SolverStatus.NUMERICAL_ERROR
    return record_solver_result(
        "lp",
        SolverResult(
            status=status,
            x=x,
            objective=objective,
            iterations=iterations,
            solve_time_s=time.perf_counter() - started,
            info={"message": f"HiGHS model status {model_status}"},
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
