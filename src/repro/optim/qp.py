"""OSQP-style ADMM solver for convex quadratic programs.

Solves problems of the form::

    minimize    0.5 * x' P x + q' x
    subject to  l <= A x <= u

where ``P`` is positive semidefinite. This is the operator-splitting scheme
of Stellato et al. (OSQP): introduce ``z = A x``, alternate a regularized
equality-constrained QP step (a cached factorization) with a box
projection, and update scaled dual variables. The Domo estimation problem
(paper Eq. (8) plus the order / sum-of-delays / linearized FIFO
constraints) is exactly this shape.

The penalty ``rho`` adapts as in OSQP (Stellato et al., §5.2): at each
residual check that does not stop, the balance of the scaled primal and
dual residuals proposes a new ``rho``, which is taken, and the KKT matrix
refactored, only when it moves by more than :data:`RHO_REFACTOR_RATIO`.

A problem over at most :data:`~repro.optim.linalg.DENSE_MAX_VARIABLES`
variables holds ``P`` and ``A`` as dense arrays and factors its KKT
matrix by Cholesky, larger ones hold CSC and use SuperLU
(:func:`~repro.optim.linalg.is_dense_size`); one iteration, written over
``@``, serves both forms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.obs.solver_telemetry import record_solver_result
from repro.optim.linalg import (
    KKTFactorization,
    as_csc,
    as_dense,
    is_dense_size,
)
from repro.optim.result import SolverResult, SolverStatus


#: range of the adaptive penalty (OSQP's RHO_MIN / RHO_MAX).
RHO_MIN = 1e-6
RHO_MAX = 1e6
#: a proposed rho is taken, and the KKT matrix refactored, only when it
#: differs from the current one by more than this factor either way.
RHO_REFACTOR_RATIO = 5.0
#: keeps the rho estimate finite when the dual residual is zero.
_DIVISION_TOL = 1e-10


@dataclass
class QPSettings:
    """Tunable parameters of the ADMM iteration."""

    rho: float = 0.1
    sigma: float = 1e-6
    alpha: float = 1.6
    max_iterations: int = 4000
    eps_abs: float = 1e-5
    eps_rel: float = 1e-5
    check_interval: int = 25
    #: residual level (relative) below which a run that hits the iteration
    #: cap is still reported as ALMOST_OPTIMAL rather than a failure.
    almost_factor: float = 100.0


@dataclass
class QPProblem:
    """Data of one QP instance ``min 0.5 x'Px + q'x  s.t.  l <= Ax <= u``.

    ``P`` and ``A`` are coerced to the form the variable count selects
    (:func:`~repro.optim.linalg.is_dense_size`): dense arrays for small
    problems, CSC otherwise. Read them through
    :func:`~repro.optim.linalg.as_dense` when a dense copy is wanted.
    """

    P: np.ndarray | sp.spmatrix
    q: np.ndarray
    A: np.ndarray | sp.spmatrix
    lower: np.ndarray
    upper: np.ndarray
    settings: QPSettings = field(default_factory=QPSettings)

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=float).ravel()
        n = self.q.shape[0]
        coerce = as_dense if is_dense_size(n) else as_csc
        self.P = coerce(self.P, (n, n))
        self.A = coerce(self.A)
        if self.A.shape[1] != n:
            raise ValueError(
                f"A has {self.A.shape[1]} columns, expected {n}"
            )
        m = self.A.shape[0]
        self.lower = np.asarray(self.lower, dtype=float).ravel()
        self.upper = np.asarray(self.upper, dtype=float).ravel()
        if self.lower.shape != (m,) or self.upper.shape != (m,):
            raise ValueError("bound vectors must match the number of rows of A")
        if np.any(self.lower > self.upper):
            raise ValueError("some constraint has lower > upper")

    @property
    def num_variables(self) -> int:
        return self.q.shape[0]

    @property
    def num_constraints(self) -> int:
        return self.A.shape[0]

    def objective(self, x: np.ndarray) -> float:
        """Objective value ``0.5 x'Px + q'x`` at ``x``."""
        return float(0.5 * x @ (self.P @ x) + self.q @ x)


def solve_qp(
    problem: QPProblem,
    x0: np.ndarray | None = None,
) -> SolverResult:
    """Solve a :class:`QPProblem` with ADMM.

    Args:
        problem: the QP instance.
        x0: optional warm-start point.

    Returns:
        A :class:`SolverResult`; ``status.is_usable`` indicates success.
    """
    cfg = problem.settings
    n, m = problem.num_variables, problem.num_constraints
    started = time.perf_counter()
    if m == 0:
        result = _solve_unconstrained(problem)
        result.solve_time_s = time.perf_counter() - started
        return record_solver_result("qp", result)

    A, At, P, q = problem.A, problem.A.T, problem.P, problem.q
    lower, upper = problem.lower, problem.upper
    sigma, alpha = cfg.sigma, cfg.alpha
    beta = 1.0 - alpha
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    # np.minimum(np.maximum(.)) is np.clip's definition, at a fraction of
    # its per-call cost on small vectors.
    z = np.minimum(np.maximum(A @ x, lower), upper)
    y = np.zeros(m)

    rho = cfg.rho
    kkt = KKTFactorization(P, A, sigma, rho)
    refactorizations = 0
    status = SolverStatus.ITERATION_LIMIT
    primal_res = dual_res = float("inf")
    iteration = 0
    for iteration in range(1, cfg.max_iterations + 1):
        # OSQP iteration (Stellato et al., Algorithm 1) with relaxation.
        rhs = sigma * x - q + At @ (rho * z - y)
        x_tilde = kkt.solve(rhs)
        z_tilde = A @ x_tilde
        x = alpha * x_tilde + beta * x
        z_relaxed = alpha * z_tilde + beta * z
        z_new = np.minimum(np.maximum(z_relaxed + y / rho, lower), upper)
        y = y + rho * (z_relaxed - z_new)
        z = z_new

        if iteration % cfg.check_interval == 0 or iteration == cfg.max_iterations:
            (
                primal_res, dual_res, eps_primal, eps_dual,
                scale_primal, scale_dual,
            ) = _residuals(problem, x, z, y)
            if primal_res <= eps_primal and dual_res <= eps_dual:
                status = SolverStatus.OPTIMAL
                break
            proposed = _rho_estimate(
                rho, primal_res / scale_primal, dual_res / scale_dual
            )
            moved = max(proposed / rho, rho / proposed)
            if moved > RHO_REFACTOR_RATIO and iteration < cfg.max_iterations:
                rho = proposed
                kkt.refactor(rho)
                refactorizations += 1

    if status is SolverStatus.ITERATION_LIMIT:
        primal_res, dual_res, eps_primal, eps_dual, *_ = _residuals(
            problem, x, z, y
        )
        if (
            primal_res <= cfg.almost_factor * eps_primal
            and dual_res <= cfg.almost_factor * eps_dual
        ):
            status = SolverStatus.ALMOST_OPTIMAL
    if not np.all(np.isfinite(x)):
        status = SolverStatus.NUMERICAL_ERROR

    return record_solver_result(
        "qp",
        SolverResult(
            status=status,
            x=x,
            objective=(
                problem.objective(x) if status.is_usable else float("nan")
            ),
            iterations=iteration,
            primal_residual=primal_res,
            dual_residual=dual_res,
            solve_time_s=time.perf_counter() - started,
            info={
                "dual": y,
                "num_variables": n,
                "num_constraints": m,
                "rho": rho,
                "refactorizations": refactorizations,
                "kkt": kkt.form,
            },
        ),
    )


def _solve_unconstrained(problem: QPProblem) -> SolverResult:
    """Direct solve of ``min 0.5 x'Px + q'x`` (regularized when singular)."""
    n = problem.num_variables
    dense = as_dense(problem.P) + 1e-9 * np.eye(n)
    try:
        x = np.linalg.solve(dense, -problem.q)
    except np.linalg.LinAlgError:
        x = np.linalg.lstsq(dense, -problem.q, rcond=None)[0]
    return SolverResult(
        status=SolverStatus.OPTIMAL,
        x=x,
        objective=problem.objective(x),
        iterations=0,
        primal_residual=0.0,
        dual_residual=0.0,
    )


def _residuals(problem: QPProblem, x, z, y):
    """Primal/dual residuals, their scaled tolerances (OSQP criteria) and
    the scales those tolerances use: ``(r_p, r_d, eps_p, eps_d, s_p, s_d)``."""
    cfg = problem.settings
    ax = problem.A @ x
    px = problem.P @ x
    aty = problem.A.T @ y
    primal = float(np.max(np.abs(ax - z))) if z.size else 0.0
    dual_vec = px + problem.q + aty
    dual = float(np.max(np.abs(dual_vec))) if dual_vec.size else 0.0

    scale_primal = max(
        float(np.max(np.abs(ax))) if ax.size else 0.0,
        float(np.max(np.abs(z))) if z.size else 0.0,
        1.0,
    )
    scale_dual = max(
        float(np.max(np.abs(px))) if px.size else 0.0,
        float(np.max(np.abs(aty))) if aty.size else 0.0,
        float(np.max(np.abs(problem.q))) if problem.q.size else 0.0,
        1.0,
    )
    eps_primal = cfg.eps_abs + cfg.eps_rel * scale_primal
    eps_dual = cfg.eps_abs + cfg.eps_rel * scale_dual
    return primal, dual, eps_primal, eps_dual, scale_primal, scale_dual


def _rho_estimate(rho: float, primal: float, dual: float) -> float:
    """OSQP's penalty proposal from the scaled residuals: ``rho`` times
    the square root of primal over dual, kept in range."""
    estimate = rho * float(np.sqrt(primal / (dual + _DIVISION_TOL)))
    return min(max(estimate, RHO_MIN), RHO_MAX)
