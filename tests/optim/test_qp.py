"""Tests for the ADMM QP solver against analytic and reference solutions."""

import functools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim import linalg
from repro.optim.linalg import KKTFactorization, as_dense
from repro.optim.qp import QPProblem, QPSettings, solve_qp
from repro.optim.result import SolverError, SolverResult, SolverStatus

INF = float("inf")

#: DENSE_MAX_VARIABLES that puts every problem in each form.
FORMS = {"sparse": 0, "dense": 10**9}


def in_both_forms(test):
    """Run ``test`` twice: with every QP held in CSC form, then dense."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        for limit in FORMS.values():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(linalg, "DENSE_MAX_VARIABLES", limit)
                test(*args, **kwargs)

    return run


def _qp(P, q, A, lower, upper, **settings_kwargs):
    return QPProblem(
        P=sp.csc_matrix(np.atleast_2d(P)),
        q=np.asarray(q, dtype=float),
        A=sp.csr_matrix(np.atleast_2d(A)),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        settings=QPSettings(**settings_kwargs) if settings_kwargs else QPSettings(),
    )


@in_both_forms
def test_unconstrained_quadratic():
    # min (x-3)^2 -> P = 2, q = -6.
    problem = QPProblem(
        P=sp.csc_matrix([[2.0]]),
        q=np.array([-6.0]),
        A=sp.csr_matrix((0, 1)),
        lower=np.empty(0),
        upper=np.empty(0),
    )
    result = solve_qp(problem)
    assert result.status is SolverStatus.OPTIMAL
    assert result.x[0] == pytest.approx(3.0, abs=1e-6)


@in_both_forms
def test_box_constrained_scalar():
    # min (x-3)^2 s.t. x <= 1 -> x* = 1.
    problem = _qp([[2.0]], [-6.0], [[1.0]], [-INF], [1.0])
    result = solve_qp(problem).require_usable()
    assert result.x[0] == pytest.approx(1.0, abs=1e-4)
    assert result.objective == pytest.approx(-5.0, abs=1e-3)


@in_both_forms
def test_equality_constraint():
    # min x^2 + y^2 s.t. x + y = 2 -> (1, 1).
    problem = _qp(
        2.0 * np.eye(2), [0.0, 0.0], [[1.0, 1.0]], [2.0], [2.0]
    )
    result = solve_qp(problem).require_usable()
    assert np.allclose(result.x, [1.0, 1.0], atol=1e-4)


@in_both_forms
def test_two_sided_row():
    # min (x+2)^2 s.t. 0 <= x <= 5 -> x* = 0.
    problem = _qp([[2.0]], [4.0], [[1.0]], [0.0], [5.0])
    result = solve_qp(problem).require_usable()
    assert result.x[0] == pytest.approx(0.0, abs=1e-4)


@in_both_forms
def test_active_inequality_kkt():
    # min 0.5||x||^2 - [1,1]x s.t. x1 + x2 <= 1 -> x = (0.5, 0.5).
    problem = _qp(np.eye(2), [-1.0, -1.0], [[1.0, 1.0]], [-INF], [1.0])
    result = solve_qp(problem).require_usable()
    assert np.allclose(result.x, [0.5, 0.5], atol=1e-4)


@in_both_forms
def test_matches_scipy_reference_on_random_strictly_convex_qps():
    from scipy.optimize import minimize

    rng = np.random.default_rng(7)
    for trial in range(5):
        n, m = 4, 6
        root = rng.normal(size=(n, n))
        P = root @ root.T + n * np.eye(n)
        q = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 2.0

        problem = _qp(P, q, A, np.full(m, -INF), b)
        ours = solve_qp(problem).require_usable()

        reference = minimize(
            lambda x: 0.5 * x @ P @ x + q @ x,
            np.zeros(n),
            jac=lambda x: P @ x + q,
            constraints=[{"type": "ineq", "fun": lambda x: b - A @ x}],
            method="SLSQP",
        )
        assert reference.success, f"trial {trial}: reference failed"
        assert ours.objective == pytest.approx(reference.fun, abs=1e-3)


@in_both_forms
def test_infeasible_like_problem_reports_failure_or_large_residual():
    # x <= -1 and x >= 1 simultaneously: ADMM cannot satisfy both.
    problem = _qp(
        [[2.0]],
        [0.0],
        [[1.0], [1.0]],
        [-INF, 1.0],
        [-1.0, INF],
        max_iterations=300,
    )
    result = solve_qp(problem)
    assert (
        not result.status.is_usable or result.primal_residual > 0.5
    )


@in_both_forms
def test_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        _qp(np.eye(2), [0.0, 0.0], [[1.0]], [0.0], [1.0])
    with pytest.raises(ValueError):
        _qp([[1.0]], [0.0], [[1.0]], [2.0], [1.0])  # lower > upper


@in_both_forms
def test_warm_start_converges_faster_or_equal():
    P = 2.0 * np.eye(3)
    q = np.array([-2.0, -4.0, -6.0])
    A = np.vstack([np.eye(3), np.ones((1, 3))])
    lower = np.array([0.0, 0.0, 0.0, -INF])
    upper = np.array([INF, INF, INF, 2.0])
    problem = _qp(P, q, A, lower, upper)
    cold = solve_qp(problem).require_usable()
    warm = solve_qp(problem, x0=cold.x).require_usable()
    assert warm.iterations <= cold.iterations
    assert warm.objective == pytest.approx(cold.objective, abs=1e-4)


@in_both_forms
def test_require_usable_raises_on_failure():
    problem = _qp(
        [[2.0]],
        [0.0],
        [[1.0], [1.0]],
        [-INF, 10.0],
        [-10.0, INF],
        max_iterations=120,
    )
    result = solve_qp(problem)
    if not result.status.is_usable:
        with pytest.raises(SolverError):
            result.require_usable()


@in_both_forms
def test_objective_helper():
    problem = _qp(2.0 * np.eye(2), [1.0, -1.0], np.eye(2), [0, 0], [1, 1])
    x = np.array([0.5, 0.5])
    assert problem.objective(x) == pytest.approx(0.5 * (0.5 + 0.5) + 0.5 - 0.5)


@settings(max_examples=25, deadline=None)
@given(
    target=st.floats(-5, 5, allow_nan=False),
    cap=st.floats(-5, 5, allow_nan=False),
)
@in_both_forms
def test_scalar_projection_property(target, cap):
    """min (x - target)^2 s.t. x <= cap has solution min(target, cap)."""
    problem = _qp([[2.0]], [-2.0 * target], [[1.0]], [-INF], [cap])
    result = solve_qp(problem)
    if result.status.is_usable:
        assert result.x[0] == pytest.approx(min(target, cap), abs=1e-3)


@in_both_forms
def test_solve_reports_timing_and_problem_shape():
    problem = _qp([[2.0]], [-6.0], [[1.0]], [-INF], [1.0])
    result = solve_qp(problem).require_usable()
    assert result.solve_time_s > 0.0
    assert result.info["num_variables"] == 1
    assert result.info["num_constraints"] == 1


@in_both_forms
def test_unconstrained_solve_reports_timing():
    problem = QPProblem(
        P=sp.csc_matrix([[2.0]]),
        q=np.array([-6.0]),
        A=sp.csr_matrix((0, 1)),
        lower=np.empty(0),
        upper=np.empty(0),
    )
    result = solve_qp(problem)
    assert result.solve_time_s > 0.0


def _slsqp_reference(problem):
    """scipy's SLSQP on the same QP, from the box midpoint."""
    from scipy.optimize import minimize

    P, q = as_dense(problem.P), problem.q
    A = as_dense(problem.A)
    lower, upper = problem.lower, problem.upper
    has_lower, has_upper = np.isfinite(lower), np.isfinite(upper)
    reference = minimize(
        problem.objective,
        0.5 * (lower + upper)[-problem.num_variables:],
        jac=lambda x: P @ x + q,
        constraints=[
            {
                "type": "ineq",
                "fun": lambda x: A[has_lower] @ x - lower[has_lower],
                "jac": lambda x: A[has_lower],
            },
            {
                "type": "ineq",
                "fun": lambda x: upper[has_upper] - A[has_upper] @ x,
                "jac": lambda x: -A[has_upper],
            },
        ],
        method="SLSQP",
    )
    assert reference.success, reference.message
    return reference


def _chain_qp(lows, width, targets, curvature=1.0):
    """Chained order rows ``x[i+1] - x[i] >= 1`` over the box ``[lows,
    lows + width]`` (rows first, box last, as the Eq. (8) QP stacks them),
    with objective ``curvature * (sum (x[i+1] - x[i])^2 + sum (x[i] -
    targets[i])^2)`` plus a 1e-6 anchor: the objective's difference
    matrix is the constraint matrix itself."""
    n = len(lows)
    D = np.vstack([np.diff(np.eye(n), axis=0), np.eye(n)])
    c = np.concatenate([np.zeros(n - 1), -np.asarray(targets)])
    return _qp(
        curvature * 2.0 * D.T @ D + 2e-6 * np.eye(n),
        curvature * 2.0 * D.T @ c,
        D,
        np.concatenate([np.ones(n - 1), lows]),
        np.concatenate([np.full(n - 1, INF), np.asarray(lows) + width]),
    )


@in_both_forms
def test_adaptive_rho_on_a_badly_scaled_domo_shaped_qp():
    # Four interior arrival times in the frame of a long window: 40 ms
    # boxes near 5e4 ms, chained order rows, and pulls toward known
    # times that fold into q of about -1e5 while P is O(1).
    lows = 5e4 + 15.0 * np.arange(4)
    problem = _chain_qp(lows, 40.0, lows + [-7.3, 17.1, -7.3, -11.7])
    assert np.max(np.abs(problem.q)) == pytest.approx(1e5, rel=0.01)
    result = solve_qp(problem).require_usable()
    assert result.info["refactorizations"] >= 1
    reference = _slsqp_reference(problem)
    settings = problem.settings
    np.testing.assert_allclose(
        result.x, reference.x, rtol=settings.eps_rel, atol=settings.eps_abs
    )
    # ADMM with rho fixed at its initial 0.1 stops after 100 iterations
    # on this problem.
    assert result.iterations < 100


@pytest.mark.parametrize("seed", range(4))
@in_both_forms
def test_well_scaled_qp_keeps_its_rho(seed):
    # Curvature 0.1 matches the initial rho: the residuals stay balanced.
    rng = np.random.default_rng(seed)
    lows = np.arange(5.0)
    problem = _chain_qp(lows, 0.8, lows + rng.uniform(-1.0, 2.0, 5), 0.1)
    result = solve_qp(problem).require_usable()
    assert result.info["refactorizations"] == 0
    assert result.info["rho"] == QPSettings().rho
    np.testing.assert_allclose(
        result.x, _slsqp_reference(problem).x, atol=1e-3
    )


# --- the dense and the CSC form --------------------------------------------

def _solve_in_form(form, problem_args):
    """Build and solve a QP with every problem forced into ``form``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "DENSE_MAX_VARIABLES", FORMS[form])
        problem = _qp(*problem_args)
        return problem, solve_qp(problem)


_values = st.floats(-20.0, 20.0, allow_nan=False)


@st.composite
def _small_qps(draw):
    """Eq. (8)-shaped QPs: ``2 D'D`` plus an anchor over a box, and rows
    of one to four +-1 terms, feasible at a drawn point of the box."""
    n = draw(st.integers(1, 4))
    lows = np.array(draw(st.lists(_values, min_size=n, max_size=n)))
    widths = np.array(
        draw(st.lists(st.floats(0.5, 20.0), min_size=n, max_size=n))
    )
    point = lows + widths * np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    )
    terms = st.dictionaries(
        st.integers(0, n - 1), st.sampled_from([-1.0, 1.0]),
        min_size=1, max_size=4,
    )

    def matrix(rows):
        out = np.zeros((len(rows), n))
        for r, row in enumerate(rows):
            for column, coefficient in row.items():
                out[r, column] = coefficient
        return out

    D = matrix(draw(st.lists(terms, max_size=6)))
    A = matrix(draw(st.lists(terms, min_size=1, max_size=6)))
    slack = st.one_of(st.just(INF), st.floats(0.0, 10.0))
    activity = A @ point
    lower = activity - np.array([draw(slack) for _ in activity])
    upper = activity + np.array([draw(slack) for _ in activity])
    q = np.array(draw(st.lists(_values, min_size=n, max_size=n)))
    return (
        2.0 * D.T @ D + 2e-2 * np.eye(n),
        q,
        np.vstack([A, np.eye(n)]),
        np.concatenate([lower, lows]),
        np.concatenate([upper, lows + widths]),
    )


@settings(max_examples=150, deadline=None)
@given(args=_small_qps())
def test_dense_and_sparse_forms_solve_alike(args):
    _, sparse = _solve_in_form("sparse", args)
    problem, dense = _solve_in_form("dense", args)
    assert (sparse.info["kkt"], dense.info["kkt"]) == ("sparse", "dense")
    assert dense.status is sparse.status
    cfg = problem.settings
    np.testing.assert_allclose(
        dense.x, sparse.x, rtol=cfg.eps_rel, atol=cfg.eps_abs
    )


@pytest.mark.parametrize("form", sorted(FORMS))
def test_kkt_factorization_falls_back_to_a_pseudo_inverse(form, monkeypatch):
    # P + sigma*I + rho*A'A = diag(0, 2): exactly singular, so SuperLU
    # fails, and not positive definite, so Cholesky fails too.
    monkeypatch.setattr(linalg, "DENSE_MAX_VARIABLES", FORMS[form])
    problem = _qp(np.diag([-1.0, 1.0]), [1.0, -1.0], np.eye(2), [-1, -1],
                  [1, 1], sigma=0.5, rho=0.5, max_iterations=50)
    kkt = KKTFactorization(problem.P, problem.A, 0.5, 0.5)
    assert kkt.form == form
    np.testing.assert_array_equal(kkt.solve(np.array([3.0, 4.0])), [0.0, 2.0])
    result = solve_qp(problem)
    assert isinstance(result, SolverResult)
    assert result.info["kkt"] == form


@pytest.mark.parametrize("form", sorted(FORMS))
def test_kkt_factorization_solves_an_indefinite_system(form, monkeypatch):
    # diag(-0.25, 1.75): SuperLU factors it; Cholesky reports a nonzero
    # info and the pseudo-inverse (here the inverse) takes over.
    monkeypatch.setattr(linalg, "DENSE_MAX_VARIABLES", FORMS[form])
    problem = _qp(np.diag([-1.0, 1.0]), [0.0, 0.0], np.eye(2), [-1, -1],
                  [1, 1])
    kkt = KKTFactorization(problem.P, problem.A, 0.5, 0.25)
    np.testing.assert_allclose(kkt.solve(np.array([1.0, 7.0])), [-4.0, 4.0])
