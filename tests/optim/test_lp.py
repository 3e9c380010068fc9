"""Tests for the LP front end (HiGHS) and the Big-M simplex fallback."""

import sys
import time
import types

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from repro.obs.solver_telemetry import record_solver_result
from repro.optim.lp import (
    _HIGHS_STATUS,
    LinearProgram,
    _accepted,
    solve_lp,
    solve_lp_simplex,
)
from repro.optim.result import SolverResult, SolverStatus

INF = float("inf")


def _lp(c, A, row_lower, row_upper, x_lower=None, x_upper=None):
    return LinearProgram(
        c=np.asarray(c, dtype=float),
        A=sp.csr_matrix(np.atleast_2d(A)),
        row_lower=np.asarray(row_lower, dtype=float),
        row_upper=np.asarray(row_upper, dtype=float),
        x_lower=None if x_lower is None else np.asarray(x_lower, dtype=float),
        x_upper=None if x_upper is None else np.asarray(x_upper, dtype=float),
    )


BOTH_SOLVERS = pytest.mark.parametrize("solve", [solve_lp, solve_lp_simplex])


@BOTH_SOLVERS
def test_simple_minimization(solve):
    # min x s.t. 1 <= x <= 4.
    problem = _lp([1.0], [[1.0]], [1.0], [4.0])
    result = solve(problem)
    assert result.status is SolverStatus.OPTIMAL
    assert result.objective == pytest.approx(1.0, abs=1e-6)


@BOTH_SOLVERS
def test_simple_maximization_via_negation(solve):
    # max x == min -x s.t. x <= 4.
    problem = _lp([-1.0], [[1.0]], [1.0], [4.0])
    result = solve(problem)
    assert result.status is SolverStatus.OPTIMAL
    assert result.x[0] == pytest.approx(4.0, abs=1e-6)


@BOTH_SOLVERS
def test_classic_two_variable_lp(solve):
    # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0 -> (2, 6).
    problem = _lp(
        [-3.0, -5.0],
        [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
        [-INF, -INF, -INF],
        [4.0, 12.0, 18.0],
        x_lower=[0.0, 0.0],
    )
    result = solve(problem)
    assert result.status is SolverStatus.OPTIMAL
    assert np.allclose(result.x, [2.0, 6.0], atol=1e-6)
    assert result.objective == pytest.approx(-36.0, abs=1e-6)


@BOTH_SOLVERS
def test_equality_row(solve):
    # min x + y s.t. x + y == 3, x,y in [0, 3].
    problem = _lp(
        [1.0, 1.0],
        [[1.0, 1.0]],
        [3.0],
        [3.0],
        x_lower=[0.0, 0.0],
        x_upper=[3.0, 3.0],
    )
    result = solve(problem)
    assert result.status is SolverStatus.OPTIMAL
    assert result.objective == pytest.approx(3.0, abs=1e-6)


@BOTH_SOLVERS
def test_infeasible_detected(solve):
    # x >= 2 and x <= 1.
    problem = _lp([1.0], [[1.0], [1.0]], [2.0, -INF], [INF, 1.0])
    result = solve(problem)
    assert result.status is SolverStatus.INFEASIBLE


@BOTH_SOLVERS
def test_unbounded_detected(solve):
    # min -x, x >= 0, no upper bound.
    problem = _lp([-1.0], [[1.0]], [0.0], [INF])
    result = solve(problem)
    assert result.status is SolverStatus.UNBOUNDED


def test_free_variables_in_simplex():
    # min x, -5 <= x + y <= 5, y == 2, x free -> x = -7.
    problem = _lp(
        [1.0, 0.0],
        [[1.0, 1.0], [0.0, 1.0]],
        [-5.0, 2.0],
        [5.0, 2.0],
    )
    reference = solve_lp(problem)
    ours = solve_lp_simplex(problem)
    assert ours.status is SolverStatus.OPTIMAL
    assert ours.objective == pytest.approx(reference.objective, abs=1e-6)
    assert ours.x[0] == pytest.approx(-7.0, abs=1e-6)


def test_degenerate_lp_terminates():
    """Bland's rule must terminate on a degenerate problem."""
    problem = _lp(
        [-0.75, 150.0, -0.02, 6.0],
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        [-INF, -INF, -INF],
        [0.0, 0.0, 1.0],
        x_lower=[0.0, 0.0, 0.0, 0.0],
    )
    ours = solve_lp_simplex(problem)
    reference = solve_lp(problem)
    assert ours.status is SolverStatus.OPTIMAL
    assert ours.objective == pytest.approx(reference.objective, abs=1e-6)


def test_bound_style_problem_matches_between_solvers():
    """Shape of Domo's bound LPs: chains of order constraints."""
    # t0 <= t1 - 1 <= t2 - 2, t0 = 0, t2 = 10; min/max t1.
    A = [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]
    row_lower = [1.0, 1.0]
    row_upper = [INF, INF]
    for c, expected in [([0.0, 1.0, 0.0], 1.0), ([0.0, -1.0, 0.0], -9.0)]:
        problem = _lp(
            c,
            A,
            row_lower,
            row_upper,
            x_lower=[0.0, -INF, 10.0],
            x_upper=[0.0, INF, 10.0],
        )
        fast = solve_lp(problem)
        slow = solve_lp_simplex(problem)
        assert fast.status is SolverStatus.OPTIMAL
        assert slow.status is SolverStatus.OPTIMAL
        assert fast.objective == pytest.approx(expected, abs=1e-6)
        assert slow.objective == pytest.approx(expected, abs=1e-6)


def test_shape_validation():
    with pytest.raises(ValueError):
        _lp([1.0, 2.0], [[1.0]], [0.0], [1.0])
    with pytest.raises(ValueError):
        _lp([1.0], [[1.0]], [0.0, 1.0], [1.0])


@settings(max_examples=30, deadline=None)
@given(
    c=st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=3),
    seed=st.integers(0, 10_000),
)
def test_simplex_agrees_with_highs_on_random_bounded_lps(c, seed):
    """Random LPs over a box with one coupling row: both solvers agree."""
    n = len(c)
    rng = np.random.default_rng(seed)
    coupling = rng.uniform(-1.0, 1.0, size=(1, n))
    problem = _lp(
        c,
        coupling,
        [-2.0],
        [2.0],
        x_lower=[-1.0] * n,
        x_upper=[1.0] * n,
    )
    fast = solve_lp(problem)
    slow = solve_lp_simplex(problem)
    assert fast.status is SolverStatus.OPTIMAL
    assert slow.status is SolverStatus.OPTIMAL
    assert slow.objective == pytest.approx(fast.objective, abs=1e-5)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_simplex_keeps_a_variable_fixed_at_a_nonzero_level(sign):
    """A Phase-I artificial left basic at zero must not grow in Phase II."""
    problem = _lp(
        [0.0, sign],
        np.zeros((0, 2)),
        [],
        [],
        x_lower=[0.0, 1.0],
        x_upper=[1.0, 1.0],
    )
    result = solve_lp_simplex(problem)
    assert result.status is SolverStatus.OPTIMAL
    assert result.objective == pytest.approx(sign, abs=1e-9)
    assert result.x[1] == pytest.approx(1.0, abs=1e-9)


def _linprog_form(problem: LinearProgram) -> dict:
    """The feasible region as ``linprog`` keyword arguments: the rows
    ``row_lower <= A x <= row_upper`` split into ``A_ub x <= b_ub``
    (finite upper sides, then negated finite lower sides) and
    ``A_eq x == b_eq``; the variable bounds as an ``(n, 2)`` array,
    whose infinite sides linprog reads as it reads ``None``."""
    eq_mask = problem.row_lower == problem.row_upper
    A = problem.A
    up_mask = ~eq_mask & np.isfinite(problem.row_upper)
    lo_mask = ~eq_mask & np.isfinite(problem.row_lower)
    blocks = []
    rhs_parts = []
    if np.any(up_mask):
        blocks.append(A[up_mask])
        rhs_parts.append(problem.row_upper[up_mask])
    if np.any(lo_mask):
        blocks.append(-A[lo_mask])
        rhs_parts.append(-problem.row_lower[lo_mask])
    eq_idx = np.nonzero(eq_mask)[0]
    return {
        "A_ub": sp.vstack(blocks, format="csr") if blocks else None,
        "b_ub": np.concatenate(rhs_parts) if rhs_parts else None,
        "A_eq": A[eq_idx] if eq_idx.size else None,
        "b_eq": problem.row_lower[eq_idx] if eq_idx.size else None,
        "bounds": np.column_stack((problem.x_lower, problem.x_upper)),
    }


#: scipy's status codes of a HiGHS run (``linprog`` and ``milp`` alike).
_SCIPY_STATUS = {
    0: SolverStatus.OPTIMAL,
    1: SolverStatus.ITERATION_LIMIT,
    2: SolverStatus.INFEASIBLE,
    3: SolverStatus.UNBOUNDED,
    4: SolverStatus.NUMERICAL_ERROR,
}


def _milp_form(problem: LinearProgram) -> tuple:
    """``problem.highs_form`` as ``milp`` takes it: ``(Bounds,
    LinearConstraint)``."""
    form = problem.highs_form
    return (
        Bounds(form.lb, form.ub),
        LinearConstraint(form.A, form.lhs, form.rhs),
    )


def _solve_lp_by_milp(problem: LinearProgram) -> SolverResult:
    """``solve_lp`` as it was when every LP went through ``milp``, which
    builds a new HiGHS instance per call: the reference for one instance
    per region."""
    started = time.perf_counter()
    box, rows = _milp_form(problem)
    outcome = milp(
        problem.c, bounds=box, constraints=rows, options={"presolve": True}
    )
    status = _SCIPY_STATUS.get(outcome.status, SolverStatus.NUMERICAL_ERROR)
    x = outcome.x if outcome.x is not None else np.empty(0)
    if status is SolverStatus.OPTIMAL and not _accepted(
        problem.highs_form, x, outcome.fun
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

_sides = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
ROW_KINDS = ["upper", "lower", "ranged", "eq", "free"]


@st.composite
def _mixed_row_lps(draw):
    """Small LPs whose rows mix finite-upper, finite-lower, ranged,
    equality and doubly-infinite sides, over a box that may be open."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 6))
    coefficient = st.one_of(
        st.sampled_from([0.0, 1.0, -1.0]),
        st.floats(-3.0, 3.0, allow_nan=False),
    )
    A = [[draw(coefficient) for _ in range(n)] for _ in range(m)]
    row_lower, row_upper = [], []
    for _ in range(m):
        kind = draw(st.sampled_from(ROW_KINDS))
        a, b = sorted((draw(_sides), draw(_sides)))
        if kind == "eq":
            a = b
        row_lower.append(a if kind in ("lower", "ranged", "eq") else -INF)
        row_upper.append(b if kind in ("upper", "ranged", "eq") else INF)
    x_lower, x_upper = [], []
    for _ in range(n):
        a, b = sorted((draw(_sides), draw(_sides)))
        x_lower.append(draw(st.sampled_from([a, -INF])))
        x_upper.append(draw(st.sampled_from([b, INF])))
    c = [draw(st.floats(-3.0, 3.0, allow_nan=False)) for _ in range(n)]
    A = np.array(A, dtype=float).reshape(m, n)
    return _lp(c, A, row_lower, row_upper, x_lower, x_upper)


@settings(deadline=None)
@given(problem=_mixed_row_lps())
# row-free
@example(_lp([1.0, -1.0], np.zeros((0, 2)), [], [], [0.0, -1.0], [2.0, 3.0]))
# infeasible
@example(_lp([1.0], [[1.0], [1.0]], [2.0, -INF], [INF, 1.0]))
# unbounded
@example(_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0], [INF], [0.0, 0.0]))
# repeated columns within a row, out of order, and an explicit zero
@example(
    LinearProgram(
        c=np.array([1.0, -1.0]),
        A=sp.csr_matrix(
            (
                np.array([1.0, 0.5, 2.0, -1.0, 0.25, 0.0]),
                np.array([0, 1, 0, 1, 1, 0]),
                np.array([0, 3, 6]),
            ),
            shape=(2, 2),
        ),
        row_lower=np.array([-1.0, -INF]),
        row_upper=np.array([4.0, 2.0]),
        x_lower=np.array([-3.0, -3.0]),
        x_upper=np.array([3.0, 3.0]),
    )
)
def test_solve_lp_matches_linprog_on_the_split_form(problem):
    """HiGHS gets the model ``linprog`` built from the split form: the
    same status, objective bits and solution. Row-free, infeasible and
    unbounded problems are among the examples."""
    reference = linprog(problem.c, **_linprog_form(problem), method="highs")
    result = solve_lp(problem)
    assert result.status is _SCIPY_STATUS[reference.status]
    if result.status.is_usable:
        assert result.objective.hex() == float(reference.fun).hex()
        assert np.array_equal(result.x, reference.x)
    else:
        assert reference.x is None and result.x.size == 0


def test_an_optimum_off_its_box_or_rows_is_refused():
    """``linprog``'s check of a HiGHS optimum, which ``milp`` does not
    make: NaN, or a box side or row missed by more than 10 * sqrt(1e-9),
    refuses the point."""
    # x0 + x1 == 1, x0 - x1 >= 0, 0 <= x <= 2.
    problem = _lp(
        [1.0, 1.0],
        [[1.0, 1.0], [1.0, -1.0]],
        [1.0, 0.0],
        [1.0, INF],
        x_lower=[0.0, 0.0],
        x_upper=[2.0, 2.0],
    )
    form = problem.highs_form
    assert _accepted(form, np.array([0.5, 0.5]), 1.0)
    assert _accepted(form, np.array([0.5 + 1e-4, 0.5]), 1.0)
    assert not _accepted(form, np.array([0.5 + 1e-3, 0.5]), 1.0)
    assert not _accepted(form, np.array([1.0 + 1e-3, -1e-3]), 1.0)
    assert not _accepted(form, np.array([0.5, 0.5]), float("nan"))


def _case(problem: LinearProgram) -> tuple:
    """``problem`` with the min and max of each coordinate, its own
    objective, and one the solvers refuse (an infinite entry)."""
    objectives = []
    for unit in np.eye(problem.num_variables):
        objectives += [unit, -unit]
    refused = problem.c.copy()
    refused[0] = INF
    return problem, objectives + [problem.c, refused]


@st.composite
def _regions_and_objectives(draw):
    """A region from :func:`_mixed_row_lps` and, in drawn order, the
    objectives one instance solves on it: the min and max of each
    coordinate, drawn objectives (on an open box some are unbounded),
    and now and then one with a non-finite entry, which is refused."""
    problem = draw(_mixed_row_lps())
    n = problem.num_variables
    objectives = list(np.eye(n)) + list(-np.eye(n))
    drawn = st.lists(
        st.floats(-3.0, 3.0, allow_nan=False), min_size=n, max_size=n
    )
    objectives += [np.array(c) for c in draw(st.lists(drawn, max_size=4))]
    non_finite = st.sampled_from([INF, -INF, np.nan])
    for bad in draw(st.lists(non_finite, max_size=2)):
        refused = draw(drawn.map(np.array))
        refused[draw(st.integers(0, n - 1))] = bad
        objectives.append(refused)
    return problem, draw(st.permutations(objectives))


@settings(deadline=None)
@given(case=_regions_and_objectives())
# row-free
@example(
    _case(_lp([1.0, -1.0], np.zeros((0, 2)), [], [], [0.0, -1.0], [2.0, 3.0]))
)
# infeasible
@example(_case(_lp([1.0], [[1.0], [1.0]], [2.0, -INF], [INF, 1.0])))
# unbounded under some objectives
@example(_case(_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0], [INF], [0.0, 0.0])))
# a box HiGHS refuses to load (a lower side of +inf)
@example(
    _case(_lp([1.0, 0.0], [[1.0, 1.0]], [-INF], [1.0], [INF, 0.0], [INF, 1.0]))
)
# an instance reused after another objective: clearSolver() alone keeps
# state from that run (the scaling HiGHS chose) and moves x's last bits
@example(
    (
        _lp(
            [0.0, 0.0, 0.0],
            [[0.0, 0.0, 0.0], [0.125, -1.0, 0.0]],
            [-INF, -INF],
            [0.0, 0.0],
            [1e-8, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ),
        [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1e-12, 0.0])],
    )
)
def test_one_instance_per_region_solves_as_a_fresh_milp_call(case):
    """Objectives solved in turn on a region's one HiGHS instance give
    what a new ``milp`` call gives each: the same status, objective bits
    and solution bytes. A run that fails, or an objective refused, does
    not change the next run."""
    problem, objectives = case
    for c in objectives:
        posed = problem.with_objective(c)
        assert posed.highs_form is problem.highs_form
        if not np.all(np.isfinite(c)):
            with pytest.raises(ValueError):
                _solve_lp_by_milp(posed)
            with pytest.raises(ValueError):
                solve_lp(posed)
            continue
        reference = _solve_lp_by_milp(posed)
        result = solve_lp(posed)
        assert result.status is reference.status
        assert result.objective.hex() == reference.objective.hex()
        assert result.x.tobytes() == reference.x.tobytes()


def test_highs_statuses_read_as_milp_reads_them():
    """Each HiGHS model status reads as ``milp`` reads it: scipy's table
    of HiGHS statuses, then scipy's status codes."""
    from scipy.optimize._highspy._core import HighsModelStatus
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

    for name, member in HighsModelStatus.__members__.items():
        code, _ = _highs_to_scipy_status_message(member, "")
        status = _HIGHS_STATUS.get(name, SolverStatus.NUMERICAL_ERROR)
        assert status is _SCIPY_STATUS[code]


@pytest.mark.parametrize(
    "bindings",
    [None, types.ModuleType("scipy.optimize._highspy._core")],
    ids=["module missing", "names missing"],
)
def test_missing_highs_bindings_name_the_scipy_needed(monkeypatch, bindings):
    problem = _lp([1.0], [[1.0]], [0.0], [1.0])
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", bindings)
    with pytest.raises(ImportError, match=r"scipy >= 1\.15"):
        solve_lp(problem)
