"""The Eq. (8) QP's row filter and its vectorized objective assembly.

:func:`droppable_rows` leaves out of the QP the rows with two or more
unknowns that the interval box already implies; :func:`pair_objective`
assembles P and q with numpy. The first must not change the feasible set
and must keep every single-unknown row; the second must match a
term-by-term assembly bit for bit, in both the dense and the CSC form.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.scenarios import paper_scenario
from repro.backends import domo_qp
from repro.backends.domo_qp import (
    droppable_rows,
    estimate_arrival_times_info,
    objective_pairs,
    pair_form,
    pair_objective,
)
from repro.core.pipeline import DomoConfig
from repro.optim import linalg
from repro.optim.linalg import is_dense_size
from repro.optim.modeling import ConstraintBuilder
from repro.sim import simulate_network
from repro.stream import StreamingReconstructor

from tests.core.test_golden_systems import TRACES, _window_systems
from tests.optim.test_qp import FORMS

INF = float("inf")
NUM_VARIABLES = 4

_values = st.floats(-20.0, 20.0, allow_nan=False)
_bounds = st.one_of(st.none(), st.floats(-60.0, 60.0, allow_nan=False))


@st.composite
def _rows(draw):
    terms = draw(
        st.dictionaries(
            st.integers(0, NUM_VARIABLES - 1),
            st.sampled_from([-1.0, 1.0]),
            min_size=1,
            max_size=NUM_VARIABLES,
        )
    )
    lower, upper = draw(_bounds), draw(_bounds)
    if lower is not None and upper is not None and lower > upper:
        lower, upper = upper, lower
    return (
        terms,
        -INF if lower is None else lower,
        INF if upper is None else upper,
    )


def _value_in_term_order(indices, coefficients, point) -> float:
    """A row's value at a point, summed term by term."""
    total = 0.0
    for column, coefficient in zip(indices, coefficients):
        total += coefficient * point[column]
    return total


@settings(max_examples=300, deadline=None)
@given(
    lows=st.lists(_values, min_size=NUM_VARIABLES, max_size=NUM_VARIABLES),
    widths=st.lists(
        st.floats(0.0, 20.0, allow_nan=False),
        min_size=NUM_VARIABLES,
        max_size=NUM_VARIABLES,
    ),
    rows=st.lists(_rows(), min_size=1, max_size=8),
)
def test_dropped_rows_hold_on_the_whole_box(lows, widths, rows):
    lows = np.array(lows)
    highs = lows + np.array(widths)
    builder = ConstraintBuilder(num_variables=NUM_VARIABLES)
    for terms, lower, upper in rows:
        builder.add(terms, lower=lower, upper=upper)
    A, row_lower, row_upper = builder.build()
    dropped = droppable_rows(A, row_lower, row_upper, lows, highs)
    vertices = list(itertools.product(*zip(lows, highs)))
    for r in range(len(builder)):
        indices = A.indices[A.indptr[r]:A.indptr[r + 1]]
        coefficients = A.data[A.indptr[r]:A.indptr[r + 1]]
        holds = all(
            row_lower[r]
            <= _value_in_term_order(indices, coefficients, vertex)
            <= row_upper[r]
            for vertex in vertices
        )
        if dropped[r]:
            assert holds, f"row {r} dropped but violated at a vertex"
        if len(indices) == 1:
            assert not dropped[r], f"single-unknown row {r} dropped"
        if not holds:
            assert not dropped[r], f"violated row {r} dropped"
        if holds and len(indices) >= 2:
            assert dropped[r], f"implied row {r} kept"


def _reference_objective(space, xs, ys, n, t_ref):
    """P and q assembled pair by pair, term by term, with pair_form."""
    d_rows, d_cols, d_vals = [], [], []
    q = [0.0] * n
    num_pairs = 0
    for x, y in zip(xs, ys):
        columns, coefficients, constant = pair_form(space, x, y, t_ref)
        if not columns:
            continue
        for column, coefficient in zip(columns, coefficients):
            q[column] += 2.0 * constant * coefficient
        d_rows.extend([num_pairs] * len(columns))
        d_cols.extend(columns)
        d_vals.extend(coefficients)
        num_pairs += 1
    D = sp.csr_matrix((d_vals, (d_rows, d_cols)), shape=(num_pairs, n))
    P = (2.0 * (D.T @ D)).tocsc()
    P.sort_indices()
    return P, np.array(q)


def _solved_windows(name):
    trace, config = TRACES[name]()
    for ws in _window_systems(trace, config):
        if ws.system.num_unknowns:
            yield ws.system, config.estimator


def _bits(array: np.ndarray) -> tuple:
    return array.dtype.str, array.shape, array.tobytes()


@pytest.mark.parametrize("name", sorted(TRACES))
def test_pair_objective_is_bit_identical_to_pair_form(name, monkeypatch):
    # Every window in both forms: the size rule's threshold at 0 keeps
    # all of them CSC, a huge one makes all of them dense.
    for dense_max in FORMS.values():
        monkeypatch.setattr(linalg, "DENSE_MAX_VARIABLES", dense_max)
        for system, config in _solved_windows(name):
            n = system.num_unknowns
            space = system.index.key_space
            t_ref = float(np.min(system.variable_bounds()[0]))
            _, xs, ys = objective_pairs(system, config)
            P, q = pair_objective(space, xs, ys, n, t_ref)
            P_ref, q_ref = _reference_objective(space, xs, ys, n, t_ref)
            if is_dense_size(n):
                pairs = [(P, P_ref.toarray())]
            else:
                pairs = [
                    (P.indptr, P_ref.indptr),
                    (P.indices, P_ref.indices),
                    (P.data, P_ref.data),
                ]
            for got, want in pairs + [(q, q_ref)]:
                assert _bits(got) == _bits(want)


@pytest.mark.parametrize("name", sorted(TRACES))
def test_estimates_satisfy_every_dropped_row(name):
    checked = 0
    for system, config in _solved_windows(name):
        lows, highs = map(np.asarray, system.variable_bounds())
        A, lower, upper = system.builder.build(num_variables=system.num_unknowns)
        dropped = droppable_rows(A, lower, upper, lows, highs)
        estimates, _ = estimate_arrival_times_info(system, config)
        x = np.array([estimates[key] for key in system.variables])
        values = A[dropped] @ x
        assert np.all(values >= lower[dropped] - 1e-6)
        assert np.all(values <= upper[dropped] + 1e-6)
        checked += int(dropped.sum())
    assert checked > 0


def _stream_windows():
    """Every window a 25-node stream solves at 2 s lateness, packets
    ingested one at a time in sink-arrival order."""
    trace = simulate_network(
        paper_scenario(num_nodes=25, seed=1, duration_ms=60_000.0)
    )
    captured = []
    solve = domo_qp.estimate_arrival_times_info

    def capture(system, config):
        captured.append((system, config))
        return solve(system, config)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(domo_qp, "estimate_arrival_times_info", capture)
        engine = StreamingReconstructor(DomoConfig(), lateness_ms=2_000.0)
        for packet in sorted(trace.received, key=lambda p: p.sink_arrival_ms):
            engine.ingest([packet])
        engine.flush()
        engine.close()
    return captured


@pytest.mark.parametrize("name", sorted(TRACES) + ["stream"])
def test_every_window_solves_alike_in_both_forms(name, monkeypatch):
    windows = (
        _stream_windows() if name == "stream" else list(_solved_windows(name))
    )
    assert windows
    for system, config in windows:
        chosen, result = estimate_arrival_times_info(system, config)
        solved = {}
        for form, dense_max in FORMS.items():
            monkeypatch.setattr(linalg, "DENSE_MAX_VARIABLES", dense_max)
            solved[form] = estimate_arrival_times_info(system, config)
            assert solved[form][1].info["kkt"] == form
        monkeypatch.undo()
        form = "dense" if is_dense_size(system.num_unknowns) else "sparse"
        assert result.info["kkt"] == form
        assert chosen == solved[form][0]
        (sparse, sparse_result), (dense, dense_result) = (
            solved["sparse"], solved["dense"]
        )
        assert dense_result.iterations == sparse_result.iterations
        assert sparse.keys() == dense.keys()
        assert max(abs(dense[k] - sparse[k]) for k in sparse) <= 1e-8
