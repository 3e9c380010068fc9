"""The bound path's array code against per-row references.

:func:`~repro.core.bounds.project_rows` replaced a loop over row objects
that summed each row's outside worst cases term by term; it must give the
same rows, terms and bounds, float for float. Each sub-graph LP leaves
out the rows its box implies (:func:`~repro.optim.modeling.implied_rows`);
every coordinate's min and max must stay what they are over all rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import _BatchLP, project_rows
from repro.optim.lp import LinearProgram, solve_lp_simplex
from repro.optim.modeling import ConstraintBuilder, implied_rows

INF = float("inf")
NUM_VARIABLES = 5

_values = st.floats(-20.0, 20.0, allow_nan=False)
_widths = st.floats(0.0, 20.0, allow_nan=False)
_bounds = st.one_of(st.none(), st.floats(-60.0, 60.0, allow_nan=False))


@st.composite
def _rows(draw):
    terms = draw(
        st.dictionaries(
            st.integers(0, NUM_VARIABLES - 1),
            st.sampled_from([-1.0, 1.0]),
            min_size=1,
            max_size=4,
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


@st.composite
def _systems(draw):
    """(builder, lows, highs) over a small box."""
    size = {"min_size": NUM_VARIABLES, "max_size": NUM_VARIABLES}
    lows = draw(st.lists(_values, **size))
    widths = draw(st.lists(_widths, **size))
    builder = ConstraintBuilder(num_variables=NUM_VARIABLES)
    for terms, lower, upper in draw(st.lists(_rows(), min_size=1, max_size=8)):
        builder.add(terms, lower=lower, upper=upper)
    lows = np.array(lows)
    return builder, lows, lows + np.array(widths)


def _reference_projection(builder, lows, highs, columns):
    """The per-row loop :func:`project_rows` replaced."""
    local_of = {column: i for i, column in enumerate(columns)}
    projected = []
    for row_id, row in enumerate(builder.rows):
        inside_terms = {}
        slack_lo = slack_hi = 0.0
        for column, coefficient in zip(row.indices, row.coefficients):
            local = local_of.get(column)
            if local is not None:
                inside_terms[local] = coefficient
                continue
            lo, hi = float(lows[column]), float(highs[column])
            slack_lo += min(coefficient * lo, coefficient * hi)
            slack_hi += max(coefficient * lo, coefficient * hi)
        if not inside_terms:
            continue
        lower = row.lower - slack_hi if np.isfinite(row.lower) else -INF
        upper = row.upper - slack_lo if np.isfinite(row.upper) else INF
        if lower == -INF and upper == INF:
            continue
        projected.append((row_id, inside_terms, lower.hex(), upper.hex()))
    return projected


@settings(max_examples=300, deadline=None)
@given(
    system=_systems(),
    inside=st.sets(
        st.integers(0, NUM_VARIABLES - 1), min_size=1, max_size=NUM_VARIABLES
    ),
)
def test_projection_matches_the_per_row_loop(system, inside):
    builder, lows, highs = system
    columns = np.array(sorted(inside))
    A, row_lower, row_upper = builder.build()
    rows, A_local, lower, upper = project_rows(
        A, A.tocsc(), row_lower, row_upper, lows, highs, columns
    )
    got = []
    for r, row_id in enumerate(rows):
        entries = slice(A_local.indptr[r], A_local.indptr[r + 1])
        terms = dict(
            zip(
                A_local.indices[entries].tolist(),
                A_local.data[entries].tolist(),
            )
        )
        bounds = float(lower[r]).hex(), float(upper[r]).hex()
        got.append((int(row_id), terms, *bounds))
    assert got == _reference_projection(builder, lows, highs, columns.tolist())
    assert A_local.shape == (len(rows), len(columns))


@settings(max_examples=150, deadline=None)
@given(system=_systems())
def test_implied_rows_leave_every_optimum_unchanged(system):
    builder, lows, highs = system
    A, lower, upper = builder.build()
    needed = ~implied_rows(A, lower, upper, lows, highs)
    every = np.ones(len(builder), dtype=bool)
    full = _BatchLP(A, lower, upper, lows, highs, every)
    reduced = _BatchLP(A, lower, upper, lows, highs, needed)
    for target in range(NUM_VARIABLES):
        want = full.min_max(target)
        got = reduced.min_max(target)
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert [v.hex() for v in got] == [v.hex() for v in want]
        for sign, value in ((1.0, got[0]), (-1.0, got[1])):
            c = np.zeros(NUM_VARIABLES)
            c[target] = sign
            simplex = solve_lp_simplex(
                LinearProgram(
                    c=c,
                    A=A[needed],
                    row_lower=lower[needed],
                    row_upper=upper[needed],
                    x_lower=lows,
                    x_upper=highs,
                )
            )
            assert simplex.status.is_usable
            assert abs(sign * simplex.objective - value) <= 1e-6 * (
                1.0 + abs(value)
            )
