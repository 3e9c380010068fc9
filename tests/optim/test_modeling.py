"""Tests for the variable registry and constraint builder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim.modeling import ConstraintBuilder, VariableRegistry


class TestVariableRegistry:
    def test_add_assigns_sequential_indices(self):
        reg = VariableRegistry()
        assert reg.add("a") == 0
        assert reg.add("b") == 1
        assert reg.add("c") == 2

    def test_add_is_idempotent(self):
        reg = VariableRegistry()
        assert reg.add(("p", 1)) == 0
        assert reg.add(("p", 1)) == 0
        assert len(reg) == 1

    def test_lookup_roundtrip(self):
        reg = VariableRegistry()
        keys = [("p", i) for i in range(5)]
        for key in keys:
            reg.add(key)
        for key in keys:
            assert reg.key_of(reg.index_of(key)) == key

    def test_contains_and_get(self):
        reg = VariableRegistry()
        reg.add("x")
        assert "x" in reg
        assert "y" not in reg
        assert reg.get("y") is None
        assert reg.get("x") == 0

    def test_keys_in_column_order(self):
        reg = VariableRegistry()
        for key in ["c", "a", "b"]:
            reg.add(key)
        assert reg.keys() == ["c", "a", "b"]
        assert list(reg) == ["c", "a", "b"]


class TestConstraintBuilder:
    def test_build_simple_system(self):
        builder = ConstraintBuilder()
        builder.add_le({0: 1.0, 1: 1.0}, 5.0)
        builder.add_ge({0: 1.0}, 1.0)
        builder.add_eq({1: 2.0}, 4.0)
        A, lower, upper = builder.build(num_variables=2)
        assert A.shape == (3, 2)
        assert lower[0] == -np.inf and upper[0] == 5.0
        assert lower[1] == 1.0 and upper[1] == np.inf
        assert lower[2] == upper[2] == 4.0

    def test_terms_with_same_index_merge(self):
        builder = ConstraintBuilder()
        builder.add([(0, 1.0), (0, 2.0)], lower=0.0, upper=3.0)
        (row,) = builder.rows
        assert row.indices == (0,)
        assert row.coefficients == (3.0,)

    def test_zero_coefficient_rows_dropped(self):
        builder = ConstraintBuilder()
        builder.add([(0, 1.0), (0, -1.0)], lower=-1.0, upper=1.0)
        assert len(builder) == 0

    def test_infeasible_constant_row_raises(self):
        builder = ConstraintBuilder()
        with pytest.raises(ValueError):
            builder.add([(0, 1.0), (0, -1.0)], lower=1.0, upper=2.0)

    def test_empty_interval_raises(self):
        builder = ConstraintBuilder()
        with pytest.raises(ValueError):
            builder.add({0: 1.0}, lower=2.0, upper=1.0)

    def test_negative_index_raises(self):
        builder = ConstraintBuilder()
        with pytest.raises(ValueError):
            builder.add({-1: 1.0}, upper=0.0)

    def test_column_overflow_detected_at_build(self):
        builder = ConstraintBuilder()
        builder.add_le({5: 1.0}, 1.0)
        with pytest.raises(ValueError):
            builder.build(num_variables=3)

    def test_negative_column_in_a_block_detected_at_build(self):
        builder = ConstraintBuilder()
        builder.add_block([2], [-1, 1], [1.0, -1.0], [0.0], [1.0], ["sum"])
        for assemble in (builder.csr_arrays, builder.build):
            with pytest.raises(ValueError, match="< 0"):
                assemble(num_variables=3)

    def test_violation_and_max_violation(self):
        builder = ConstraintBuilder()
        builder.add_le({0: 1.0}, 1.0, tag="order")
        builder.add_ge({1: 1.0}, 0.0, tag="fifo")
        x = np.array([3.0, -0.5])
        assert builder.rows[0].violation(x) == pytest.approx(2.0)
        assert builder.rows[1].violation(x) == pytest.approx(0.5)
        assert builder.max_violation(x) == pytest.approx(2.0)
        assert builder.max_violation(np.array([0.0, 1.0])) == 0.0

    def test_rows_by_tag(self):
        builder = ConstraintBuilder()
        builder.add_le({0: 1.0}, 1.0, tag="order:p1")
        builder.add_le({1: 1.0}, 1.0, tag="fifo:p1:p2")
        builder.add_le({1: 1.0}, 2.0, tag="order:p2")
        assert len(builder.rows_by_tag("order")) == 2
        assert len(builder.rows_by_tag("fifo")) == 1

    def test_extend(self):
        left = ConstraintBuilder()
        left.add_le({0: 1.0}, 1.0)
        right = ConstraintBuilder()
        right.add_ge({1: 1.0}, 0.0)
        left.extend(right)
        assert len(left) == 2

    def test_default_column_count_inferred(self):
        builder = ConstraintBuilder()
        builder.add_le({4: 1.0}, 1.0)
        A, _, _ = builder.build()
        assert A.shape == (1, 5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 9),
                st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_build_matches_row_evaluation(self, terms):
        """Sparse matrix product equals per-row evaluation for random rows."""
        builder = ConstraintBuilder()
        builder.add(terms, lower=-100.0, upper=100.0)
        A, _, _ = builder.build(num_variables=10)
        rng = np.random.default_rng(0)
        x = rng.normal(size=10)
        if len(builder) == 0:
            return
        (row,) = builder.rows
        assert (A @ x)[0] == pytest.approx(row.evaluate(x), abs=1e-9)
