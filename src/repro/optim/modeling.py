"""A small modeling layer: named variables and box-form linear constraints.

All Domo constraint producers (order, sum-of-delays, FIFO) emit rows into a
:class:`ConstraintBuilder`, which assembles the sparse system
``l <= A x <= u`` consumed by the QP/LP/SDP solvers. Equalities are rows
with ``l == u``; one-sided rows use ``-inf`` / ``+inf``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping

import numpy as np
import scipy.sparse as sp

from repro.constants import INF


class VariableRegistry:
    """Bidirectional mapping between hashable variable keys and indices.

    Domo indexes every unknown arrival time by a ``(packet_id, hop)`` key;
    the registry assigns each key a dense column index for the solvers.
    """

    def __init__(self) -> None:
        self._index: dict[Hashable, int] = {}
        self._keys: list[Hashable] = []

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._keys)

    def add(self, key: Hashable) -> int:
        """Register ``key`` (idempotent) and return its column index."""
        index = self._index.get(key)
        if index is None:
            index = len(self._keys)
            self._index[key] = index
            self._keys.append(key)
        return index

    def index_of(self, key: Hashable) -> int:
        """Column index of an already-registered key."""
        return self._index[key]

    def get(self, key: Hashable) -> int | None:
        """Column index of ``key``, or ``None`` if unregistered."""
        return self._index.get(key)

    def key_of(self, index: int) -> Hashable:
        """Key registered at a column index."""
        return self._keys[index]

    def keys(self) -> list[Hashable]:
        """All keys in column order (copy)."""
        return list(self._keys)


@dataclass(frozen=True)
class ConstraintRow:
    """One row ``lower <= sum(coeff * x[idx]) <= upper`` with a provenance tag."""

    indices: tuple[int, ...]
    coefficients: tuple[float, ...]
    lower: float
    upper: float
    tag: str = ""

    def evaluate(self, x: np.ndarray) -> float:
        """Value of the row's linear form at ``x``."""
        return float(sum(c * x[i] for i, c in zip(self.indices, self.coefficients)))

    def violation(self, x: np.ndarray) -> float:
        """Amount by which ``x`` violates the row (0 when satisfied)."""
        value = self.evaluate(x)
        return max(0.0, self.lower - value, value - self.upper)


class Deferred(Sequence):
    """A read-only sequence of known length whose items are made on first
    access, so ``len()`` never builds them."""

    def __init__(self, size: int, build: Callable[[], list]) -> None:
        self._size = size
        self._build = build
        self._items: list | None = None

    def _all(self) -> list:
        if self._items is None:
            self._items = self._build()
        return self._items

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        return self._all()[index]

    def __iter__(self) -> Iterator:
        return iter(self._all())


class ConstraintBuilder:
    """Accumulates rows in CSR form and builds the sparse system.

    Row ``r`` holds columns ``indices[indptr[r]:indptr[r + 1]]`` (sorted,
    distinct) with coefficients ``data[...]`` (nonzero) and bounds
    ``lower[r]`` / ``upper[r]``. Producers that already hold rows in that
    form append to the lists directly. A row's tag is a string, or any
    other value that ``tag_names`` turns into one on demand;
    :class:`ConstraintRow` objects are made only when :attr:`rows` is read.
    """

    def __init__(
        self,
        num_variables: int | None = None,
        tag_names: Callable[[object], str] | None = None,
    ) -> None:
        self._num_variables = num_variables
        self._tag_names = tag_names
        self.indptr: list[int] = [0]
        self.indices: list[int] = []
        self.data: list[float] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.tags: list = []
        self._rows: list[ConstraintRow] | None = None

    def __len__(self) -> int:
        return len(self.lower)

    def tag(self, row: int) -> str:
        """The tag string of one row."""
        tag = self.tags[row]
        return tag if isinstance(tag, str) else self._tag_names(tag)

    @property
    def rows(self) -> Sequence[ConstraintRow]:
        """The rows as :class:`ConstraintRow` objects, made on first access."""
        return Deferred(len(self), self._materialized_rows)

    def _materialized_rows(self) -> list[ConstraintRow]:
        if self._rows is None or len(self._rows) != len(self):
            indptr, indices, data = self.indptr, self.indices, self.data
            self._rows = [
                ConstraintRow(
                    indices=tuple(indices[indptr[r]:indptr[r + 1]]),
                    coefficients=tuple(data[indptr[r]:indptr[r + 1]]),
                    lower=self.lower[r],
                    upper=self.upper[r],
                    tag=self.tag(r),
                )
                for r in range(len(self))
            ]
        return self._rows

    def _append(self, indices, coefficients, lower, upper, tag) -> None:
        """Append a row already in canonical form (sorted distinct
        columns, nonzero coefficients); nothing is checked."""
        self.indices.extend(indices)
        self.data.extend(coefficients)
        self.indptr.append(len(self.indices))
        self.lower.append(lower)
        self.upper.append(upper)
        self.tags.append(tag)

    def add(
        self,
        terms: Mapping[int, float] | Iterable[tuple[int, float]],
        lower: float = -INF,
        upper: float = INF,
        tag="",
    ) -> None:
        """Add a row ``lower <= sum(coeff * x) <= upper``.

        Terms with the same index are merged; zero coefficients are kept out.
        """
        if lower > upper:
            raise ValueError(f"empty row interval [{lower}, {upper}]")
        merged: dict[int, float] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for index, coefficient in items:
            if index < 0:
                raise ValueError(f"negative variable index {index}")
            merged[index] = merged.get(index, 0.0) + float(coefficient)
        merged = {i: c for i, c in merged.items() if c != 0.0}
        if not merged:
            if lower > 0.0 or upper < 0.0:
                raise ValueError("constant row is infeasible")
            return
        indices = sorted(merged)
        self._append(
            indices, [merged[i] for i in indices], float(lower), float(upper), tag
        )

    def add_le(self, terms, upper: float, tag: str = "") -> None:
        """Add ``sum(terms) <= upper``."""
        self.add(terms, lower=-INF, upper=upper, tag=tag)

    def add_ge(self, terms, lower: float, tag: str = "") -> None:
        """Add ``sum(terms) >= lower``."""
        self.add(terms, lower=lower, upper=INF, tag=tag)

    def add_eq(self, terms, value: float, tag: str = "") -> None:
        """Add ``sum(terms) == value``."""
        self.add(terms, lower=value, upper=value, tag=tag)

    def _copy_row(self, source: "ConstraintBuilder", row: int) -> None:
        start, stop = source.indptr[row], source.indptr[row + 1]
        self._append(
            source.indices[start:stop],
            source.data[start:stop],
            source.lower[row],
            source.upper[row],
            source.tag(row),
        )

    def extend(self, other: "ConstraintBuilder") -> None:
        """Append all rows from another builder."""
        for row in range(len(other)):
            self._copy_row(other, row)

    def build(self, num_variables: int | None = None):
        """Assemble ``(A, l, u)`` with ``A`` in CSR format.

        Args:
            num_variables: number of columns; defaults to the value passed
                at construction or to ``max index + 1``.
        """
        if num_variables is None:
            num_variables = self._num_variables
        largest = max(self.indices, default=-1)
        if num_variables is None:
            num_variables = 1 + largest
        if largest >= num_variables:
            raise ValueError(
                f"row references column {largest} >= n={num_variables}"
            )
        matrix = sp.csr_matrix(
            (self.data, self.indices, self.indptr),
            shape=(len(self), num_variables),
        )
        return matrix, np.array(self.lower, dtype=float), np.array(
            self.upper, dtype=float
        )

    def max_violation(self, x: np.ndarray) -> float:
        """Largest violation of any row at ``x`` (0 when fully feasible)."""
        return max((row.violation(x) for row in self.rows), default=0.0)

    def rows_by_tag(self, prefix: str) -> list[ConstraintRow]:
        """All rows whose tag starts with ``prefix``."""
        return [row for row in self.rows if row.tag.startswith(prefix)]

    def filtered(self, keep) -> "ConstraintBuilder":
        """A new builder holding only the rows whose tag satisfies ``keep``.

        Used by the degradation ladder: an infeasible system is re-solved
        with whole constraint families (identified by their tag prefixes)
        removed.
        """
        out = ConstraintBuilder(num_variables=self._num_variables)
        for row in range(len(self)):
            if keep(self.tag(row)):
                out._copy_row(self, row)
        return out


def implied_rows(
    A: sp.csr_matrix,
    lower: np.ndarray,
    upper: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
) -> np.ndarray:
    """Mask of the rows of ``lower <= A x <= upper`` the box implies.

    A row is implied when its activity range over the box ``lows <= x <=
    highs`` lies inside ``[lower, upper]``: it then holds at every point
    of the box, so a problem that enforces the box keeps its feasible set
    without the row. Each extreme is summed in the row's term order, as
    its value at the extreme vertex would be, so an implied row holds at
    every vertex in floating point too. A row whose range is not finite
    is never implied (an ``inf - inf`` extreme is NaN).
    """
    counts = np.diff(A.indptr)
    row_of = np.repeat(np.arange(len(counts)), counts)
    at_low = A.data * lows[A.indices]
    at_high = A.data * highs[A.indices]
    rising = A.data > 0
    least = np.bincount(
        row_of, np.where(rising, at_low, at_high), minlength=len(counts)
    )
    most = np.bincount(
        row_of, np.where(rising, at_high, at_low), minlength=len(counts)
    )
    return (least >= lower) & (most <= upper)
