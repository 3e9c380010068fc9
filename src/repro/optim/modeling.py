"""A small modeling layer: named variables and box-form linear constraints.

All Domo constraint producers (order, sum-of-delays, FIFO) emit rows into a
:class:`ConstraintBuilder`, which assembles the sparse system
``l <= A x <= u`` consumed by the QP/LP/SDP solvers. Equalities are rows
with ``l == u``; one-sided rows use ``-inf`` / ``+inf``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple

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


class CsrArrays(NamedTuple):
    """The arrays and shape of a CSR matrix, without scipy's object.

    Readers of ``indptr`` / ``indices`` / ``data`` / ``shape`` take it
    and a ``scipy.sparse.csr_matrix`` alike.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


class ConstraintBuilder:
    """Accumulates rows in blocks of CSR arrays and builds the system.

    A block is a run of rows as arrays (or lists): each row's term
    count, the terms' columns (sorted and distinct within a row) and
    coefficients (nonzero), and each row's bounds and tag. Producers add
    rows in that form with :meth:`add_block`; :meth:`add` makes a
    one-row block. The blocks are joined into arrays once, when the rows
    are first read. A row's tag is a string, or any other value that
    ``tag_names`` turns into one on demand; :class:`ConstraintRow`
    objects are made only when :attr:`rows` is read.
    """

    def __init__(
        self,
        num_variables: int | None = None,
        tag_names: Callable[[object], str] | None = None,
    ) -> None:
        self._num_variables = num_variables
        self._tag_names = tag_names
        self._blocks: list[tuple] = []
        self._joined: tuple[np.ndarray, ...] | None = None
        self._size = 0
        self._rows: list[ConstraintRow] | None = None

    def __len__(self) -> int:
        return self._size

    def add_block(self, counts, indices, data, lower, upper, tags) -> None:
        """Append rows already in canonical form (sorted distinct columns
        per row, nonzero coefficients). Only the column range is checked,
        by :meth:`csr_arrays`."""
        if len(counts):
            if self._joined is not None:
                self._blocks = [self._joined]
                self._joined = None
            self._blocks.append((counts, indices, data, lower, upper, tags))
            self._size += len(counts)

    def _block(self) -> tuple[np.ndarray, ...]:
        """``(counts, indices, data, lower, upper, tags)`` of every row."""
        if self._joined is None:
            parts = zip(*self._blocks) if self._blocks else (
                (np.zeros(0, dtype=np.int64),),
                (np.zeros(0, dtype=np.int64),),
                (np.zeros(0),),
                (np.zeros(0),),
                (np.zeros(0),),
                (np.zeros(0, dtype=object),),
            )
            self._joined = tuple(np.concatenate(part) for part in parts)
            self._blocks = []
        return self._joined

    @property
    def tags(self) -> np.ndarray:
        """Every row's tag, strings or ``tag_names`` arguments."""
        return self._block()[5]

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
            counts, indices, data, lower, upper, _ = self._block()
            indptr = np.concatenate(([0], counts.cumsum())).tolist()
            indices, data = indices.tolist(), data.tolist()
            self._rows = [
                ConstraintRow(
                    indices=tuple(indices[start:stop]),
                    coefficients=tuple(data[start:stop]),
                    lower=row_lower,
                    upper=row_upper,
                    tag=self.tag(r),
                )
                for r, (start, stop, row_lower, row_upper) in enumerate(
                    zip(indptr, indptr[1:], lower.tolist(), upper.tolist())
                )
            ]
        return self._rows

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
        tags = np.empty(1, dtype=object)
        tags[0] = tag
        self.add_block(
            np.array([len(indices)]),
            np.array(indices, dtype=np.int64),
            np.array([merged[i] for i in indices]),
            np.array([float(lower)]),
            np.array([float(upper)]),
            tags,
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

    def extend(self, other: "ConstraintBuilder") -> None:
        """Append all rows from another builder, tags as strings."""
        counts, indices, data, lower, upper, _ = other._block()
        tags = np.empty(len(other), dtype=object)
        tags[:] = [other.tag(row) for row in range(len(other))]
        self.add_block(counts, indices, data, lower, upper, tags)

    def csr_arrays(
        self, num_variables: int | None = None
    ) -> tuple[CsrArrays, np.ndarray, np.ndarray]:
        """Assemble ``(A, l, u)`` with ``A`` as :class:`CsrArrays`.

        Args:
            num_variables: number of columns; defaults to the value passed
                at construction or to ``max index + 1``.
        """
        if num_variables is None:
            num_variables = self._num_variables
        counts, indices, data, lower, upper, _ = self._block()
        largest = int(indices.max()) if len(indices) else -1
        if num_variables is None:
            num_variables = 1 + largest
        if largest >= num_variables:
            raise ValueError(
                f"row references column {largest} >= n={num_variables}"
            )
        if len(indices) and indices.min() < 0:
            raise ValueError(f"row references column {indices.min()} < 0")
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        counts.cumsum(out=indptr[1:])
        matrix = CsrArrays(indptr, indices, data, (len(self), num_variables))
        return matrix, lower.copy(), upper.copy()

    def build(self, num_variables: int | None = None):
        """Assemble ``(A, l, u)`` with ``A`` in CSR format (see
        :meth:`csr_arrays`)."""
        arrays, lower, upper = self.csr_arrays(num_variables)
        matrix = sp.csr_matrix(
            (arrays.data, arrays.indices, arrays.indptr),
            shape=arrays.shape,
            copy=True,
        )
        return matrix, lower, upper

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
        counts, indices, data, lower, upper, tags = self._block()
        kept = np.array(
            [bool(keep(self.tag(row))) for row in range(len(self))],
            dtype=bool,
        )
        entries = kept.repeat(counts)
        out = ConstraintBuilder(self._num_variables, self._tag_names)
        out.add_block(
            counts[kept],
            indices[entries],
            data[entries],
            lower[kept],
            upper[kept],
            tags[kept],
        )
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
