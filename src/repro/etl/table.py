"""Column-oriented relational tables.

SCube consumes relational inputs (``individuals``, ``groups``,
``finalTable``).  The original Java system reads CSV files or JDBC result
sets; this reproduction stores tables column-wise with NumPy-coded
categorical columns, which is the layout the itemset encoder and the cube
builder need (code arrays, not Python objects, on the hot path).

Three column kinds cover everything the paper requires:

* :class:`CategoricalColumn` — single-valued discrete attribute
  (``gender``, ``region``, ...), stored as ``int32`` codes plus a
  category list;
* :class:`MultiValuedColumn` — set-valued attribute (the paper's
  ``sector = {electricity, transports}`` example), stored as CSR
  offsets into one array of per-row sorted codes, plus a category list;
* :class:`IntColumn` — integer attribute, used for identifiers and for
  unit ids.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from itertools import chain
from typing import Union

import numpy as np

from repro.errors import TableError

ValueType = Union[str, int, float, bool]


class CategoricalColumn:
    """A single-valued discrete column stored as integer codes.

    Parameters
    ----------
    codes:
        Array-like of non-negative integers indexing into ``categories``.
    categories:
        The distinct values, in code order.
    """

    kind = "categorical"

    def __init__(self, codes: Iterable[int], categories: Sequence[ValueType]):
        self.codes = np.asarray(codes, dtype=np.int32)
        self.categories: list[ValueType] = list(categories)
        if len(self.codes) and self.codes.min() < 0:
            raise TableError("categorical codes must be non-negative")
        if len(self.codes) and self.codes.max() >= len(self.categories):
            raise TableError(
                f"code {int(self.codes.max())} out of range for "
                f"{len(self.categories)} categories"
            )

    @classmethod
    def from_values(cls, values: Iterable[ValueType]) -> "CategoricalColumn":
        """Build a column from raw values, assigning codes in first-seen order."""
        categories: list[ValueType] = []
        index: dict[ValueType, int] = {}
        codes = []
        for value in values:
            code = index.get(value)
            if code is None:
                code = len(categories)
                index[value] = code
                categories.append(value)
            codes.append(code)
        return cls(np.asarray(codes, dtype=np.int32), categories)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int) -> ValueType:
        return self.categories[int(self.codes[i])]

    def values(self) -> list[ValueType]:
        """Decode the whole column back to raw values."""
        return [self.categories[c] for c in self.codes]

    def mask_eq(self, value: ValueType) -> np.ndarray:
        """Boolean mask of rows equal to ``value`` (all-False if unseen)."""
        code = _code_of(self.categories, value)
        if code is None:
            return np.zeros(len(self.codes), dtype=bool)
        return self.codes == code

    def take(self, positions: np.ndarray) -> "CategoricalColumn":
        """Return a new column with the rows at ``positions``."""
        return CategoricalColumn(self.codes[positions], self.categories)


class MultiValuedColumn:
    """A set-valued column: every row holds a (possibly empty) set of values.

    Rows are stored CSR-style: row ``i`` holds the codes
    ``codes[indptr[i]:indptr[i + 1]]``, strictly increasing, into a
    shared category list.  This matches the paper's treatment of
    multi-valued attributes (an individual may be linked to several
    company sectors at once) and hands the itemset encoder its codes as
    they are.
    """

    kind = "multivalued"

    def __init__(
        self,
        indptr: Iterable[int],
        codes: Iterable[int],
        categories: Sequence[ValueType],
    ):
        self.indptr = indptr = np.asarray(indptr, dtype=np.int64)
        self.codes = codes = np.asarray(codes, dtype=np.int32)
        self.categories: list[ValueType] = list(categories)
        if indptr.ndim != 1 or not len(indptr) or indptr[0] != 0:
            raise TableError("multi-valued offsets must start at 0")
        if (np.diff(indptr) < 0).any():
            raise TableError("multi-valued offsets must not decrease")
        if indptr[-1] != len(codes):
            raise TableError(
                f"multi-valued offsets end at {int(indptr[-1])}, "
                f"not at the {len(codes)} codes"
            )
        if len(codes) and (codes.min() < 0
                           or codes.max() >= len(self.categories)):
            raise TableError("multi-valued code out of range")
        # Consecutive codes must rise except across a row start.
        within = np.ones(max(len(codes) - 1, 0), dtype=bool)
        starts = indptr[(indptr > 0) & (indptr < len(codes))]
        within[starts - 1] = False
        if (np.diff(codes)[within] <= 0).any():
            raise TableError(
                "multi-valued row codes must be strictly increasing"
            )

    @classmethod
    def from_values(
        cls, values: Iterable[Collection[ValueType]]
    ) -> "MultiValuedColumn":
        """Build from per-row collections of values (see :meth:`from_flat`)."""
        rows = list(values)
        return cls.from_flat(
            np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)),
            list(chain.from_iterable(rows)),
        )

    @classmethod
    def from_flat(
        cls, lengths: Sequence[int], flat: Sequence[ValueType]
    ) -> "MultiValuedColumn":
        """Build from each row's value count and every row's values in order.

        Row ``i`` holds the next ``lengths[i]`` values of ``flat``;
        repeats within a row collapse.  Codes are assigned in first-seen
        order, and the values a row sees first in ``str`` order (the
        order :func:`~repro.etl.csvio.write_table` writes a set), so the
        categories never depend on set iteration order.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        by_str = sorted(dict.fromkeys(flat), key=str)
        n_values = max(len(by_str), 1)
        rank_of = dict(zip(by_str, range(len(by_str))))
        ranks = np.fromiter(map(rank_of.__getitem__, flat), dtype=np.int64,
                            count=len(flat))
        row_of = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        # Each row's values in str order, repeats dropped: the keys
        # row * n_values + rank, sorted, each kept once.
        keys = row_of * n_values + ranks
        keys.sort()
        keep = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        row_of, ranks = np.divmod(keys[keep], n_values)
        first_at = np.unique(ranks, return_index=True)[1]
        seen = ranks[np.sort(first_at)]          # ranks in first-seen order
        code_of = np.empty(len(by_str), dtype=np.int64)
        code_of[seen] = np.arange(len(seen))
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of, minlength=len(lengths)), out=indptr[1:])
        # Each row's codes in increasing order: one sort of the keys
        # row * n_values + code, which are distinct.
        keys = row_of * n_values + code_of[ranks]
        keys.sort()
        return cls(indptr, keys % n_values, [by_str[rank] for rank in seen])

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, i: int) -> frozenset[ValueType]:
        i = range(len(self))[i]
        a, b = self.indptr[i], self.indptr[i + 1]
        return frozenset(self.categories[c] for c in self.codes[a:b].tolist())

    def values(self) -> list[frozenset[ValueType]]:
        """Decode the whole column back to raw value sets."""
        decoded = [self.categories[c] for c in self.codes.tolist()]
        bounds = self.indptr.tolist()
        return [frozenset(decoded[a:b]) for a, b in zip(bounds, bounds[1:])]

    def mask_contains(self, value: ValueType) -> np.ndarray:
        """Boolean mask of rows whose set contains ``value``."""
        mask = np.zeros(len(self), dtype=bool)
        code = _code_of(self.categories, value)
        if code is not None:
            hits = np.flatnonzero(self.codes == code)
            mask[np.searchsorted(self.indptr, hits, side="right") - 1] = True
        return mask

    def take(self, positions: np.ndarray) -> "MultiValuedColumn":
        """Return a new column with the rows at ``positions``."""
        rows = np.arange(len(self), dtype=np.int64)[positions]
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        gather = (np.arange(indptr[-1], dtype=np.int64)
                  + np.repeat(starts - indptr[:-1], lengths))
        return MultiValuedColumn(indptr, self.codes[gather], self.categories)


class IntColumn:
    """A plain integer column (identifiers, unit ids)."""

    kind = "int"

    def __init__(self, data: Iterable[int]):
        self.data = np.asarray(data, dtype=np.int64)

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "IntColumn":
        return cls(values)

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i: int) -> int:
        return int(self.data[i])

    def values(self) -> list[int]:
        return [int(v) for v in self.data]

    def mask_eq(self, value: int) -> np.ndarray:
        return self.data == value

    def take(self, positions: np.ndarray) -> "IntColumn":
        return IntColumn(self.data[positions])


Column = Union[CategoricalColumn, MultiValuedColumn, IntColumn]


def _code_of(categories: "Sequence[ValueType]", value: ValueType
             ) -> "int | None":
    """The code of ``value`` among ``categories`` (None when absent)."""
    return dict(zip(categories, range(len(categories)))).get(value)


def _column_from_raw(values: Sequence[object]) -> Column:
    """Infer the column kind of raw Python values.

    Sets/lists/tuples become multi-valued, integers become :class:`IntColumn`,
    everything else becomes categorical.
    """
    for value in values:
        if isinstance(value, (set, frozenset, list, tuple)):
            return MultiValuedColumn.from_values(values)  # type: ignore[arg-type]
        if isinstance(value, bool):
            return CategoricalColumn.from_values(values)  # type: ignore[arg-type]
        if isinstance(value, (int, np.integer)):
            return IntColumn.from_values(values)  # type: ignore[arg-type]
        return CategoricalColumn.from_values(values)  # type: ignore[arg-type]
    return CategoricalColumn.from_values(values)  # type: ignore[arg-type]


class Table:
    """An immutable-by-convention, column-oriented relational table."""

    def __init__(self, columns: Mapping[str, Column]):
        self._columns: dict[str, Column] = dict(columns)
        lengths = {len(col) for col in self._columns.values()}
        if len(lengths) > 1:
            raise TableError(f"columns have differing lengths: {sorted(lengths)}")
        self._length = lengths.pop() if lengths else 0

    @classmethod
    def from_rows(
        cls, names: Sequence[str], rows: Iterable[Sequence[object]]
    ) -> "Table":
        """Build a table from row tuples, inferring column kinds."""
        materialised = [tuple(row) for row in rows]
        for row in materialised:
            if len(row) != len(names):
                raise TableError(
                    f"row of width {len(row)} does not match {len(names)} columns"
                )
        by_name = {
            name: _column_from_raw([row[j] for row in materialised])
            for j, name in enumerate(names)
        }
        return cls(by_name)

    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence[object]]) -> "Table":
        """Build a table from ``{column_name: values}``, inferring kinds."""
        return cls({name: _column_from_raw(list(vals)) for name, vals in data.items()})

    @property
    def names(self) -> list[str]:
        return list(self._columns)

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def column(self, name: str) -> Column:
        """Return the column named ``name``."""
        try:
            return self._columns[name]
        except KeyError:
            raise TableError(
                f"no column {name!r}; available: {self.names}"
            ) from None

    def categorical(self, name: str) -> CategoricalColumn:
        """Return a column, asserting it is categorical."""
        col = self.column(name)
        if not isinstance(col, CategoricalColumn):
            raise TableError(f"column {name!r} is {col.kind}, expected categorical")
        return col

    def multivalued(self, name: str) -> MultiValuedColumn:
        """Return a column, asserting it is multi-valued."""
        col = self.column(name)
        if not isinstance(col, MultiValuedColumn):
            raise TableError(f"column {name!r} is {col.kind}, expected multivalued")
        return col

    def ints(self, name: str) -> IntColumn:
        """Return a column, asserting it is integer."""
        col = self.column(name)
        if not isinstance(col, IntColumn):
            raise TableError(f"column {name!r} is {col.kind}, expected int")
        return col

    def with_column(self, name: str, column: Column) -> "Table":
        """Return a new table with ``column`` added or replaced."""
        if len(column) != self._length and self._columns:
            raise TableError(
                f"new column has {len(column)} rows, table has {self._length}"
            )
        merged = dict(self._columns)
        merged[name] = column
        return Table(merged)

    def without_columns(self, names: Iterable[str]) -> "Table":
        """Return a new table dropping the given columns."""
        drop = set(names)
        return Table({n: c for n, c in self._columns.items() if n not in drop})

    def filter(self, mask: np.ndarray) -> "Table":
        """Return a new table with only the rows where ``mask`` is True."""
        mask = np.asarray(mask)
        if mask.dtype == bool:
            positions = np.flatnonzero(mask)
        else:
            positions = mask.astype(np.int64)
        return Table({n: c.take(positions) for n, c in self._columns.items()})

    def row(self, i: int) -> dict[str, object]:
        """Decode row ``i`` into a ``{name: value}`` dict."""
        if not 0 <= i < self._length:
            raise TableError(f"row {i} out of range for table of {self._length} rows")
        return {name: col[i] for name, col in self._columns.items()}

    def iter_rows(self) -> Iterator[dict[str, object]]:
        """Yield decoded rows as dicts."""
        for i in range(self._length):
            yield self.row(i)

    def head(self, k: int = 5) -> list[dict[str, object]]:
        """Return the first ``k`` decoded rows."""
        return [self.row(i) for i in range(min(k, self._length))]

    def __repr__(self) -> str:
        return f"Table({self._length} rows, columns={self.names})"
