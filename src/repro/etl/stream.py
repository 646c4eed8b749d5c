"""Ingestion: CSV and SQL sources as streams of table chunks.

These are the package's only readers.  :func:`stream_csv` and
:func:`stream_query` read a source as :class:`~repro.etl.table.Table`
chunks of at most ``chunk_rows`` rows; the one-shot readers
:func:`repro.etl.csvio.read_table` and :func:`repro.etl.sqlio.read_query`
are the same streams read as one chunk of :data:`ONE_CHUNK` rows.

Both streams type a chunk through :func:`_type_columns`, one column at a
time, under one set of cell rules.  Each distinct cell of a
categorical or multi-valued column is typed once, in first-seen order,
and the result gathered back to the rows.  A finalTable repeats its
values (the benchmark's 30k-row cold build has 15 distinct texts in its
multi-valued column), so the split, the empty-member check and the code
assignment run over a few texts instead of every cell.  The codes are
those of typing every cell, since a value is first seen in the first
occurrence of the first distinct cell holding it.  The CSV stream adds
each row to one flat list of the chunk's cells with one ``extend``; a
column is a strided slice of that list.  The rules:

* a multi-valued cell is a ``|``-separated value set; None and ``""``
  are the empty set, and a cell with an empty member (``a||b``,
  ``|a``, ``a|``, ``|``) raises :class:`~repro.errors.TableError`
  naming the column and the cell;
* an integer cell is an ``int`` (not a ``bool``) or text ``int()``
  parses; any other cell (a float, a bool, None) raises
  :class:`~repro.errors.TableError`, so a value is never truncated;
* a None categorical cell becomes ``""``;
* a repeated column name raises :class:`~repro.errors.TableError`.

Both writers (:func:`repro.etl.csvio.write_table` and
:func:`repro.etl.sqlio.write_table_sql`) write a set through
:func:`format_set`, the inverse of the first rule: members in ``str``
order joined by ``|``.  A set that rule cannot read back, one holding
``""`` or a member containing ``|``, raises
:class:`~repro.errors.TableError` instead of being written; so the
readers and the writers refuse the same sets.

Chunks feed an :class:`~repro.itemsets.transactions.EncodeAccumulator`
(or :meth:`~repro.itemsets.transactions.TransactionDatabase.from_chunks`),
which folds them into a CSR transaction database while holding only one
chunk of decoded cells plus the accumulated (spillable) index buffers.

Column typing is per call, not inferred per chunk: pass the
``multi_valued`` / ``integer`` name sets explicitly, or pass a
``schema`` and both are derived from it (multi-valued flags; unit and
id columns as integers), so a chunk can never flip a column's kind
midway through the stream.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

from repro.errors import TableError
from repro.etl.schema import Role, Schema
from repro.etl.table import (
    CategoricalColumn,
    Column,
    IntColumn,
    MultiValuedColumn,
    Table,
)

#: Inner separator for multi-valued cells.
SET_SEPARATOR = "|"

#: Default rows per chunk: large enough to amortise per-chunk numpy
#: overheads, small enough that one chunk's decoded cells stay a few MB.
DEFAULT_CHUNK_ROWS = 65536

#: Rows per chunk of the one-shot readers: the whole input as one chunk.
#: ``sqlite3``'s ``fetchmany`` takes a C int, so not ``sys.maxsize``.
ONE_CHUNK = 2**31 - 1


def format_set(column: str, values: "Iterable[object]") -> str:
    """The text form of one multi-valued cell: its members in ``str``
    order, joined by :data:`SET_SEPARATOR`.

    Raises :class:`~repro.errors.TableError`, naming ``column`` and the
    member, when a member is ``""`` or contains the separator: the
    readers would split it, or read it as the empty set.
    """
    members = sorted(map(str, values))
    for member in members:
        if not member or SET_SEPARATOR in member:
            raise TableError(
                f"column {column!r}: set member {member!r} cannot be "
                f"written; it is empty or contains {SET_SEPARATOR!r}"
            )
    return SET_SEPARATOR.join(members)


def _column_sets(
    schema: "Schema | None",
    multi_valued: "Iterable[str]",
    integer: "Iterable[str]",
) -> "tuple[set[str], set[str]]":
    """The (multi_valued, integer) column-name sets of a stream.

    Derived from ``schema`` when one is given: multi-valued flags, and
    unit and id columns as integers.
    """
    if schema is None:
        return set(multi_valued), set(integer)
    multi = {s.name for s in schema.specs if s.multi_valued}
    ints = {s.name for s in schema.specs if s.role in (Role.UNIT, Role.ID)}
    return multi, ints


def _type_columns(
    names: "Sequence[str]",
    columns: "Iterable[Sequence[object]]",
    multi: "set[str]",
    ints: "set[str]",
) -> Table:
    """Type one chunk's raw cells (CSV text or SQL values) into a Table.

    ``columns`` holds each column's cells; each column is typed once, as
    a whole, under the cell rules in the module docstring.
    """
    if len(set(names)) != len(names):
        repeated = next(n for n in names if names.count(n) > 1)
        raise TableError(f"repeated column name {repeated!r}")
    built: "dict[str, Column]" = {}
    for name, values in zip(names, columns):
        if name in multi:
            built[name] = _set_column(name, values)
        elif name in ints:
            built[name] = _int_column(name, values)
        else:
            built[name] = _categorical_column(values)
    return Table(built)


def _categorical_column(values: "Sequence[object]") -> CategoricalColumn:
    """Type one categorical column over its distinct cells: codes in
    first-seen order, a None cell read as ``""``."""
    cells = dict.fromkeys(values)
    categories = list(cells)
    if None in cells:
        categories = list(dict.fromkeys(
            ["" if v is None else v for v in categories]
        ))
    code_of = dict(zip(categories, range(len(categories))))
    code_of[None] = code_of.get("")      # read only when a cell is None
    return CategoricalColumn(
        np.fromiter(map(code_of.__getitem__, values), dtype=np.int32,
                    count=len(values)),
        categories,
    )


def _distinct(values: "Sequence[object]") -> "tuple[list[object], np.ndarray]":
    """A column's distinct cells in first-seen order, and the position
    of each cell's value among them."""
    first = dict.fromkeys(values)
    position = dict(zip(first, range(len(first))))
    return list(first), np.fromiter(
        map(position.__getitem__, values), dtype=np.int64, count=len(values)
    )


def _set_column(name: str, values: "Sequence[object]") -> MultiValuedColumn:
    """Type one multi-valued column over its distinct texts, then
    gather the rows from them."""
    texts, at = _distinct(values)
    if not set(map(type, texts)) <= {str, type(None)}:
        # A SQL number: equal numbers (1 and 1.0) are one dict key but
        # two texts, so the texts are told apart per cell.
        texts, at = _distinct(["" if v is None else str(v) for v in values])
    # One join and one split over the distinct texts (None and "" are
    # the empty set); a non-empty text holds one more value than it has
    # separators.
    joined = SET_SEPARATOR.join(filter(None, texts))
    members = joined.split(SET_SEPARATOR) if joined else []
    if "" in members:
        cell = next(t for t in texts if t and "" in t.split(SET_SEPARATOR))
        raise TableError(
            f"column {name!r}: cell {cell!r} has an empty set member"
        )
    return MultiValuedColumn.from_flat(
        [t.count(SET_SEPARATOR) + 1 if t else 0 for t in texts], members,
    ).take(at)


def _int_column(name: str, values: "Sequence[object]") -> IntColumn:
    """Type one integer column: ``int`` cells (not ``bool``) and text
    ``int()`` parses; any other cell raises :class:`TableError`."""
    if all(issubclass(kind, (int, str)) and not issubclass(kind, bool)
           for kind in set(map(type, values))):
        try:
            return IntColumn(list(map(int, values)))
        except ValueError as exc:
            reason = str(exc)
    else:
        reason = repr(next(
            v for v in values
            if isinstance(v, bool) or not isinstance(v, (int, str))
        ))
    raise TableError(
        f"column {name!r}: expected integer cells, got a non-integer "
        f"one ({reason})"
    )


def stream_csv(
    path: "str | Path",
    schema: "Schema | None" = None,
    multi_valued: "Iterable[str]" = (),
    integer: "Iterable[str]" = (),
    delimiter: str = ",",
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> "Iterator[Table]":
    """Stream a headed CSV file as tables of at most ``chunk_rows`` rows.

    ``multi_valued`` columns hold ``|``-separated sets and ``integer``
    columns integers (both derived from ``schema`` when it is given).
    The file is UTF-8, with or without a byte-order mark.  Blank lines
    are skipped (in a single-column file one is an empty cell), and a
    row whose width differs from the header's is rejected.
    A data-less file yields one empty chunk (so downstream schema
    validation still sees the columns).
    """
    if chunk_rows < 1:
        raise TableError("chunk_rows must be positive")
    multi, ints = _column_sets(schema, multi_valued, integer)
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise TableError(f"{path} is empty")
        width = len(header)
        # One flat list of cells per chunk, one extend per row; column j
        # is the strided slice cells[j::width].  Holding the rows' lists
        # instead would make the garbage collector walk them.
        cells: "list[str]" = []
        pending = 0
        yielded = False
        for row in reader:
            if not row:
                # csv yields [] for a blank line: an empty cell in a
                # single-column file, a stray line to skip otherwise.
                if width != 1:
                    continue
                row = [""]
            if len(row) != width:
                raise TableError(
                    f"{path}: row of width {len(row)} does not match "
                    f"header of width {width}"
                )
            cells.extend(row)
            pending += 1
            if pending == chunk_rows:
                yield _type_columns(
                    header, [cells[j::width] for j in range(width)],
                    multi, ints,
                )
                cells = []
                pending = 0
                yielded = True
        if pending or not yielded:
            yield _type_columns(
                header, [cells[j::width] for j in range(width)], multi, ints,
            )


def stream_query(
    database,
    sql: str,
    schema: "Schema | None" = None,
    multi_valued: "Iterable[str]" = (),
    integer: "Iterable[str]" = (),
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> "Iterator[Table]":
    """Stream a SQL result set as tables of at most ``chunk_rows`` rows.

    ``database`` is a SQLite file path or an open connection (left
    open).  Rows come off the cursor via ``fetchmany``, so the full
    result set is never materialised.  Columns not named in ``integer``
    are typed integer when the **first** chunk holds only ints; the
    decision is then locked, and a later chunk violating it raises
    :class:`~repro.errors.TableError` (instead of silently flipping the
    column kind midway).  An empty result set yields one empty chunk.
    """
    from repro.etl.sqlio import _connect

    if chunk_rows < 1:
        raise TableError("chunk_rows must be positive")
    multi, ints = _column_sets(schema, multi_valued, integer)
    conn, owned = _connect(database)
    try:
        cursor = conn.execute(sql)
        if cursor.description is None:
            raise TableError(f"query returned no result set: {sql!r}")
        names = [d[0] for d in cursor.description]
        rows = cursor.fetchmany(chunk_rows)
        ints = ints | {
            name for j, name in enumerate(names)
            if name not in multi and rows and all(
                isinstance(r[j], int) and not isinstance(r[j], bool)
                for r in rows
            )
        }
        while True:
            yield _type_columns(
                names, zip(*rows) if rows else [()] * len(names), multi, ints,
            )
            rows = cursor.fetchmany(chunk_rows)
            if not rows:
                break
    finally:
        if owned:
            conn.close()


__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "ONE_CHUNK",
    "SET_SEPARATOR",
    "format_set",
    "stream_csv",
    "stream_query",
]
