"""Ingestion: CSV and SQL sources as streams of table chunks.

These are the package's only readers.  :func:`stream_csv` and
:func:`stream_query` read a source as :class:`~repro.etl.table.Table`
chunks of at most ``chunk_rows`` rows; the one-shot readers
:func:`repro.etl.csvio.read_table` and :func:`repro.etl.sqlio.read_query`
are the same streams read as one chunk of :data:`ONE_CHUNK` rows.

Both streams type a chunk through :func:`_type_columns`, one column at a
time, under one set of cell rules:

* a multi-valued cell is a ``|``-separated value set; None and ``""``
  are the empty set;
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
:class:`~repro.errors.TableError` instead of being written.

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
            # One join and one split for the whole column; a non-empty
            # cell holds one more value than it has separators.
            texts = ["" if v is None else str(v) for v in values]
            joined = SET_SEPARATOR.join(filter(None, texts))
            built[name] = MultiValuedColumn.from_flat(
                [t.count(SET_SEPARATOR) + 1 if t else 0 for t in texts],
                joined.split(SET_SEPARATOR) if joined else [],
            )
        elif name in ints:
            built[name] = _int_column(name, values)
        else:
            built[name] = CategoricalColumn.from_values(
                ["" if v is None else v for v in values]
            )
    return Table(built)


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
    Blank lines are skipped (in a single-column file one is an empty
    cell), and a row whose width differs from the header's is rejected.
    A data-less file yields one empty chunk (so downstream schema
    validation still sees the columns).
    """
    if chunk_rows < 1:
        raise TableError("chunk_rows must be positive")
    multi, ints = _column_sets(schema, multi_valued, integer)
    path = Path(path)
    with path.open(newline="") as f:
        reader = csv.reader(f, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise TableError(f"{path} is empty")
        # Cells go straight into per-column lists: holding the rows'
        # lists instead makes the garbage collector walk them (reading
        # 400k rows took 2.6x as long that way on a 2-vCPU host).
        columns: "list[list[str]]" = [[] for _ in header]
        pending = 0
        yielded = False
        for row in reader:
            if not row:
                # csv yields [] for a blank line: an empty cell in a
                # single-column file, a stray line to skip otherwise.
                if len(header) != 1:
                    continue
                row = [""]
            if len(row) != len(header):
                raise TableError(
                    f"{path}: row of width {len(row)} does not match "
                    f"header of width {len(header)}"
                )
            for column, cell in zip(columns, row):
                column.append(cell)
            pending += 1
            if pending == chunk_rows:
                yield _type_columns(header, columns, multi, ints)
                columns = [[] for _ in header]
                pending = 0
                yielded = True
        if pending or not yielded:
            yield _type_columns(header, columns, multi, ints)


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
