"""Out-of-core ingestion: CSV and SQL sources as streams of table chunks.

:func:`repro.etl.csvio.read_table` and :func:`repro.etl.sqlio.read_query`
materialise the whole input — per-cell Python objects for every row —
before a single transaction is encoded.  For 10M-row inputs that is the
dominant memory cost of the pipeline.  This module streams the same
sources as fixed-size :class:`~repro.etl.table.Table` chunks instead:

* :func:`stream_csv` — chunked counterpart of ``read_table`` (same
  multi-valued / integer column conventions, same blank-line and
  row-width semantics);
* :func:`stream_query` — chunked counterpart of ``read_query`` over a
  SQLite cursor (``fetchmany``), with the integer-column auto-detection
  decided on the first chunk and then *locked* so every chunk types its
  columns identically;
* :func:`iter_chunks` — split an already-materialised table (tests,
  small inputs).

Chunks feed :meth:`repro.itemsets.transactions.TransactionDatabase.from_chunks`
(or an :class:`~repro.itemsets.transactions.EncodeAccumulator` directly),
which folds them into a CSR transaction database bit-identical to the
one-shot encode — only ever holding one chunk of decoded cells plus the
accumulated (spillable) index buffers in memory.

Column typing is per-call, not inferred per chunk: pass the
``multi_valued`` / ``integer`` name sets explicitly, or pass a
``schema`` and both are derived from it (multi-valued flags; unit and
id columns as integers), so a chunk can never flip a column's kind
midway through the stream.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.errors import TableError
from repro.etl.csvio import SET_SEPARATOR, _parse_cell
from repro.etl.schema import Role, Schema
from repro.etl.table import (
    CategoricalColumn,
    Column,
    IntColumn,
    MultiValuedColumn,
    Table,
)

#: Default rows per chunk: large enough to amortise per-chunk numpy
#: overheads, small enough that one chunk's decoded cells stay a few MB.
DEFAULT_CHUNK_ROWS = 65536


def _schema_column_sets(schema: Schema) -> "tuple[set[str], set[str]]":
    """Derive the (multi_valued, integer) column-name sets of a schema."""
    multi = {s.name for s in schema.specs if s.multi_valued}
    ints = {s.name for s in schema.specs if s.role in (Role.UNIT, Role.ID)}
    return multi, ints


def _build_columns(
    names: "list[str]",
    values: "dict[str, list]",
    multi: "set[str]",
    ints: "set[str]",
) -> Table:
    """Type one chunk's raw per-column value lists into a Table."""
    built: "dict[str, Column]" = {}
    for name in names:
        if name in multi:
            built[name] = MultiValuedColumn.from_values(values[name])
        elif name in ints:
            built[name] = IntColumn.from_values(values[name])
        else:
            built[name] = CategoricalColumn.from_values(values[name])
    return Table(built)


def stream_csv(
    path: "str | Path",
    schema: "Schema | None" = None,
    multi_valued: "Iterable[str]" = (),
    integer: "Iterable[str]" = (),
    delimiter: str = ",",
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> "Iterator[Table]":
    """Stream a headed CSV file as tables of at most ``chunk_rows`` rows.

    Cell semantics match :func:`~repro.etl.csvio.read_table` exactly —
    ``|``-separated sets for ``multi_valued`` columns, integer parsing
    for ``integer`` columns, blank lines skipped (or an empty cell for a
    single-column file), row-width mismatches rejected — so
    concatenating the chunks reproduces ``read_table`` bit for bit.
    When ``schema`` is given, the multi-valued and integer column sets
    are derived from it instead.  A data-less file yields one empty
    chunk (so downstream schema validation still sees the columns).
    """
    if chunk_rows < 1:
        raise TableError("chunk_rows must be positive")
    if schema is not None:
        multi, ints = _schema_column_sets(schema)
    else:
        multi, ints = set(multi_valued), set(integer)
    path = Path(path)
    with path.open(newline="") as f:
        reader = csv.reader(f, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise TableError(f"{path} is empty") from None
        columns: "dict[str, list]" = {name: [] for name in header}
        pending = 0
        yielded = False
        for row in reader:
            if not row:
                if len(header) == 1:
                    row = [""]
                else:
                    continue
            if len(row) != len(header):
                raise TableError(
                    f"{path}: row of width {len(row)} does not match "
                    f"header of width {len(header)}"
                )
            for name, cell in zip(header, row):
                columns[name].append(
                    _parse_cell(cell, multi=name in multi,
                                integer=name in ints)
                )
            pending += 1
            if pending == chunk_rows:
                yield _build_columns(header, columns, multi, ints)
                columns = {name: [] for name in header}
                pending = 0
                yielded = True
        if pending or not yielded:
            yield _build_columns(header, columns, multi, ints)


def stream_query(
    database,
    sql: str,
    schema: "Schema | None" = None,
    multi_valued: "Iterable[str]" = (),
    integer: "Iterable[str]" = (),
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> "Iterator[Table]":
    """Stream a SQL result set as tables of at most ``chunk_rows`` rows.

    The chunked counterpart of :func:`~repro.etl.sqlio.read_query`:
    rows come off the cursor via ``fetchmany`` so the full result set is
    never materialised.  Cell conventions match ``read_query`` — multi-
    valued text cells split on ``|`` (None/empty -> empty set), None
    categorical cells become ``""``.  Columns not named in ``integer``
    are auto-detected as integer when the **first** chunk holds only
    ints; the decision is then locked, and a later chunk violating it
    raises :class:`~repro.errors.TableError` (instead of silently
    flipping the column kind midway).  An empty result set yields one
    empty chunk.
    """
    from repro.etl.sqlio import _connect

    if chunk_rows < 1:
        raise TableError("chunk_rows must be positive")
    if schema is not None:
        multi, ints = _schema_column_sets(schema)
    else:
        multi, ints = set(multi_valued), set(integer)
    conn, owned = _connect(database)
    try:
        cursor = conn.execute(sql)
        if cursor.description is None:
            raise TableError(f"query returned no result set: {sql!r}")
        names = [d[0] for d in cursor.description]
        locked_ints: "set[str] | None" = None
        yielded = False
        while True:
            rows = cursor.fetchmany(chunk_rows)
            if not rows:
                if not yielded:
                    yield _build_table_sql(names, [], multi, ints)
                break
            if locked_ints is None:
                locked_ints = set(ints)
                for j, name in enumerate(names):
                    if name in multi or name in locked_ints:
                        continue
                    if all(
                        isinstance(r[j], int) and not isinstance(r[j], bool)
                        for r in rows
                    ):
                        locked_ints.add(name)
            yield _build_table_sql(names, rows, multi, locked_ints)
            yielded = True
    finally:
        if owned:
            conn.close()


def _build_table_sql(
    names: "list[str]",
    rows: "list[tuple]",
    multi: "set[str]",
    ints: "set[str]",
) -> Table:
    """Type one SQL chunk with the locked column decisions."""
    built: "dict[str, Column]" = {}
    for j, name in enumerate(names):
        values = [r[j] for r in rows]
        if name in multi:
            built[name] = MultiValuedColumn.from_values(
                [
                    frozenset(str(v).split(SET_SEPARATOR))
                    if v not in (None, "")
                    else frozenset()
                    for v in values
                ]
            )
        elif name in ints:
            try:
                built[name] = IntColumn.from_values([int(v) for v in values])
            except (TypeError, ValueError):
                raise TableError(
                    f"column {name!r} held only integers in an earlier "
                    "chunk but now holds non-integer values; pass the "
                    "column explicitly via integer= or cast it in SQL"
                ) from None
        else:
            built[name] = CategoricalColumn.from_values(
                ["" if v is None else v for v in values]
            )
    return Table(built)


def iter_chunks(table: Table, chunk_rows: int) -> "Iterator[Table]":
    """Split an in-memory table into row chunks (an empty table yields
    one empty chunk).

    Column category universes are re-derived per chunk from the decoded
    values, exactly as a freshly parsed source chunk would carry them —
    so ``iter_chunks`` is a faithful stand-in for the file readers in
    chunked-encode parity tests.
    """
    if chunk_rows < 1:
        raise TableError("chunk_rows must be positive")
    n = len(table)
    names = table.names
    columns = {name: table.column(name) for name in names}
    multi = {n_ for n_, c in columns.items()
             if isinstance(c, MultiValuedColumn)}
    ints = {n_ for n_, c in columns.items() if isinstance(c, IntColumn)}
    for a in range(0, max(n, 1), chunk_rows):
        b = min(n, a + chunk_rows)
        values = {
            name: [col[i] for i in range(a, b)]
            for name, col in columns.items()
        }
        yield _build_columns(names, values, multi, ints)


def encode_stream(
    chunks: "Iterable[Table]",
    schema: Schema,
    spill_bytes: "int | None" = None,
    scratch_dir: "str | Path | None" = None,
):
    """Fold a chunk stream straight into a transaction database.

    Convenience alias of
    :meth:`~repro.itemsets.transactions.TransactionDatabase.from_chunks`
    living next to the readers, so the whole out-of-core path reads::

        db = encode_stream(stream_csv(path, schema=schema), schema)
    """
    from repro.itemsets.transactions import TransactionDatabase

    return TransactionDatabase.from_chunks(
        chunks, schema, spill_bytes=spill_bytes, scratch_dir=scratch_dir,
    )


__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "encode_stream",
    "iter_chunks",
    "stream_csv",
    "stream_query",
]
