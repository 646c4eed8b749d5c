"""SQL input: the reproduction of SCube's JDBC query path.

The paper's ``individuals`` input is "a CSV file or a JDBC query"
(§3).  The Python counterpart reads tables straight from a SQLite
database (stdlib ``sqlite3``) — any query result with a header becomes a
:class:`~repro.etl.table.Table`.  Reading is
:func:`~repro.etl.stream.stream_query` taken as one chunk, under the
cell rules the CSV reader shares (an integer cell is an ``int`` or
integer text, never a truncated REAL); this module adds the connection
helper and the writer, which writes a set cell through
:func:`~repro.etl.stream.format_set` as the CSV writer does.
"""

from __future__ import annotations

import sqlite3
from collections.abc import Iterable
from pathlib import Path
from typing import Union

from repro.errors import TableError
from repro.etl.stream import ONE_CHUNK, format_set, stream_query
from repro.etl.table import IntColumn, Table

Connection = Union[str, Path, sqlite3.Connection]


def _connect(database: Connection) -> tuple[sqlite3.Connection, bool]:
    if isinstance(database, sqlite3.Connection):
        return database, False
    return sqlite3.connect(str(database)), True


def read_query(
    database: Connection,
    sql: str,
    multi_valued: Iterable[str] = (),
    integer: Iterable[str] = (),
) -> Table:
    """Run ``sql`` and materialise the result set as a :class:`Table`.

    The single chunk of :func:`~repro.etl.stream.stream_query`, which
    holds the cell rules.

    Parameters
    ----------
    database:
        A path to a SQLite file or an open connection (left open).
    multi_valued:
        Result columns whose text cells are ``|``-separated value sets.
    integer:
        Result columns to coerce to integers (ids, unit ids).  Columns
        already typed INTEGER by SQLite are detected automatically when
        the result has rows; an empty result types only these as
        integers.
    """
    (table,) = stream_query(
        database, sql, multi_valued=multi_valued, integer=integer,
        chunk_rows=ONE_CHUNK,
    )
    return table


def write_table_sql(
    table: Table, database: Connection, table_name: str
) -> None:
    """Write a :class:`Table` into a new SQLite table.

    Multi-valued cells are serialised by
    :func:`~repro.etl.stream.format_set` (the CSV convention), so
    :func:`read_query` round-trips them; a set it refuses raises
    :class:`~repro.errors.TableError` before the database is touched.
    An existing table of that name makes SQLite's ``CREATE TABLE``
    fail.
    """
    if not table_name.replace("_", "").isalnum():
        raise TableError(f"unsafe table name {table_name!r}")
    names = table.names
    rows = [
        tuple(
            format_set(name, value)
            if isinstance(value, (frozenset, set)) else value
            for name, value in row.items()
        )
        for row in table.iter_rows()
    ]
    conn, owned = _connect(database)
    try:
        column_defs = []
        for name in names:
            col = table.column(name)
            sql_type = "INTEGER" if isinstance(col, IntColumn) else "TEXT"
            column_defs.append(f'"{name}" {sql_type}')
        conn.execute(
            f'CREATE TABLE "{table_name}" ({", ".join(column_defs)})'
        )
        placeholders = ", ".join("?" for _ in names)
        conn.executemany(
            f'INSERT INTO "{table_name}" VALUES ({placeholders})', rows
        )
        conn.commit()
    finally:
        if owned:
            conn.close()
