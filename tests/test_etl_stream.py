"""Chunked source readers: ``stream_csv`` / ``stream_query`` / ``iter_chunks``.

The streaming contract: concatenating a reader's chunks reproduces the
one-shot reader cell for cell, column typing is decided per call (never
flipped by a later chunk), and degenerate inputs (empty files, empty
result sets) still yield exactly one — empty — chunk so downstream
schema validation sees the columns.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.data.synthetic import random_final_table
from repro.errors import TableError
from repro.etl import (
    IntColumn,
    MultiValuedColumn,
    Table,
    encode_stream,
    iter_chunks,
    read_query,
    read_table,
    stream_csv,
    stream_query,
    write_table,
    write_table_sql,
)
from repro.itemsets.transactions import encode_table


@pytest.fixture()
def mixed_table():
    """A table exercising categorical, multi-valued and int columns."""
    table, schema = random_final_table(
        137, 6,
        sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 3},
        multi_valued_ca={"mv": 3},
        seed=9, skew=0.3,
    )
    return table, schema


def _rows(table: Table) -> list:
    return [
        tuple(row[name] for name in table.names)
        for row in table.iter_rows()
    ]


def _concat_rows(chunks) -> tuple[list, list]:
    names = None
    rows: list = []
    for chunk in chunks:
        if names is None:
            names = chunk.names
        else:
            assert chunk.names == names
        rows.extend(_rows(chunk))
    return names, rows


# ----------------------------------------------------------------------
# stream_csv
# ----------------------------------------------------------------------

@pytest.mark.parametrize("chunk_rows", [1, 7, 64, 10_000])
def test_stream_csv_matches_read_table(mixed_table, tmp_path, chunk_rows):
    table, schema = mixed_table
    path = tmp_path / "ft.csv"
    write_table(table, path)
    reference = read_table(path, multi_valued=["mv"], integer=["unitID"])
    names, rows = _concat_rows(
        stream_csv(path, multi_valued=["mv"], integer=["unitID"],
                   chunk_rows=chunk_rows)
    )
    assert names == reference.names
    assert rows == _rows(reference)


def test_stream_csv_schema_derives_column_sets(mixed_table, tmp_path):
    table, schema = mixed_table
    path = tmp_path / "ft.csv"
    write_table(table, path)
    chunk = next(stream_csv(path, schema=schema, chunk_rows=50))
    assert isinstance(chunk.column("mv"), MultiValuedColumn)
    assert isinstance(chunk.column("unitID"), IntColumn)
    assert len(chunk) == 50


def test_stream_csv_data_less_file_yields_one_empty_chunk(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("g,unitID\n")
    chunks = list(stream_csv(path, integer=["unitID"]))
    assert len(chunks) == 1
    assert len(chunks[0]) == 0
    assert chunks[0].names == ["g", "unitID"]


def test_stream_csv_rejects_empty_file_and_bad_rows(tmp_path):
    empty = tmp_path / "no_header.csv"
    empty.write_text("")
    with pytest.raises(TableError):
        list(stream_csv(empty))
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(TableError):
        list(stream_csv(ragged))


def test_stream_csv_rejects_bad_chunk_rows(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a\n1\n")
    with pytest.raises(TableError):
        list(stream_csv(path, chunk_rows=0))


# ----------------------------------------------------------------------
# stream_query
# ----------------------------------------------------------------------

@pytest.mark.parametrize("chunk_rows", [1, 7, 1000])
def test_stream_query_matches_read_query(mixed_table, tmp_path, chunk_rows):
    table, schema = mixed_table
    db_path = tmp_path / "ft.db"
    write_table_sql(table, db_path, "final")
    # The empty result set too: no values must not type a column int.
    for sql in ("SELECT * FROM final", "SELECT * FROM final WHERE 0"):
        reference = read_query(db_path, sql, multi_valued=["mv"])
        chunks = list(stream_query(db_path, sql, multi_valued=["mv"],
                                   chunk_rows=chunk_rows))
        names, rows = _concat_rows(chunks)
        assert names == reference.names
        assert rows == _rows(reference)
        kinds = [type(reference.column(name)) for name in names]
        for chunk in chunks:
            assert [type(chunk.column(name)) for name in names] == kinds


def test_stream_query_locks_int_detection_across_chunks():
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (x)")
    conn.executemany("INSERT INTO t VALUES (?)", [(1,), (2,), ("abc",)])
    stream = stream_query(conn, "SELECT x FROM t ORDER BY rowid",
                          chunk_rows=2)
    first = next(stream)
    assert isinstance(first.column("x"), IntColumn)
    with pytest.raises(TableError):
        next(stream)


def test_stream_query_empty_result_yields_one_empty_chunk():
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (x, y)")
    chunks = list(stream_query(conn, "SELECT x, y FROM t"))
    assert len(chunks) == 1
    assert len(chunks[0]) == 0
    assert chunks[0].names == ["x", "y"]


def test_stream_query_rejects_statements_without_result_set(tmp_path):
    conn = sqlite3.connect(":memory:")
    with pytest.raises(TableError):
        list(stream_query(conn, "CREATE TABLE t (x)"))


# ----------------------------------------------------------------------
# iter_chunks / encode_stream
# ----------------------------------------------------------------------

def test_iter_chunks_reproduces_table(mixed_table):
    table, _ = mixed_table
    names, rows = _concat_rows(iter_chunks(table, 13))
    assert names == table.names
    assert rows == _rows(table)


def test_iter_chunks_rederives_per_chunk_categories(mixed_table):
    # A chunk's categorical universe holds only the values it saw —
    # the property that makes iter_chunks a faithful stand-in for the
    # file readers in first-seen accumulation tests.
    table, _ = mixed_table
    chunk = next(iter_chunks(table, 3))
    assert set(chunk.column("r").categories) == set(
        chunk.column("r")[i] for i in range(3)
    )


def test_encode_stream_matches_one_shot_encode(mixed_table, tmp_path):
    table, schema = mixed_table
    path = tmp_path / "ft.csv"
    write_table(table, path)
    reference = encode_table(table, schema)
    streamed = encode_stream(
        stream_csv(path, schema=schema, chunk_rows=11), schema
    )
    assert (streamed._indptr == reference._indptr).all()
    assert (streamed._indices == reference._indices).all()
    assert (streamed.units == reference.units).all()
