"""Source readers: ``stream_csv`` / ``stream_query`` and their one-chunk reads.

``read_table`` and ``read_query`` are the streams read as one chunk, so
the readers are checked against the table that was written, not against
each other: the chunks of every chunk size, and the one-shot read,
reproduce the written table cell for cell and column kind for column
kind.  Column typing is decided per call (never flipped by a later
chunk), degenerate inputs (empty files, empty result sets) still yield
exactly one — empty — chunk so downstream schema validation sees the
columns, and a repeated column name is rejected.  Multi-valued codes
are assigned in ``str`` order within a row, so a CSV read in two
processes under different hash seeds gives one vocabulary.  An integer
cell is never truncated (a later chunk's float raises), and both
writers refuse a set the readers could not read back.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.data.synthetic import random_final_table
from repro.errors import TableError
from repro.etl import (
    IntColumn,
    MultiValuedColumn,
    Table,
    read_query,
    read_table,
    stream_csv,
    stream_query,
    write_table,
    write_table_sql,
)
from repro.itemsets.transactions import TransactionDatabase
from repro.store.timeline import read_timeline_manifest

from tests.oracles import assert_same_db, encode_reference, iter_chunks


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


def assert_reproduces(source: Table, chunks) -> None:
    """The chunks hold ``source`` cell for cell, in its column kinds."""
    chunks = list(chunks)
    names, rows = _concat_rows(chunks)
    assert names == source.names
    assert rows == _rows(source)
    kinds = [source.column(name).kind for name in names]
    for chunk in chunks:
        assert [chunk.column(name).kind for name in names] == kinds


# ----------------------------------------------------------------------
# stream_csv / read_table
# ----------------------------------------------------------------------

@pytest.mark.parametrize("chunk_rows", [1, 7, 64, 10_000])
def test_stream_csv_matches_read_table(mixed_table, tmp_path, chunk_rows):
    table, schema = mixed_table
    path = tmp_path / "ft.csv"
    write_table(table, path)
    assert_reproduces(table, stream_csv(
        path, multi_valued=["mv"], integer=["unitID"], chunk_rows=chunk_rows,
    ))
    assert_reproduces(table, [
        read_table(path, multi_valued=["mv"], integer=["unitID"])
    ])


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
# stream_query / read_query
# ----------------------------------------------------------------------

@pytest.mark.parametrize("chunk_rows", [1, 7, 1000])
def test_stream_query_matches_read_query(mixed_table, tmp_path, chunk_rows):
    table, schema = mixed_table
    db_path = tmp_path / "ft.db"
    write_table_sql(table, db_path, "final")
    sql = "SELECT * FROM final"
    assert_reproduces(table, stream_query(
        db_path, sql, multi_valued=["mv"], chunk_rows=chunk_rows,
    ))
    assert_reproduces(table, [read_query(db_path, sql, multi_valued=["mv"])])
    # An empty result set: no values must not type a column int.
    sql = "SELECT * FROM final WHERE 0"
    for chunks in (
        list(stream_query(db_path, sql, multi_valued=["mv"],
                          chunk_rows=chunk_rows)),
        [read_query(db_path, sql, multi_valued=["mv"])],
    ):
        assert [len(chunk) for chunk in chunks] == [0]
        assert [chunks[0].column(name).kind for name in table.names] == [
            "multivalued" if name == "mv" else "categorical"
            for name in table.names
        ]


def test_stream_query_locks_int_detection_across_chunks():
    # The first chunk locks ``x`` as integer; a later chunk's text or
    # float raises (2.9 must not read as 2).
    for later in ("abc", 2.9):
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (x)")
        conn.executemany("INSERT INTO t VALUES (?)",
                         [(1,), (2,), (later,)])
        stream = stream_query(conn, "SELECT x FROM t ORDER BY rowid",
                              chunk_rows=2)
        first = next(stream)
        assert first.ints("x").values() == [1, 2]
        with pytest.raises(TableError, match="non-integer"):
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


@pytest.mark.parametrize("source", ["csv", "sql"])
def test_repeated_column_name_rejected(tmp_path, source):
    if source == "csv":
        path = tmp_path / "repeated.csv"
        path.write_text("v,w,v\na,x,p\nb,y,q\n")
        reads = [lambda: read_table(path), lambda: list(stream_csv(path))]
    else:
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (x, y)")
        conn.executemany("INSERT INTO t VALUES (?, ?)",
                         [("a", "p"), ("b", "q")])
        sql = "SELECT x AS v, y AS v FROM t"
        reads = [lambda: read_query(conn, sql),
                 lambda: list(stream_query(conn, sql, chunk_rows=1))]
    for read in reads:
        with pytest.raises(TableError, match="repeated column name 'v'"):
            read()


@pytest.mark.parametrize("source", ["csv", "sql"])
def test_multivalued_cells_split_on_every_separator(tmp_path, source):
    cells = ["a||b", "|", "", "b|a|a", "c", "|c|"]
    want = [frozenset(c.split("|")) if c else frozenset() for c in cells]
    if source == "csv":
        path = tmp_path / "mv.csv"
        path.write_text("mv,k\n" + "".join(f"{c},x\n" for c in cells))
        reads = [lambda: read_table(path, multi_valued=["mv"]),
                 lambda: next(stream_csv(path, multi_valued=["mv"]))]
    else:
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (mv)")
        conn.executemany("INSERT INTO t VALUES (?)",
                         [(c,) for c in cells] + [(None,)])
        want.append(frozenset())
        sql = "SELECT mv FROM t ORDER BY rowid"
        reads = [lambda: read_query(conn, sql, multi_valued=["mv"]),
                 lambda: next(stream_query(conn, sql, multi_valued=["mv"]))]
    for read in reads:
        assert read().multivalued("mv").values() == want


@pytest.mark.parametrize("member", [
    pytest.param("a|b", id="pipe"), pytest.param("", id="empty"),
])
@pytest.mark.parametrize("source", ["csv", "sql"])
def test_writers_refuse_sets_that_cannot_round_trip(tmp_path, source,
                                                    member):
    # Written as is, {"a|b"} would read back as {"a", "b"} and {""} as
    # the empty set; each writer raises before it writes anything.
    table = Table({
        "k": IntColumn([0, 1]),
        "mv": MultiValuedColumn.from_values([{"c"}, {member}]),
    })
    expected = re.escape(f"column 'mv': set member {member!r}")
    if source == "csv":
        path = tmp_path / "mv.csv"
        with pytest.raises(TableError, match=expected):
            write_table(table, path)
        assert not path.exists()
    else:
        conn = sqlite3.connect(":memory:")
        with pytest.raises(TableError, match=expected):
            write_table_sql(table, conn, "t")
        assert conn.execute(
            "SELECT name FROM sqlite_master WHERE name = 't'"
        ).fetchall() == []


# ----------------------------------------------------------------------
# Hash-seed independence of multi-valued codes
# ----------------------------------------------------------------------

_PUBLISH = """
import json, sys
from repro.cube.builder import SegregationDataCubeBuilder
from repro.etl import Schema, read_table
from repro.store.timeline import dump_into_timeline

path, root, date, parent = sys.argv[1:]
table = read_table(path, multi_valued=["mv"], integer=["unitID"])
schema = Schema.build(segregation=["g", "a"], context=["r", "mv"],
                      unit="unitID", multi_valued=["mv"])
cube = SegregationDataCubeBuilder(min_population=5,
                                  min_minority=2).build(table, schema)
dump_into_timeline(root, int(date), cube,
                   parent_date=None if parent == "-" else int(parent))
print(json.dumps(table.multivalued("mv").categories))
"""


def test_multivalued_categories_ignore_hash_seed(tmp_path):
    # Two processes read one CSV under different hash seeds; the second
    # publishes a delta onto the first's date, which needs the same
    # item vocabulary.  In this table a row first shows two of the
    # multi-valued values together.
    table, _ = random_final_table(
        137, 6,
        sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 3},
        multi_valued_ca={"mv": 4},
        seed=0, skew=0.3,
    )
    path = tmp_path / "ft.csv"
    write_table(table, path)
    src = str(Path(repro.__file__).resolve().parents[1])
    categories = []
    for seed, date, parent in (("1", "1", "-"), ("2", "2", "1")):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _PUBLISH, str(path),
             str(tmp_path / "timeline"), date, parent],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        categories.append(json.loads(proc.stdout))
    assert categories[0] == categories[1]
    dates = read_timeline_manifest(tmp_path / "timeline")["dates"]
    assert dates["2"]["chain_length"] == 1      # a delta on date 1


# ----------------------------------------------------------------------
# iter_chunks (the test-side chunker) and the streamed encode
# ----------------------------------------------------------------------

def test_iter_chunks_reproduces_table(mixed_table):
    table, _ = mixed_table
    assert_reproduces(table, iter_chunks(table, 13))


def test_iter_chunks_rederives_per_chunk_categories(mixed_table):
    # A chunk's categorical universe holds only the values it saw —
    # the property that makes iter_chunks a faithful stand-in for the
    # file readers in first-seen accumulation tests.
    table, _ = mixed_table
    chunk = next(iter_chunks(table, 3))
    assert set(chunk.column("r").categories) == set(
        chunk.column("r")[i] for i in range(3)
    )


def test_from_chunks_over_stream_csv_matches_reference(mixed_table, tmp_path):
    table, schema = mixed_table
    path = tmp_path / "ft.csv"
    write_table(table, path)
    streamed = TransactionDatabase.from_chunks(
        stream_csv(path, schema=schema, chunk_rows=11), schema
    )
    assert_same_db(streamed, encode_reference(table, schema))
