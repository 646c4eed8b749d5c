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

import csv
import json
import os
import re
import sqlite3
import subprocess
import sys
import tempfile
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.etl.stream import ONE_CHUNK
from repro.store.timeline import read_timeline_manifest

from tests.oracles import (
    assert_same_db,
    encode_chunks,
    encode_reference,
    iter_chunks,
    type_cells_reference,
)


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


def assert_same_table(got: Table, want: Table) -> None:
    """Equal names, column kinds, categories (with their types), codes,
    offsets and integers, dtypes included."""
    assert got.names == want.names
    for name in want.names:
        g, w = got.column(name), want.column(name)
        assert type(g) is type(w), name
        if isinstance(w, IntColumn):
            assert g.data.dtype == w.data.dtype
            assert np.array_equal(g.data, w.data), name
            continue
        assert [(type(v), v) for v in g.categories] == [
            (type(v), v) for v in w.categories
        ], name
        assert g.codes.dtype == w.codes.dtype
        assert np.array_equal(g.codes, w.codes), name
        if isinstance(w, MultiValuedColumn):
            assert g.indptr.dtype == w.indptr.dtype
            assert np.array_equal(g.indptr, w.indptr), name


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
    # Two short rows hold as many cells as one full row: each row's
    # width is checked, not the chunk's cell count.
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n4\n")
    with pytest.raises(TableError, match="row of width 1 does not match "
                                         "header of width 2"):
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
    # A cell splits on every separator; one with an empty member cannot
    # be written back (format_set refuses it), so every reader refuses
    # it too, naming the column and the cell.
    def reads(cells):
        if source == "csv":
            path = tmp_path / "mv.csv"
            path.write_text("mv,k\n" + "".join(f"{c},x\n" for c in cells))
            return [lambda: read_table(path, multi_valued=["mv"]),
                    lambda: next(stream_csv(path, multi_valued=["mv"]))]
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (mv)")
        conn.executemany("INSERT INTO t VALUES (?)",
                         [(c,) for c in cells] + [(None,)])
        sql = "SELECT mv FROM t ORDER BY rowid"
        return [lambda: read_query(conn, sql, multi_valued=["mv"]),
                lambda: next(stream_query(conn, sql, multi_valued=["mv"]))]

    cells = ["", "b|a|a", "c", "a|b|c"]
    want = [frozenset(c.split("|")) if c else frozenset() for c in cells]
    want += [frozenset()] if source == "sql" else []
    for read in reads(cells):
        assert read().multivalued("mv").values() == want
    for bad in ["a||b", "|a", "a|", "|"]:
        for read in reads(["c", bad]):
            with pytest.raises(
                TableError, match=rf"column 'mv': cell '{re.escape(bad)}'"
            ):
                read()


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
# Column typing over distinct cells == per-cell typing
# ----------------------------------------------------------------------

_MEMBERS = ["a", "b", "c", "B", "é", "10", "9", "a b"]
_TEXT = st.text(alphabet='ab,é" ', max_size=4)
#: A multi-valued cell: members out of ``str`` order, repeats (``a|a``).
_SET_TEXT = st.lists(st.sampled_from(_MEMBERS), min_size=1,
                     max_size=4).map("|".join)


@st.composite
def _raw_cells(draw):
    """Raw cells of a categorical (``c``), a multi-valued (``m``) and
    an integer (``u``) column: drawn from small pools (repeated values,
    None and ``""``, values first seen in a later chunk) or all
    distinct; now and then a multi-valued cell with an empty member."""
    n = draw(st.integers(0, 24))
    if draw(st.booleans()):
        cat = draw(st.lists(_TEXT, min_size=n, max_size=n, unique=True))
        multi = draw(st.lists(_SET_TEXT, min_size=n, max_size=n,
                              unique=True))
    else:
        cat_pool = draw(st.lists(st.one_of(st.none(), _TEXT), min_size=1,
                                 max_size=4))
        set_pool = draw(st.lists(
            st.one_of(st.none(), st.just(""), _SET_TEXT),
            min_size=1, max_size=5,
        ))
        cat = draw(st.lists(st.sampled_from(cat_pool), min_size=n,
                            max_size=n))
        multi = draw(st.lists(st.sampled_from(set_pool), min_size=n,
                              max_size=n))
    if n and draw(st.integers(0, 7)) == 0:
        multi[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from(["a||b", "|a", "a|", "|"])
        )
    units = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return cat, multi, units


@pytest.mark.parametrize("chunk_rows", [1, 7, ONE_CHUNK],
                         ids=["1", "7", "one"])
@pytest.mark.parametrize("source", ["csv", "sql"])
@given(cells=_raw_cells())
@settings(max_examples=60, deadline=None)
def test_column_typing_matches_per_cell_reference(source, chunk_rows, cells):
    # Each chunk of either stream equals the per-cell reference over
    # that chunk's raw cells, or raises its error (the first offending
    # cell).  A CSV cell has no None: it reads as "".
    cat, multi, units = cells
    names = ["c", "m", "u"]
    with tempfile.TemporaryDirectory() as tmp:
        if source == "csv":
            cat = ["" if v is None else v for v in cat]
            multi = ["" if v is None else v for v in multi]
            units = [str(u) for u in units]
            path = Path(tmp) / "t.csv"
            with path.open("w", newline="", encoding="utf-8") as f:
                csv.writer(f).writerows([names, *zip(cat, multi, units)])
            stream = stream_csv(path, multi_valued=["m"], integer=["u"],
                                chunk_rows=chunk_rows)
        else:
            path = Path(tmp) / "t.db"
            with closing(sqlite3.connect(path)) as conn:
                conn.execute("CREATE TABLE t (c, m, u)")
                conn.executemany("INSERT INTO t VALUES (?, ?, ?)",
                                 list(zip(cat, multi, units)))
                conn.commit()
            stream = stream_query(path, "SELECT c, m, u FROM t ORDER BY rowid",
                                  multi_valued=["m"], integer=["u"],
                                  chunk_rows=chunk_rows)
        n = len(units)
        for a in range(0, max(n, 1), chunk_rows):
            raw = [column[a:a + chunk_rows] for column in (cat, multi, units)]
            try:
                want = type_cells_reference(names, raw, {"m"}, {"u"})
            except TableError as exc:
                with pytest.raises(TableError, match=re.escape(str(exc))):
                    next(stream)
                return
            assert_same_table(next(stream), want)
        assert next(stream, None) is None


def test_sql_numbers_in_a_multivalued_column():
    # 1 and 1.0 are one dict key but two texts: each row keeps its own
    # text's members.
    cells = [1, 1.0, "1|2", None, 2.5, 1, "2|1.0", ""]
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (m)")
    conn.executemany("INSERT INTO t VALUES (?)", [(c,) for c in cells])
    (chunk,) = stream_query(conn, "SELECT m FROM t ORDER BY rowid",
                            multi_valued=["m"])
    assert_same_table(chunk, type_cells_reference(["m"], [cells], {"m"},
                                                  set()))
    assert chunk.multivalued("m").values()[:2] == [
        frozenset({"1"}), frozenset({"1.0"})
    ]


def test_categorical_none_and_empty_are_one_category():
    # Whichever comes first, None and "" read as the one category "".
    for cells in ([None, "x", "", None], ["", "x", None, ""]):
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (c)")
        conn.executemany("INSERT INTO t VALUES (?)", [(c,) for c in cells])
        (chunk,) = stream_query(conn, "SELECT c FROM t ORDER BY rowid")
        column = chunk.categorical("c")
        assert column.categories == ["", "x"]
        assert column.codes.tolist() == [0, 1, 0, 0]


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
    streamed = encode_chunks(
        stream_csv(path, schema=schema, chunk_rows=11), schema
    )
    assert_same_db(streamed, encode_reference(table, schema))
