"""Tests of the SQLite input path (the paper's JDBC query input)."""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import TableError
from repro.etl.sqlio import read_query, write_table_sql
from repro.etl.table import IntColumn, Table


@pytest.fixture()
def conn():
    connection = sqlite3.connect(":memory:")
    connection.execute(
        "CREATE TABLE individuals (directorID INTEGER, gender TEXT, "
        "sectors TEXT)"
    )
    connection.executemany(
        "INSERT INTO individuals VALUES (?, ?, ?)",
        [
            (0, "F", "education|health"),
            (1, "M", "construction"),
            (2, "F", ""),
        ],
    )
    connection.commit()
    yield connection
    connection.close()


class TestReadQuery:
    def test_basic_select(self, conn):
        table = read_query(conn, "SELECT directorID, gender FROM individuals")
        assert len(table) == 3
        assert isinstance(table.column("directorID"), IntColumn)
        assert table.categorical("gender").values() == ["F", "M", "F"]

    def test_multi_valued_column(self, conn):
        table = read_query(
            conn,
            "SELECT gender, sectors FROM individuals",
            multi_valued=["sectors"],
        )
        assert table.multivalued("sectors").values() == [
            frozenset({"education", "health"}),
            frozenset({"construction"}),
            frozenset(),
        ]

    def test_projection_and_where(self, conn):
        table = read_query(
            conn,
            "SELECT gender FROM individuals WHERE gender = 'F'",
        )
        assert len(table) == 2

    def test_integer_coercion_from_text(self, conn):
        conn.execute("CREATE TABLE t (x TEXT)")
        conn.execute("INSERT INTO t VALUES ('42')")
        table = read_query(conn, "SELECT x FROM t", integer=["x"])
        assert table.ints("x").values() == [42]

    def test_integer_coercion_failure(self, conn):
        # Text int() rejects, and a REAL that int() would truncate.
        for sql_type, cell in [("TEXT", "abc"), ("REAL", 3.7)]:
            conn.execute("DROP TABLE IF EXISTS t")
            conn.execute(f"CREATE TABLE t (x {sql_type})")
            conn.execute("INSERT INTO t VALUES (?)", (cell,))
            with pytest.raises(TableError, match="non-integer"):
                read_query(conn, "SELECT x FROM t", integer=["x"])

    def test_null_becomes_empty_string(self, conn):
        conn.execute("CREATE TABLE t (x TEXT)")
        conn.execute("INSERT INTO t VALUES (NULL)")
        table = read_query(conn, "SELECT x FROM t")
        assert table.categorical("x").values() == [""]

    def test_path_based_connection(self, tmp_path):
        db = tmp_path / "data.sqlite"
        with sqlite3.connect(db) as connection:
            connection.execute("CREATE TABLE t (n INTEGER)")
            connection.execute("INSERT INTO t VALUES (7)")
            connection.commit()
        table = read_query(db, "SELECT n FROM t")
        assert table.ints("n").values() == [7]


class TestWriteTableSql:
    def test_round_trip(self, tmp_path):
        db = tmp_path / "rt.sqlite"
        table = Table.from_dict(
            {
                "gender": ["F", "M"],
                "tags": [{"a", "b"}, set()],
                "unitID": [0, 1],
            }
        )
        write_table_sql(table, db, "final")
        back = read_query(
            db, "SELECT * FROM final", multi_valued=["tags"],
        )
        assert back.categorical("gender").values() == ["F", "M"]
        assert back.multivalued("tags").values() == [
            frozenset({"a", "b"}),
            frozenset(),
        ]
        assert back.ints("unitID").values() == [0, 1]

    def test_fail_on_existing(self, tmp_path):
        db = tmp_path / "f.sqlite"
        table = Table.from_dict({"x": ["a"]})
        write_table_sql(table, db, "t")
        with pytest.raises(sqlite3.OperationalError):
            write_table_sql(table, db, "t")

    def test_invalid_arguments(self, tmp_path):
        table = Table.from_dict({"x": ["a"]})
        with pytest.raises(TableError, match="unsafe"):
            write_table_sql(table, tmp_path / "x.sqlite", "t; DROP")


class TestSqlToPipeline:
    def test_cube_from_sql_query(self, tmp_path):
        """The paper's JDBC path: query -> finalTable -> cube."""
        from repro.cube.builder import SegregationDataCubeBuilder
        from repro.etl.schema import Schema

        db = tmp_path / "pipeline.sqlite"
        source = Table.from_dict(
            {
                "gender": ["F"] * 8 + ["M"] * 2 + ["F"] * 2 + ["M"] * 8,
                "unitID": [0] * 10 + [1] * 10,
            }
        )
        write_table_sql(source, db, "final")
        table = read_query(db, "SELECT gender, unitID FROM final")
        schema = Schema.build(segregation=["gender"], unit="unitID")
        cube = SegregationDataCubeBuilder(min_population=1, min_minority=1).build(table, schema)
        assert cube.value("D", sa={"gender": "F"}) == pytest.approx(0.6)
