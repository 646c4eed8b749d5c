"""Tests of the column-oriented Table and its column kinds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TableError
from repro.etl.table import (
    CategoricalColumn,
    IntColumn,
    MultiValuedColumn,
    Table,
)


class TestCategoricalColumn:
    def test_from_values_round_trip(self):
        col = CategoricalColumn.from_values(["a", "b", "a", "c"])
        assert col.values() == ["a", "b", "a", "c"]
        assert col.categories == ["a", "b", "c"]

    def test_code_of_and_mask(self):
        col = CategoricalColumn.from_values(["x", "y", "x"])
        assert col.codes.tolist() == [0, 1, 0]
        assert col.mask_eq("x").tolist() == [True, False, True]

    def test_mask_of_unseen_value_is_all_false(self):
        col = CategoricalColumn.from_values(["x"])
        assert col.mask_eq("zzz").tolist() == [False]

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(TableError):
            CategoricalColumn([0, 5], ["a", "b"])
        with pytest.raises(TableError):
            CategoricalColumn([-1], ["a"])

    def test_take_reorders(self):
        col = CategoricalColumn.from_values(["a", "b", "c"])
        taken = col.take(np.array([2, 0]))
        assert taken.values() == ["c", "a"]


class TestMultiValuedColumn:
    def test_from_values_round_trip(self):
        col = MultiValuedColumn.from_values([{"a", "b"}, set(), {"b"}])
        assert col.values() == [
            frozenset({"a", "b"}),
            frozenset(),
            frozenset({"b"}),
        ]

    def test_duplicates_within_row_collapsed(self):
        col = MultiValuedColumn.from_values([["a", "a", "b"]])
        assert col[0] == frozenset({"a", "b"})

    def test_mask_contains(self):
        col = MultiValuedColumn.from_values([{"a"}, {"b"}, {"a", "b"}])
        assert col.mask_contains("a").tolist() == [True, False, True]
        assert col.mask_contains("zzz").tolist() == [False, False, False]

    def test_take(self):
        col = MultiValuedColumn.from_values([{"a"}, {"b"}])
        assert col.take(np.array([1])).values() == [frozenset({"b"})]

    def test_codes_first_seen_then_str_order_within_a_row(self):
        col = MultiValuedColumn.from_values([{"z"}, {"b", "z", "a"}, ["c"]])
        assert col.categories == ["z", "a", "b", "c"]
        assert col.indptr.tolist() == [0, 1, 4, 5]
        assert col.codes.tolist() == [0, 0, 1, 2, 3]

    @pytest.mark.parametrize("indptr, codes, match", [
        ([1, 1], [0], "start at 0"),
        ([], [], "start at 0"),
        ([0, 2, 1, 2], [0, 1], "not decrease"),
        ([0, 1], [0, 1], "end at"),
        ([0, 1], [2], "out of range"),
        ([0, 1], [-1], "out of range"),
        ([0, 2], [1, 0], "strictly increasing"),
        ([0, 0, 2], [1, 1], "strictly increasing"),
    ])
    def test_csr_constructor_rejects(self, indptr, codes, match):
        with pytest.raises(TableError, match=match):
            MultiValuedColumn(indptr, codes, ["a", "b"])

    @given(
        st.lists(st.frozensets(st.sampled_from("abcde"), max_size=4),
                 max_size=12),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_row_reference(self, rows, data):
        col = MultiValuedColumn.from_values(rows)
        assert col.values() == rows
        assert [col[i] for i in range(len(rows))] == rows
        for value in "abcdef":
            assert col.mask_contains(value).tolist() == [
                value in row for row in rows
            ]
        positions = data.draw(st.lists(
            st.integers(0, max(len(rows) - 1, 0)), max_size=8 if rows else 0,
        ))
        taken = col.take(np.array(positions, dtype=np.int64))
        assert taken.values() == [rows[p] for p in positions]
        assert taken.categories == col.categories


class TestIntColumn:
    def test_round_trip(self):
        col = IntColumn.from_values([3, 1, 2])
        assert col.values() == [3, 1, 2]
        assert col[1] == 1

    def test_mask_eq(self):
        col = IntColumn([1, 2, 1])
        assert col.mask_eq(1).tolist() == [True, False, True]


class TestTableConstruction:
    def test_from_rows_infers_kinds(self):
        table = Table.from_rows(
            ["name", "tags", "n"],
            [("a", {"x"}, 1), ("b", {"y", "z"}, 2)],
        )
        assert isinstance(table.column("name"), CategoricalColumn)
        assert isinstance(table.column("tags"), MultiValuedColumn)
        assert isinstance(table.column("n"), IntColumn)

    def test_from_dict(self):
        table = Table.from_dict({"a": ["x", "y"], "b": [1, 2]})
        assert len(table) == 2
        assert table.names == ["a", "b"]

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(TableError, match="width"):
            Table.from_rows(["a", "b"], [("x",)])

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(TableError, match="differing lengths"):
            Table(
                {
                    "a": CategoricalColumn.from_values(["x"]),
                    "b": CategoricalColumn.from_values(["x", "y"]),
                }
            )

    def test_bool_column_is_categorical(self):
        table = Table.from_dict({"flag": [True, False]})
        assert isinstance(table.column("flag"), CategoricalColumn)


class TestTableOperations:
    @pytest.fixture()
    def table(self):
        return Table.from_dict(
            {
                "g": ["F", "M", "F", "M"],
                "unit": [0, 0, 1, 1],
                "tags": [{"a"}, {"b"}, {"a", "b"}, set()],
            }
        )

    def test_filter_by_bool_mask(self, table):
        filtered = table.filter(np.array([True, False, True, False]))
        assert len(filtered) == 2
        assert filtered.categorical("g").values() == ["F", "F"]

    def test_filter_by_positions(self, table):
        filtered = table.filter(np.array([3, 0]))
        assert filtered.ints("unit").values() == [1, 0]

    def test_row_decodes(self, table):
        row = table.row(2)
        assert row == {"g": "F", "unit": 1, "tags": frozenset({"a", "b"})}

    def test_row_out_of_range(self, table):
        with pytest.raises(TableError):
            table.row(4)

    def test_with_column_replaces(self, table):
        new = table.with_column("unit", IntColumn([9, 9, 9, 9]))
        assert new.ints("unit").values() == [9, 9, 9, 9]
        assert table.ints("unit").values() == [0, 0, 1, 1]

    def test_with_column_length_checked(self, table):
        with pytest.raises(TableError):
            table.with_column("bad", IntColumn([1]))

    def test_without_columns(self, table):
        assert table.without_columns(["tags"]).names == ["g", "unit"]

    def test_missing_column_raises(self, table):
        with pytest.raises(TableError, match="no column"):
            table.column("nope")

    def test_kind_assertions(self, table):
        with pytest.raises(TableError, match="expected categorical"):
            table.categorical("unit")
        with pytest.raises(TableError, match="expected multivalued"):
            table.multivalued("g")
        with pytest.raises(TableError, match="expected int"):
            table.ints("g")

    def test_head_and_iter_rows(self, table):
        assert len(table.head(2)) == 2
        assert len(list(table.iter_rows())) == 4

    def test_contains(self, table):
        assert "g" in table
        assert "zzz" not in table
