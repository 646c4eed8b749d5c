"""Tests of cube navigation, slicing, ranking and export."""

from __future__ import annotations

import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.coordinates import make_key
from repro.etl.schema import Schema
from repro.etl.table import Table


@pytest.fixture(scope="module")
def cube():
    rows = []
    rows += [("F", "x", 0)] * 9 + [("F", "x", 1)] * 1
    rows += [("M", "x", 0)] * 1 + [("M", "x", 1)] * 9
    rows += [("F", "y", 2)] * 5 + [("F", "y", 3)] * 5
    rows += [("M", "y", 2)] * 5 + [("M", "y", 3)] * 5
    table = Table.from_rows(["sex", "ctx", "unitID"], rows)
    schema = Schema.build(segregation=["sex"], context=["ctx"], unit="unitID")
    return SegregationDataCubeBuilder(min_population=1, min_minority=1).build(table, schema)


class TestLookup:
    def test_point_query(self, cube):
        cell = cube.cell(sa={"sex": "F"}, ca={"ctx": "x"})
        assert cell.minority == 10
        assert cell.value("D") == pytest.approx(0.8)

    def test_value_shortcut(self, cube):
        assert cube.value("D", sa={"sex": "F"}, ca={"ctx": "x"}) == (
            pytest.approx(0.8)
        )

    def test_missing_cell_returns_nan_value(self, cube):
        import math

        # ctx attribute value exists but pairing with huge thresholds is
        # resolved by the lazy resolver; an unknown value raises instead.
        assert math.isnan(cube.value("ZZZ", sa={"sex": "F"}))

    def test_contains_and_iteration(self, cube):
        assert len(cube) == len(list(iter(cube)))
        assert make_key([], []) in cube


class TestNavigation:
    def test_children_refine_by_one(self, cube):
        root = make_key([], [])
        children = cube.children(root)
        assert all(c.depth() == 1 for c in children)
        # sex=F, sex=M, ctx=x, ctx=y
        assert len(children) == 4

    def test_parents_roll_up(self, cube):
        cell = cube.cell(sa={"sex": "F"}, ca={"ctx": "x"})
        parents = cube.parents(cell.key)
        descriptions = {cube.describe(p.key) for p in parents}
        assert "[sex=F | *]" in descriptions
        assert "[* | ctx=x]" in descriptions

    def test_slice_fixes_coordinates(self, cube):
        cells = cube.slice(ca={"ctx": "x"})
        assert all("ctx=x" in cube.describe(c.key) for c in cells)
        assert len(cells) == 3            # (*|x), (F|x), (M|x)


class TestTop:
    def test_top_ranks_descending(self, cube):
        top = cube.top("D", k=2)
        assert top[0].value("D") >= top[1].value("D")
        assert top[0].value("D") == pytest.approx(0.8)

    def test_top_excludes_context_only(self, cube):
        for cell in cube.top("D", k=100):
            assert not cell.is_context_only

    def test_top_respects_filters(self, cube):
        top = cube.top("D", k=10, min_minority=11)
        assert all(c.minority >= 11 for c in top)


class TestExport:
    def test_to_rows_has_all_columns(self, cube):
        rows = cube.to_rows()
        assert len(rows) == len(cube)
        first = rows[0]
        for column in ("sex", "ctx", "T", "M", "P", "units", "D", "G"):
            assert column in first

    def test_to_rows_renders_stars_and_dashes(self, cube):
        rows = cube.to_rows()
        root = next(r for r in rows if r["sex"] == "*" and r["ctx"] == "*")
        assert root["D"] == ""            # context-only -> blank metric
        assert root["T"] == 40            # the full table

    def test_attribute_lists(self, cube):
        assert cube.sa_attributes() == ["sex"]
        assert cube.ca_attributes() == ["ctx"]

    def test_repr(self, cube):
        assert "SegregationCube" in repr(cube)
