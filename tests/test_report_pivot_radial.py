"""Tests of the Fig. 1 pivot and Fig. 5 radial renderings."""

from __future__ import annotations

import math

import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.errors import ReportError
from repro.etl.schema import Schema
from repro.etl.table import Table
from repro.report.pivot import pivot, pivot_values
from repro.report.radial import radial_series, render_radial


@pytest.fixture(scope="module")
def cube():
    rows = []
    for region, spread in (("north", (9, 1)), ("south", (5, 5))):
        a, b = spread
        rows += [("F", "young", region, 0)] * a + [("F", "young", region, 1)] * b
        rows += [("M", "young", region, 0)] * b + [("M", "young", region, 1)] * a
        rows += [("F", "elder", region, 0)] * 5 + [("F", "elder", region, 1)] * 5
        rows += [("M", "elder", region, 0)] * 5 + [("M", "elder", region, 1)] * 5
    table = Table.from_rows(["sex", "age", "region", "unitID"], rows)
    schema = Schema.build(segregation=["sex", "age"], context=["region"],
                          unit="unitID")
    return SegregationDataCubeBuilder(min_population=1, min_minority=1).build(table, schema)


class TestPivotValues:
    def test_axes_and_star(self, cube):
        row_labels, col_labels, matrix = pivot_values(
            cube, "D", "sex", "region", fixed_sa={"age": "young"}
        )
        assert row_labels == ["F", "M", "*"]
        assert col_labels == ["north", "south", "*"]
        assert len(matrix) == 3 and len(matrix[0]) == 3

    def test_cell_values_match_point_queries(self, cube):
        _, _, matrix = pivot_values(cube, "D", "sex", "region")
        expected = cube.value("D", sa={"sex": "F"}, ca={"region": "north"})
        assert matrix[0][0] == pytest.approx(expected)

    def test_star_row_is_coarser_cell(self, cube):
        row_labels, _, matrix = pivot_values(cube, "D", "sex", "region")
        star_row = matrix[row_labels.index("*")]
        # (⋆ SA | region) cells are context-only -> nan.
        assert all(math.isnan(v) for v in star_row[:2])

    def test_same_attribute_rejected(self, cube):
        with pytest.raises(ReportError):
            pivot_values(cube, "D", "sex", "sex")

    def test_unknown_attribute_rejected(self, cube):
        with pytest.raises(ReportError):
            pivot_values(cube, "D", "sex", "nope")

    def test_two_sa_attributes(self, cube):
        row_labels, col_labels, matrix = pivot_values(cube, "D", "sex", "age")
        value = cube.value("D", sa={"sex": "F", "age": "young"})
        assert matrix[0][0] == pytest.approx(value)


class TestPivotRendering:
    def test_fig1_style_output(self, cube):
        text = pivot(cube, "D", "sex", "region")
        lines = text.splitlines()
        assert "sex \\ region" in lines[0]
        assert "north" in lines[0]
        assert "-" in text               # nan cells rendered as dash
        assert any(line.startswith("F") for line in lines)


class TestRadial:
    def test_series_covers_all_context_values(self, cube):
        series = radial_series(cube, "region", sa={"sex": "F"})
        assert series.labels == ["north", "south"]
        assert series.index_names == cube.metadata.index_names
        north = dict(zip(series.index_names,
                         series.values[series.labels.index("north")]))
        assert north["D"] == pytest.approx(
            cube.value("D", sa={"sex": "F"}, ca={"region": "north"})
        )

    def test_index_subset(self, cube):
        series = radial_series(cube, "region", sa={"sex": "F"},
                               index_names=["D", "G"])
        assert series.index_names == ["D", "G"]
        assert len(series.values[0]) == 2

    def test_sa_attribute_rejected_as_context(self, cube):
        with pytest.raises(ReportError):
            radial_series(cube, "sex")

    def test_unknown_attribute_rejected(self, cube):
        with pytest.raises(ReportError):
            radial_series(cube, "nope")

    def test_rows_shape(self, cube):
        series = radial_series(cube, "region", sa={"sex": "F"})
        rows = series.rows()
        assert rows[0][0] == "north"
        assert len(rows[0]) == 1 + len(series.index_names)

    def test_render_contains_bars_and_table(self, cube):
        series = radial_series(cube, "region", sa={"sex": "F"},
                               index_names=["D"])
        text = render_radial(series)
        assert "D by region" in text
        assert "north" in text
