"""End-to-end validation against planted ground truth.

These tests push analytically-constructed data through the *entire*
public API — ETL, mining, cube, reports — and assert exact equality with
the closed-form index values the construction implies.
"""

from __future__ import annotations

import math

import pytest

from repro import (
    build_cube,
    generate_schools,
    run_tabular,
    simpson_reversals,
    top_contexts,
)
from repro.data.synthetic import checkerboard_table, planted_table, uniform_table
from repro.etl.csvio import read_table, write_table
from repro.etl.schema import Schema
from repro.report.pivot import pivot
from repro.report.xlsx import rows_to_workbook

from tests.oracles import SCALAR_INDEXES, NaiveCubeBuilder


class TestPlantedGroundTruth:
    def test_full_pipeline_reproduces_planted_indexes(self):
        planted = planted_table([40, 60, 100], [0.9, 0.5, 0.05])
        cube = build_cube(planted.table, planted.schema,
                          min_population=1, min_minority=1)
        cell = cube.cell(sa={"gender": "F"})
        for name, func in SCALAR_INDEXES.items():
            assert cell.value(name) == pytest.approx(func(planted.counts)), name

    def test_checkerboard_maximal(self):
        planted = checkerboard_table(6, 30)
        cube = build_cube(planted.table, planted.schema,
                          min_population=1, min_minority=1)
        cell = cube.cell(sa={"gender": "F"})
        assert cell.value("D") == pytest.approx(1.0)
        assert cell.value("Iso") == pytest.approx(1.0)

    def test_uniform_minimal(self):
        planted = uniform_table(8, 20, share=0.25)
        cube = build_cube(planted.table, planted.schema,
                          min_population=1, min_minority=1)
        cell = cube.cell(sa={"gender": "F"})
        assert cell.value("D") == pytest.approx(0.0, abs=1e-12)
        assert cell.value("Iso") == pytest.approx(0.25)

    def test_csv_round_trip_preserves_cube(self, tmp_path):
        """finalTable -> CSV -> finalTable -> identical cube."""
        planted = planted_table([30, 30], [0.8, 0.2])
        path = tmp_path / "final.csv"
        write_table(planted.table, path)
        back = read_table(path, integer=["unitID"])
        cube_a = build_cube(planted.table, planted.schema,
                            min_population=1, min_minority=1)
        cube_b = build_cube(back, planted.schema,
                            min_population=1, min_minority=1)
        cell_a = cube_a.cell(sa={"gender": "F"})
        cell_b = cube_b.cell(sa={"gender": "F"})
        assert cell_a.value("D") == pytest.approx(cell_b.value("D"))


class TestSchoolsStory:
    """The quickstart narrative must actually hold on the shipped data."""

    def test_rivertown_tops_discovery(self, schools):
        table, schema = schools
        result = run_tabular(table, schema, "school")
        found = top_contexts(result.cube, "D", k=4, min_minority=20)
        assert any("Rivertown" in f.description for f in found[:2])

    def test_citywide_view_understates_segregation(self, schools):
        """The cross-city roll-up sits below the Rivertown cell: analysing
        at the wrong granularity hides segregation (paper §2)."""
        table, schema = schools
        result = run_tabular(table, schema, "school")
        overall = result.cube.value("D", sa={"ethnicity": "minority"})
        rivertown = result.cube.value(
            "D", sa={"ethnicity": "minority"}, ca={"city": "Rivertown"}
        )
        assert rivertown > overall

    def test_sex_is_not_segregated(self, schools):
        table, schema = schools
        result = run_tabular(table, schema, "school")
        cell = result.cube.cell(sa={"sex": "F"})
        assert cell.value("D") < 0.2

    def test_workbook_and_pivot_render(self, schools, tmp_path):
        table, schema = schools
        result = run_tabular(table, schema, "school")
        path = rows_to_workbook(result.cube.to_rows()).save(
            tmp_path / "schools.xlsx"
        )
        assert path.exists()
        text = pivot(result.cube, "D", "ethnicity", "city")
        assert "Rivertown" in text


class TestSimpsonEndToEnd:
    def test_constructed_paradox_detected_through_api(self):
        from repro.etl.table import Table

        rows = []
        rows += [("F", "x", 0)] * 9 + [("F", "x", 1)] * 1
        rows += [("M", "x", 0)] * 1 + [("M", "x", 1)] * 9
        rows += [("F", "y", 0)] * 1 + [("F", "y", 1)] * 9
        rows += [("M", "y", 0)] * 9 + [("M", "y", 1)] * 1
        table = Table.from_rows(["sex", "ctx", "unitID"], rows)
        schema = Schema.build(segregation=["sex"], context=["ctx"],
                              unit="unitID")
        cube = build_cube(table, schema, min_population=1, min_minority=1)
        assert cube.value("D", sa={"sex": "F"}) == pytest.approx(0.0)
        reversals = simpson_reversals(cube, "D", low=0.1, high=0.5)
        assert reversals


class TestNaiveOracleOnRealisticData:
    def test_builders_agree_on_schools(self, schools):
        table, schema = schools
        from repro.cube.cube import check_same_cells
        from repro.etl.builder import tabular_final_table

        final, final_schema = tabular_final_table(table, schema, "school")
        kw = dict(min_population=20, min_minority=5, max_sa_items=2,
                  max_ca_items=1)
        from repro.cube.builder import SegregationDataCubeBuilder

        smart = SegregationDataCubeBuilder(**kw).build(final, final_schema)
        naive = NaiveCubeBuilder(**kw).build(final, final_schema)
        assert check_same_cells(smart, naive) == []
