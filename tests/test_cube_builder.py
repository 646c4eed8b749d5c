"""Tests of the SegregationDataCubeBuilder semantics."""

from __future__ import annotations

import math

import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.data.synthetic import planted_table
from repro.errors import CubeError
from repro.etl.schema import Schema
from repro.etl.table import Table

from tests.oracles import dissimilarity, gini


@pytest.fixture()
def fig1_style_table():
    """A table shaped like the paper's Fig. 1 axes: sex, age | region."""
    rows = []
    # Region north: women concentrated in unit 0, men in unit 1.
    rows += [("F", "young", "north", 0)] * 8 + [("F", "young", "north", 1)] * 2
    rows += [("M", "young", "north", 0)] * 2 + [("M", "young", "north", 1)] * 8
    rows += [("F", "elder", "north", 0)] * 5 + [("F", "elder", "north", 1)] * 5
    rows += [("M", "elder", "north", 0)] * 5 + [("M", "elder", "north", 1)] * 5
    # Region south: everything even.
    rows += [("F", "young", "south", 2)] * 5 + [("F", "young", "south", 3)] * 5
    rows += [("M", "young", "south", 2)] * 5 + [("M", "young", "south", 3)] * 5
    table = Table.from_rows(["sex", "age", "region", "unitID"], rows)
    schema = Schema.build(
        segregation=["sex", "age"], context=["region"], unit="unitID"
    )
    return table, schema


class TestBuildSemantics:
    def test_global_cell_matches_direct_computation(self, fig1_style_table):
        table, schema = fig1_style_table
        cube = SegregationDataCubeBuilder(min_population=1, min_minority=1).build(table, schema)
        cell = cube.cell(sa={"sex": "F"})
        from repro.indexes.counts import UnitCounts

        units = table.ints("unitID").data
        minority = table.categorical("sex").mask_eq("F")
        counts = UnitCounts.from_assignments(units, minority)
        assert cell.value("D") == pytest.approx(dissimilarity(counts))
        assert cell.value("G") == pytest.approx(gini(counts))
        assert cell.population == len(table)
        assert cell.minority == int(minority.sum())

    def test_context_restricts_population_and_units(self, fig1_style_table):
        table, schema = fig1_style_table
        cube = SegregationDataCubeBuilder(min_population=1, min_minority=1).build(table, schema)
        north = cube.cell(sa={"sex": "F"}, ca={"region": "north"})
        assert north.population == 40
        assert north.n_units == 2          # units 0 and 1 only
        south = cube.cell(sa={"sex": "F"}, ca={"region": "south"})
        assert south.value("D") == pytest.approx(0.0)
        # North: F = [13, 7] over t = [20, 20] -> D = 0.3 exactly.
        assert north.value("D") == pytest.approx(0.3)

    def test_finer_sa_cell(self, fig1_style_table):
        table, schema = fig1_style_table
        cube = SegregationDataCubeBuilder(min_population=1, min_minority=1).build(table, schema)
        cell = cube.cell(sa={"sex": "F", "age": "young"},
                         ca={"region": "north"})
        # 8 young women in unit 0, 2 in unit 1; totals 20/20.
        assert cell.minority == 10
        assert cell.value("D") == pytest.approx(
            0.5 * (abs(8 / 10 - 12 / 30) + abs(2 / 10 - 18 / 30))
        )

    def test_min_minority_prunes_cells(self, fig1_style_table):
        table, schema = fig1_style_table
        cube = SegregationDataCubeBuilder(min_population=1, min_minority=11).build(table, schema)
        assert cube.cell(sa={"sex": "F", "age": "young"},
                         ca={"region": "north"}) is None
        assert cube.cell(sa={"sex": "F"}) is not None

    def test_min_population_prunes_contexts(self, fig1_style_table):
        table, schema = fig1_style_table
        cube = SegregationDataCubeBuilder(min_population=41, min_minority=1).build(table, schema)
        assert cube.cell(sa={"sex": "F"}, ca={"region": "north"}) is None
        assert cube.cell(sa={"sex": "F"}) is not None

    def test_context_only_cells_have_nan_indexes(self, fig1_style_table):
        table, schema = fig1_style_table
        cube = SegregationDataCubeBuilder(min_population=1, min_minority=1).build(table, schema)
        cell = cube.cell(ca={"region": "north"})
        assert cell.is_context_only
        assert math.isnan(cell.value("D"))
        assert cell.population == 40

    def test_index_subset_selection(self, fig1_style_table):
        table, schema = fig1_style_table
        cube = SegregationDataCubeBuilder(indexes=["D", "Iso"], min_population=1, min_minority=1).build(table, schema)
        cell = cube.cell(sa={"sex": "F"})
        assert set(cube.metadata.index_names) == {"D", "Iso"}
        assert math.isnan(cell.value("G"))

    def test_max_item_caps(self, fig1_style_table):
        table, schema = fig1_style_table
        cube = SegregationDataCubeBuilder(min_population=1, min_minority=1, max_sa_items=1).build(table, schema)
        from repro.cube.coordinates import encode_query

        deep_key = encode_query(
            cube.dictionary, sa={"sex": "F", "age": "young"}
        )
        shallow_key = encode_query(cube.dictionary, sa={"sex": "F"})
        # Beyond the cap the cell is not materialised ...
        assert deep_key not in cube
        assert shallow_key in cube
        # ... but a point query is still answered exactly by the resolver.
        resolved = cube.cell(sa={"sex": "F", "age": "young"})
        assert resolved is not None
        assert resolved.minority == 20
        # With no CA item allowed, the root is the only context.
        flat = SegregationDataCubeBuilder(min_population=1, min_minority=1, max_ca_items=0).build(table, schema)
        assert flat.metadata.extra["n_contexts"] == 1
        assert all(not ca for _, ca in flat.keys())

    def test_planted_ground_truth(self):
        planted = planted_table([50, 50, 50], [0.9, 0.3, 0.1])
        cube = SegregationDataCubeBuilder(min_population=1, min_minority=1).build(planted.table, planted.schema)
        cell = cube.cell(sa={"gender": "F"})
        assert cell.value("D") == pytest.approx(dissimilarity(planted.counts))
        assert cell.value("G") == pytest.approx(gini(planted.counts))


class TestBuilderValidation:
    def test_no_sa_rejected(self):
        table = Table.from_dict({"region": ["a"], "unitID": [0]})
        schema = Schema.build(context=["region"], unit="unitID")
        with pytest.raises(CubeError, match="no segregation attributes"):
            SegregationDataCubeBuilder().build(table, schema)

    def test_no_unit_rejected(self):
        table = Table.from_dict({"sex": ["F"]})
        schema = Schema.build(segregation=["sex"])
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            SegregationDataCubeBuilder().build(table, schema)

    def test_empty_table_rejected(self):
        from repro.etl.table import CategoricalColumn, IntColumn

        table = Table(
            {
                "sex": CategoricalColumn([], []),
                "unitID": IntColumn([]),
            }
        )
        schema = Schema.build(segregation=["sex"], unit="unitID")
        with pytest.raises(CubeError, match="empty"):
            SegregationDataCubeBuilder().build(table, schema)

    def test_bad_mode_rejected(self):
        with pytest.raises(CubeError, match="mode"):
            SegregationDataCubeBuilder(mode="bogus")

    def test_metadata_populated(self, fig1_style_table):
        table, schema = fig1_style_table
        cube = SegregationDataCubeBuilder(min_population=5, min_minority=2).build(table, schema)
        md = cube.metadata
        assert md.n_rows == len(table)
        assert md.n_units == 4
        assert md.min_population == 5
        assert md.min_minority == 2
        assert md.build_seconds >= 0
        assert md.mode == "all"
