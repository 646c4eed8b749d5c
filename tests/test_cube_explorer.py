"""Tests of discovery ranking and Simpson-reversal detection."""

from __future__ import annotations

import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.explorer import (
    simpson_reversals,
    summarize_cube,
    top_contexts,
)
from repro.errors import CubeError
from repro.etl.schema import Schema
from repro.etl.table import Table


@pytest.fixture(scope="module")
def paradox_cube():
    """Globally even, locally segregated: a Simpson-style construction.

    Overall, women are spread evenly over units 0/1; but within context
    x women sit in unit 0 and within context y in unit 1.
    """
    rows = []
    rows += [("F", "x", 0)] * 9 + [("F", "x", 1)] * 1
    rows += [("M", "x", 0)] * 1 + [("M", "x", 1)] * 9
    rows += [("F", "y", 0)] * 1 + [("F", "y", 1)] * 9
    rows += [("M", "y", 0)] * 9 + [("M", "y", 1)] * 1
    table = Table.from_rows(["sex", "ctx", "unitID"], rows)
    schema = Schema.build(segregation=["sex"], context=["ctx"], unit="unitID")
    return SegregationDataCubeBuilder(min_population=1, min_minority=1).build(table, schema)


class TestTopContexts:
    def test_discoveries_ranked_and_decoded(self, paradox_cube):
        found = top_contexts(paradox_cube, "D", k=3)
        assert found[0].rank == 1
        assert found[0].value >= found[-1].value
        assert "|" in found[0].description

    def test_guards_apply(self, paradox_cube):
        found = top_contexts(paradox_cube, "D", k=10, min_minority=100)
        assert found == []

    def test_proportion_field(self, paradox_cube):
        found = top_contexts(paradox_cube, "D", k=1)
        assert 0 <= found[0].proportion <= 1


class TestSimpsonReversals:
    def test_detects_the_construction(self, paradox_cube):
        # Global D for women is 0 (even), per-context D is 0.8.
        reversals = simpson_reversals(paradox_cube, low=0.2, high=0.6)
        assert reversals, "expected at least one reversal"
        best = reversals[0]
        assert best.parent_value <= 0.2
        assert best.child_value >= 0.6
        assert best.jump == pytest.approx(
            best.child_value - best.parent_value
        )
        assert "[sex=F | *]" in {r.parent_description for r in reversals} or (
            "[sex=M | *]" in {r.parent_description for r in reversals}
        )

    def test_no_reversals_on_flat_cube(self):
        rows = (
            [("F", "x", 0)] * 5 + [("F", "x", 1)] * 5
            + [("M", "x", 0)] * 5 + [("M", "x", 1)] * 5
        )
        table = Table.from_rows(["sex", "ctx", "unitID"], rows)
        schema = Schema.build(segregation=["sex"], context=["ctx"],
                              unit="unitID")
        cube = SegregationDataCubeBuilder(min_population=1, min_minority=1).build(table, schema)
        assert simpson_reversals(cube) == []

    def test_invalid_thresholds(self, paradox_cube):
        with pytest.raises(CubeError):
            simpson_reversals(paradox_cube, low=0.9, high=0.1)


class TestSummarize:
    def test_summary_fields(self, paradox_cube):
        summary = summarize_cube(paradox_cube)
        assert summary["cells"] == len(paradox_cube)
        assert summary["context_only_cells"] >= 1
        assert summary["defined_cells_per_index"]["D"] > 0
        assert summary["mode"] == "all"
