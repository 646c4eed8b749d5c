"""Tests of cross-cube comparison (the Italy-vs-Estonia discussion)."""

from __future__ import annotations

import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.compare import compare_cubes, comparison_rows
from repro.etl.schema import Schema
from repro.etl.table import Table


def _cube(spreads: dict[str, tuple[int, int]]):
    """One cube per 'country': spreads maps region -> (F in unit0, F in unit1)
    out of 10 women and 10 men per region."""
    rows = []
    unit = 0
    for region, (a, b) in spreads.items():
        rows += [("F", region, unit)] * a + [("F", region, unit + 1)] * b
        rows += [("M", region, unit)] * (10 - a)
        rows += [("M", region, unit + 1)] * (10 - b)
        unit += 2
    table = Table.from_rows(["sex", "region", "unitID"], rows)
    schema = Schema.build(segregation=["sex"], context=["region"],
                          unit="unitID")
    return SegregationDataCubeBuilder(min_population=1, min_minority=1).build(table, schema)


@pytest.fixture()
def left():
    return _cube({"north": (9, 1), "south": (5, 5)})


@pytest.fixture()
def right():
    return _cube({"north": (5, 5), "south": (9, 1)})


class TestCompareCubes:
    def test_aligns_on_decoded_coordinates(self, left, right):
        comparisons = compare_cubes(left, right)
        descriptions = {c.description for c in comparisons}
        assert "[sex=F | region=north]" in descriptions
        assert "[sex=F | region=south]" in descriptions

    def test_deltas_are_signed_right_minus_left(self, left, right):
        comparisons = {c.description: c for c in compare_cubes(left, right)}
        north = comparisons["[sex=F | region=north]"]
        # left north is segregated (0.8), right north is even (0.0).
        assert north.left_value == pytest.approx(0.8)
        assert north.right_value == pytest.approx(0.0)
        assert north.delta == pytest.approx(-0.8)

    def test_sorted_by_divergence(self, left, right):
        comparisons = compare_cubes(left, right)
        deltas = [abs(c.delta) for c in comparisons]
        assert deltas == sorted(deltas, reverse=True)

    def test_identical_cubes_have_zero_deltas(self, left):
        for c in compare_cubes(left, left):
            assert c.delta == pytest.approx(0.0)

    def test_comparison_rows_shape(self, left, right):
        comparisons = compare_cubes(left, right)
        rows = comparison_rows(comparisons)
        assert len(rows) == len(comparisons) >= 2
        assert rows[0] == [comparisons[0].description,
                           comparisons[0].left_value,
                           comparisons[0].right_value, comparisons[0].delta]

    def test_different_dictionaries_align(self, left):
        """A cube built from a table with extra attribute values still
        aligns on shared coordinates."""
        other = _cube(
            {"north": (7, 3), "south": (5, 5), "centre": (6, 4)}
        )
        comparisons = compare_cubes(left, other)
        descriptions = {c.description for c in comparisons}
        assert "[sex=F | region=north]" in descriptions
        assert not any("centre" in d for d in descriptions)
