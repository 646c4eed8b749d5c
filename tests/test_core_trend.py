"""Tests of the temporal trend API."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.trend import (
    segregation_trend,
    snapshot_seats_table,
    temporal_seats_table,
    trend_rows,
)
from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.incremental import TemporalCubeEngine
from repro.data.estonia import EstoniaConfig, generate_estonia
from repro.errors import ReproError, TableError
from repro.etl.builder import tabular_final_table
from repro.etl.diff import OPEN_END, OPEN_START, valid_at
from repro.etl.table import IntColumn
from repro.itemsets.transactions import encode_table
from repro.store import CubeTimeline, dump_into_timeline


@pytest.fixture(scope="module")
def estonia():
    return generate_estonia(EstoniaConfig(n_companies=800, seed=4))


class TestSnapshotSeatsTable:
    def test_joins_both_entities(self, estonia):
        table, schema = snapshot_seats_table(estonia, 2005)
        assert len(table) == len(estonia.membership.snapshot(2005))
        assert set(schema.sa_names) == {"gender", "age", "birthplace"}
        assert set(schema.ca_names) == {"sector", "county"}
        schema.validate(table)

    def test_untimed_snapshot_covers_all(self, italy_small):
        table, _ = snapshot_seats_table(italy_small, None)
        assert len(table) == len(italy_small.membership)

    def test_empty_date_rejected(self, estonia):
        with pytest.raises(ReproError, match="no membership"):
            snapshot_seats_table(estonia, 1700)

    def test_seat_rows_join_correct_attributes(self, estonia):
        pairs = estonia.membership.snapshot(2005)
        table, _ = snapshot_seats_table(estonia, 2005)
        genders = estonia.individuals.categorical("gender")
        sectors = estonia.groups.categorical("sector")
        for k in (0, len(pairs) // 2, len(pairs) - 1):
            director, company = pairs[k]
            row = table.row(k)
            assert row["gender"] == genders[director]
            assert row["sector"] == sectors[company]


class TestSegregationTrend:
    def test_series_shape(self, estonia):
        points = segregation_trend(
            estonia, range(2000, 2010, 3), "sector", {"gender": "F"},
            indexes=["D", "Iso"],
        )
        assert len(points) == 4
        for point in points:
            assert set(point.values) == {"D", "Iso"}
            assert 0 <= point.values["D"] <= 1
            assert point.minority <= point.population

    def test_dates_without_membership_skipped(self, estonia):
        points = segregation_trend(
            estonia, [1700, 2005], "sector", {"gender": "F"}
        )
        assert [p.date for p in points] == [2005]

    def test_conjunctive_subgroup(self, estonia):
        broad = segregation_trend(estonia, [2005], "sector",
                                  {"gender": "F"})
        narrow = segregation_trend(
            estonia, [2005], "sector", {"gender": "F", "age": "39-46"}
        )
        assert narrow[0].minority < broad[0].minority

    def test_unit_attr_from_groups(self, estonia):
        points = segregation_trend(estonia, [2005], "county",
                                   {"gender": "F"})
        assert points[0].n_units <= 15

    def test_trend_rows_rendering(self, estonia):
        points = segregation_trend(estonia, [2003, 2006], "sector",
                                   {"gender": "F"}, indexes=["D"])
        rows = trend_rows(points)
        assert len(rows) == 2
        assert rows[0][0] == 2003
        assert len(rows[0]) == 5         # date, T, M, P, D

    def test_trend_rows_empty(self):
        assert trend_rows([]) == []

    def test_planted_drift_visible(self):
        dataset = generate_estonia(EstoniaConfig(n_companies=3000, seed=9))
        points = segregation_trend(
            dataset, [1998, 2013], "sector", {"gender": "F"}, indexes=["D"]
        )
        assert points[1].proportion > points[0].proportion


class TestTemporalSeatsTable:
    def test_one_row_per_edge_with_bounds(self, estonia):
        table, schema, starts, ends = temporal_seats_table(estonia)
        assert len(table) == len(estonia.membership)
        assert len(starts) == len(ends) == len(table)
        assert set(schema.sa_names) == {"gender", "age", "birthplace"}
        assert set(schema.ca_names) == {"sector", "county"}

    def test_masks_reproduce_snapshots(self, estonia):
        table, _, starts, ends = temporal_seats_table(estonia)
        for year in (2000, 2008):
            mask = valid_at(starts, ends, year)
            assert int(mask.sum()) == len(estonia.membership.snapshot(year))

    def test_open_bounds_encoded_as_sentinels(self):
        from repro.data.italy import generate_italy, ItalyConfig

        italy = generate_italy(ItalyConfig(n_companies=50, seed=1))
        _, _, starts, ends = temporal_seats_table(italy)
        # Untimed memberships are valid forever.
        assert (starts == OPEN_START).all()
        assert (ends == OPEN_END).all()


class TestIdJoin:
    """Both seat tables join ids through one checked join."""

    @pytest.fixture()
    def boards(self):
        return generate_estonia(EstoniaConfig(n_companies=30, seed=1))

    @staticmethod
    def _seat_tables(dataset):
        with pytest.raises(TableError) as snapshot:
            snapshot_seats_table(dataset, None)
        with pytest.raises(TableError) as temporal:
            temporal_seats_table(dataset)
        return str(snapshot.value), str(temporal.value)

    def test_repeated_id_rejected(self, boards):
        individuals = boards.individuals
        doubled = individuals.filter(np.r_[np.arange(len(individuals)), 0])
        for message in self._seat_tables(
            dataclasses.replace(boards, individuals=doubled)
        ):
            assert "duplicate ids" in message

    def test_unknown_id_rejected(self, boards):
        id_name = boards.individuals_schema.id_name
        ids = boards.individuals.ints(id_name).data.copy()
        ids[ids == 1] = ids.max() + 1
        renamed = boards.individuals.with_column(id_name, IntColumn(ids))
        for message in self._seat_tables(
            dataclasses.replace(boards, individuals=renamed)
        ):
            assert message == "membership references unknown id 1"


class TestTimelineTrendParity:
    """The cube path must reproduce the recompute path exactly."""

    @pytest.fixture(scope="class")
    def trend_setup(self, tmp_path_factory):
        dataset = generate_estonia(EstoniaConfig(n_companies=400, seed=4))
        years = [2001, 2005, 2009]
        seats, schema, starts, ends = temporal_seats_table(dataset)
        final, final_schema = tabular_final_table(seats, schema, "sector")
        db = encode_table(final, final_schema)
        engine = TemporalCubeEngine(
            db,
            SegregationDataCubeBuilder(
                engine="incremental", min_population=5, min_minority=2
            ),
        )
        states = engine.run(
            [(year, valid_at(starts, ends, year)) for year in years]
        )
        root = tmp_path_factory.mktemp("trend") / "timeline"
        previous = None
        for state in states:
            dump_into_timeline(
                root, state.date, state.cube,
                parent_date=None if previous is None else previous.date,
                parent=None if previous is None else previous.cube,
            )
            previous = state
        return dataset, years, CubeTimeline(root)

    def test_cube_path_matches_recompute_path(self, trend_setup):
        dataset, years, timeline = trend_setup
        recomputed = segregation_trend(
            dataset, years, "sector", {"gender": "F"}
        )
        from_cubes = segregation_trend(
            timeline, years, "sector", {"gender": "F"}
        )
        assert [p.date for p in from_cubes] == [p.date for p in recomputed]
        for a, b in zip(recomputed, from_cubes):
            assert a.population == b.population
            assert a.minority == b.minority
            assert a.n_units == b.n_units
            assert a.proportion == pytest.approx(b.proportion)
            assert set(a.values) == set(b.values)
            for name, value in a.values.items():
                assert value == b.values[name], (a.date, name)

    def test_missing_dates_skipped(self, trend_setup):
        _, years, timeline = trend_setup
        points = segregation_trend(
            timeline, [1700] + years, "sector", {"gender": "F"}
        )
        assert [p.date for p in points] == years

    def test_conjunctive_subgroup_reads_deeper_cell(self, trend_setup):
        _, years, timeline = trend_setup
        broad = segregation_trend(timeline, years, "sector", {"gender": "F"})
        narrow = segregation_trend(
            timeline, years, "sector", {"gender": "F", "age": "39-46"}
        )
        assert narrow and narrow[0].minority < broad[0].minority

    def test_index_subset_respected(self, trend_setup):
        _, years, timeline = trend_setup
        points = segregation_trend(
            timeline, years, "sector", {"gender": "F"}, indexes=["D", "Iso"]
        )
        assert set(points[0].values) == {"D", "Iso"}
