"""Tests of the synthetic dataset generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import vocab
from repro.data.estonia import (
    EstoniaConfig,
    estonia_snapshot_table,
    generate_estonia,
)
from repro.data.italy import (
    ItalyConfig,
    generate_italy,
    italy_tabular_individuals,
)
from repro.data.schools import generate_schools
from repro.data.synthetic import (
    checkerboard_table,
    planted_counts,
    planted_table,
    random_bipartite_world,
    random_final_table,
    uniform_table,
)
from repro.errors import ReproError

from tests.oracles import dissimilarity


class TestVocab:
    def test_twenty_sectors(self):
        assert len(vocab.SECTORS) == 20
        assert set(vocab.SECTOR_WEIGHTS) == set(vocab.SECTORS)
        assert set(vocab.SECTOR_FEMALE_RATE) == set(vocab.SECTORS)

    def test_provinces_have_regions(self):
        for province, region in vocab.PROVINCES:
            assert region in vocab.REGIONS
            assert vocab.province_region(province) == region
        assert set(vocab.PROVINCE_WEIGHTS) == {p for p, _ in vocab.PROVINCES}

    def test_female_rates_are_probabilities(self):
        for rate in vocab.SECTOR_FEMALE_RATE.values():
            assert 0 < rate < 1


class TestPlanted:
    def test_planted_counts_exact(self):
        counts = planted_counts([10, 10], [0.8, 0.2])
        assert counts.m.tolist() == [8, 2]

    def test_planted_table_realises_counts(self):
        planted = planted_table([10, 20], [0.5, 0.25])
        table = planted.table
        assert len(table) == 30
        units = table.ints("unitID").data
        minority = table.categorical("gender").mask_eq("F")
        assert np.bincount(units).tolist() == [10, 20]
        assert np.bincount(units[minority]).tolist() == [5, 5]

    def test_checkerboard_is_fully_segregated(self):
        planted = checkerboard_table(4, 25)
        assert dissimilarity(planted.counts) == pytest.approx(1.0)

    def test_checkerboard_validation(self):
        with pytest.raises(ReproError):
            checkerboard_table(3, 10)

    def test_uniform_is_unsegregated(self):
        planted = uniform_table(5, 10)
        assert dissimilarity(planted.counts) == pytest.approx(0.0)

    def test_uniform_validation(self):
        with pytest.raises(ReproError):
            uniform_table(5, 11)

    def test_length_mismatch(self):
        with pytest.raises(ReproError):
            planted_counts([10], [0.5, 0.5])


class TestRandomFinalTable:
    def test_shapes_and_schema(self):
        table, schema = random_final_table(
            100, 4, multi_valued_ca={"mv": 3}, seed=1
        )
        assert len(table) == 100
        assert schema.unit_name == "unitID"
        assert "mv" in schema.ca_names
        schema.validate(table)

    def test_seed_reproducibility(self):
        a, _ = random_final_table(50, 3, seed=9)
        b, _ = random_final_table(50, 3, seed=9)
        assert a.categorical("gender").values() == (
            b.categorical("gender").values()
        )

    def test_invalid_sizes(self):
        with pytest.raises(ReproError):
            random_final_table(0, 3)


class TestItaly:
    def test_structure(self, italy_small):
        ds = italy_small
        assert ds.n_groups == 400
        assert ds.n_individuals > 400
        assert len(ds.membership) >= ds.n_groups
        ds.individuals_schema.validate(ds.individuals)
        ds.groups_schema.validate(ds.groups)

    def test_overall_female_share_plausible(self, italy_small):
        genders = italy_small.individuals.categorical("gender").values()
        share = genders.count("F") / len(genders)
        assert 0.1 < share < 0.4

    def test_sector_bias_planted(self):
        ds = generate_italy(ItalyConfig(n_companies=3000, seed=1))
        seats, _ = italy_tabular_individuals(ds)
        sectors = seats.categorical("sector")
        genders = seats.categorical("gender")
        females = genders.mask_eq("F")

        def share(sector):
            mask = sectors.mask_eq(sector)
            if mask.sum() == 0:
                return None
            return float((females & mask).sum() / mask.sum())

        construction = share("construction")
        education = share("education")
        assert construction is not None and education is not None
        assert education > construction + 0.1

    def test_interlocks_exist(self, italy_small):
        bipartite = italy_small.bipartite()
        from repro.graph.bipartite import project_onto_groups

        result = project_onto_groups(bipartite)
        assert result.graph.n_edges > 0

    def test_seed_reproducibility(self):
        a = generate_italy(ItalyConfig(n_companies=50, seed=3))
        b = generate_italy(ItalyConfig(n_companies=50, seed=3))
        assert a.individuals.categorical("gender").values() == (
            b.individuals.categorical("gender").values()
        )
        assert a.membership.snapshot() == b.membership.snapshot()

    def test_invalid_config(self):
        with pytest.raises(ReproError):
            generate_italy(ItalyConfig(n_companies=0))

    def test_tabular_join_shape(self, italy_small):
        seats, schema = italy_tabular_individuals(italy_small)
        assert len(seats) == len(italy_small.membership)
        assert "sector" in schema.ca_names


class TestEstonia:
    @pytest.fixture(scope="class")
    def estonia(self):
        return generate_estonia(EstoniaConfig(n_companies=600, seed=2))

    def test_structure(self, estonia):
        assert estonia.n_groups == 600
        estonia.individuals_schema.validate(estonia.individuals)
        estonia.groups_schema.validate(estonia.groups)

    def test_membership_has_intervals(self, estonia):
        spans = [e.interval for e in estonia.membership]
        assert all(i.start is not None and i.end is not None for i in spans)

    def test_snapshots_grow_over_time(self, estonia):
        early = len(estonia.membership.snapshot(1996))
        late = len(estonia.membership.snapshot(2012))
        assert late > early

    def test_female_share_drifts_up(self):
        config = EstoniaConfig(n_companies=4000, seed=5)
        ds = generate_estonia(config)
        genders = ds.individuals.categorical("gender")

        def share(year):
            pairs = ds.membership.snapshot(year)
            directors = {d for d, _ in pairs}
            values = [genders[d] for d in directors]
            return values.count("F") / len(values)

        assert share(2014) > share(1997) + 0.03

    def test_snapshot_table(self, estonia):
        table, schema = estonia_snapshot_table(estonia, 2005)
        assert len(table) == len(estonia.membership.snapshot(2005))
        assert schema.ca_names == ["county", "sector"]

    def test_empty_snapshot_rejected(self, estonia):
        with pytest.raises(ReproError):
            estonia_snapshot_table(estonia, 1800)


class TestSchools:
    def test_structure(self, schools):
        table, schema = schools
        assert len(table) == 2 * 6 * 120
        schema.validate(table)
        assert schema.unit_name == "school"

    def test_rivertown_segregated_lakeside_not(self, schools):
        table, _ = schools
        from repro.indexes.counts import UnitCounts

        city = table.categorical("city")
        units = table.ints("school").data
        minority = table.categorical("ethnicity").mask_eq("minority")
        for name, bound in (("Rivertown", 0.7), ("Lakeside", 0.1)):
            mask = city.mask_eq(name)
            counts = UnitCounts.from_assignments(units[mask], minority[mask])
            d = dissimilarity(counts)
            if name == "Rivertown":
                assert d > bound
            else:
                assert d < bound


class TestRandomBipartiteWorld:
    def test_shape_and_determinism(self):
        a, attrs_a = random_bipartite_world(2000, 100, seed=4)
        b, attrs_b = random_bipartite_world(2000, 100, seed=4)
        assert a.n_left == 2000 and a.n_right == 100
        assert a.n_edges == b.n_edges
        la, ra = a.membership_arrays()
        lb, rb = b.membership_arrays()
        assert np.array_equal(la, lb) and np.array_equal(ra, rb)
        assert attrs_a.names == attrs_b.names == ["sector", "region"]
        for name in attrs_a.names:
            assert np.array_equal(attrs_a.codes(name), attrs_b.codes(name))

    def test_seed_changes_world(self):
        a, _ = random_bipartite_world(2000, 100, seed=4)
        b, _ = random_bipartite_world(2000, 100, seed=5)
        la, ra = a.membership_arrays()
        lb, rb = b.membership_arrays()
        assert len(la) != len(lb) or not np.array_equal(ra, rb)

    def test_every_individual_has_a_board(self):
        world, _ = random_bipartite_world(500, 50, seed=7)
        lefts, _ = world.membership_arrays()
        assert (np.bincount(lefts, minlength=world.n_left) >= 1).all()

    def test_group_popularity_is_power_law(self):
        world, _ = random_bipartite_world(20000, 200, seed=8)
        _, rights = world.membership_arrays()
        degrees = np.bincount(rights, minlength=world.n_right)
        # Low-rank groups must dominate: top 10% of groups hold most seats.
        top = int(degrees[:20].sum())
        assert top > world.n_edges / 2

    def test_attribute_table_matches_groups(self):
        _, attrs = random_bipartite_world(300, 40, seed=9)
        assert attrs.n_nodes == 40
        assert attrs.n_attributes == 2
        assert attrs.codes("sector").max() < 12
        assert attrs.codes("region").max() < 8

    def test_validation(self):
        with pytest.raises(ReproError):
            random_bipartite_world(0, 5)
        with pytest.raises(ReproError):
            random_bipartite_world(5, 0)
