"""Tests of the incremental temporal fill engine.

The contract under test: for every date in a timeline, the cube an
incremental update produces is **bit-exact** (``check_same_cells`` at
``atol=0``) with a from-scratch columnar build on the same restricted
database — while actually recomputing only the contexts whose covers
changed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import check_same_cells
from repro.cube.incremental import TemporalCubeEngine
from repro.data.synthetic import random_final_table, random_temporal_final_table
from repro.errors import CubeError, MiningError
from repro.etl.diff import valid_at
from repro.etl.schema import Schema
from repro.etl.table import Table
from repro.itemsets.transactions import encode_table

LIMITS = {"min_population": 20, "min_minority": 5,
          "max_sa_items": 2, "max_ca_items": 2}


def _engine(db, **overrides):
    params = dict(LIMITS)
    params.update(overrides)
    return TemporalCubeEngine(
        db, SegregationDataCubeBuilder(engine="incremental", **params)
    )


def _scratch(db, valid, **overrides):
    params = dict(LIMITS)
    params.update(overrides)
    return SegregationDataCubeBuilder(**params).build_from_transactions(
        db.restrict(valid)
    )


@pytest.fixture(scope="module")
def temporal():
    table, schema, starts, ends = random_temporal_final_table(
        n_rows=3000, n_units=12, dates=(0, 1, 2),
        sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 4, "s": 3},
        multi_valued_ca={"mv": 3},
        seed=5, skew=0.5, max_churn=0.05,
    )
    db = encode_table(table, schema)
    valids = {d: valid_at(starts, ends, d) for d in (0, 1, 2)}
    return db, valids


class TestRestrictedDatabase:
    def test_restrict_masks_covers_and_full_cover(self, temporal):
        db, valids = temporal
        restricted = db.restrict(valids[1])
        assert len(restricted) == len(db)
        assert restricted.n_active == int(valids[1].sum())
        assert restricted.full_cover().support() == restricted.n_active
        inactive = np.flatnonzero(~valids[1])
        for item_id in range(min(5, db.n_items)):
            rows = set(restricted.covers()[item_id].to_indices().tolist())
            assert rows.isdisjoint(inactive.tolist())

    def test_restrict_matches_filtered_table(self):
        table, schema = random_final_table(
            400, 6, sa_attributes={"g": 2}, ca_attributes={"r": 3}, seed=3
        )
        db = encode_table(table, schema)
        rng = np.random.default_rng(0)
        valid = rng.random(400) < 0.7
        restricted = db.restrict(valid)
        # Same dictionary, so supports must match the re-encoded subset.
        subset_db = encode_table(table.filter(valid), schema)
        for item_id in range(db.n_items):
            item = db.dictionary.item(item_id)
            want = (
                subset_db.covers()[subset_db.dictionary.id_of(item)].support()
                if item in subset_db.dictionary else 0
            )
            assert restricted.covers()[item_id].support() == want

    def test_restricted_rows_view_is_rejected(self, temporal):
        db, valids = temporal
        restricted = db.restrict(valids[0])
        with pytest.raises(MiningError, match="restricted"):
            restricted.rows

    def test_restrict_length_mismatch_rejected(self, temporal):
        db, valids = temporal
        with pytest.raises(MiningError, match="does not match"):
            db.restrict(np.ones(3, dtype=bool))
        # A date mask of the wrong length cannot be diffed either.
        engine = _engine(db)
        state = engine.build_at(valids[0], 0)
        with pytest.raises(MiningError, match="cover sizes differ"):
            engine.update(state, np.ones(len(db) + 1, dtype=bool), 1)

    def test_item_supports_respect_restriction(self, temporal):
        db, valids = temporal
        restricted = db.restrict(valids[1])
        supports = restricted.item_supports()
        for item_id in range(db.n_items):
            assert supports[item_id] == restricted.covers()[item_id].support()

    def test_chained_restrictions_compose(self, temporal):
        db, valids = temporal
        rng = np.random.default_rng(7)
        other = rng.random(len(db)) < 0.6
        chained = db.restrict(valids[1]).restrict(other)
        direct = db.restrict(valids[1] & other)
        assert chained.n_active == direct.n_active
        assert chained.full_cover() == direct.full_cover()
        for item_id in range(db.n_items):
            assert chained.covers()[item_id] == direct.covers()[item_id]


class TestIncrementalParity:
    def test_bit_exact_parity_across_dates(self, temporal):
        db, valids = temporal
        engine = _engine(db)
        states = engine.run([(d, valids[d]) for d in (0, 1, 2)])
        for state in states:
            scratch = _scratch(db, valids[state.date])
            assert check_same_cells(state.cube, scratch, atol=0.0) == []

    def test_some_contexts_are_carried(self, temporal):
        db, valids = temporal
        engine = _engine(db)
        states = engine.run([(d, valids[d]) for d in (0, 1, 2)])
        for state in states[1:]:
            extra = state.cube.metadata.extra
            assert extra["engine"] == "incremental"
            assert extra["n_changed_rows"] > 0
            assert extra["n_carried_contexts"] > extra["n_recomputed_contexts"]

    def test_cell_accounting_adds_up(self, temporal):
        db, valids = temporal
        engine = _engine(db)
        s0 = engine.build_at(valids[0], 0)
        s1 = engine.update(s0, valids[1], 1)
        extra = s1.cube.metadata.extra
        assert extra["n_carried_cells"] \
            + extra["n_carried_cells_within_affected"] \
            + extra["n_recomputed_cells"] == len(s1.cube)
        assert extra["n_carried_contexts"] + extra["n_recomputed_contexts"] \
            == extra["n_contexts"] == len(s1.contexts)

    def test_carried_cells_are_bitwise_identical_to_previous(self, temporal):
        db, valids = temporal
        engine = _engine(db)
        s0 = engine.build_at(valids[0], 0)
        s1 = engine.update(s0, valids[1], 1)
        prev, new = s0.cube.table, s1.cube.table
        # Carried rows — whole-context carries and per-cell carries
        # inside recomputed contexts alike — sit first in the merged
        # table, in previous row order.
        extra = s1.cube.metadata.extra
        n_carried = extra["n_carried_cells"] \
            + extra["n_carried_cells_within_affected"]
        assert n_carried > 0
        for j in range(n_carried):
            key = new.keys[j]
            i = prev.row_of(key)
            assert i is not None
            assert int(prev.population[i]) == int(new.population[j])
            assert int(prev.minority[i]) == int(new.minority[j])
            for name, column in prev.columns.items():
                a = np.asarray([column[i]]).view(np.uint64)[0]
                b = np.asarray([new.columns[name][j]]).view(np.uint64)[0]
                assert a == b, (key, name)

    def test_no_change_reuses_cells_with_fresh_provenance(self, temporal):
        db, valids = temporal
        engine = _engine(db)
        s0 = engine.build_at(valids[0], 0)
        again = engine.update(s0, valids[0], 99)
        assert again.cube.table is s0.cube.table   # zero copying
        assert again.date == 99
        extra = again.cube.metadata.extra
        assert extra["n_changed_rows"] == 0
        assert extra["n_recomputed_contexts"] == 0
        assert extra["n_carried_cells"] == len(s0.cube)
        assert extra["n_carried_cells_within_affected"] == 0
        # Consumers of the incremental keys (the timeline example, E19,
        # perfbench) must never KeyError on a static period.
        for key in ("n_carried_contexts", "n_recomputed_cells",
                    "n_contexts"):
            assert key in extra

    def test_resolver_still_answers_point_queries(self, temporal):
        db, valids = temporal
        engine = _engine(db)
        s0 = engine.build_at(valids[0], 0)
        s1 = engine.update(s0, valids[1], 1)
        scratch = _scratch(db, valids[1])
        # A below-threshold or unmaterialised query answers identically.
        for key in list(scratch.keys())[:5]:
            live = s1.cube.cell_by_key(key)
            ref = scratch.cell_by_key(key)
            assert live.population == ref.population
            assert live.minority == ref.minority

    def test_randomized_unlocalized_churn_parity(self):
        # Even with churn spread over arbitrary rows (worst case: most
        # contexts affected), the engine must stay bit-exact.
        table, schema = random_final_table(
            1500, 8, sa_attributes={"g": 2, "a": 3},
            ca_attributes={"r": 3, "s": 3}, seed=17, skew=0.3,
        )
        db = encode_table(table, schema)
        rng = np.random.default_rng(11)
        valid = np.ones(1500, dtype=bool)
        engine = _engine(db, min_population=15, min_minority=4)
        state = engine.build_at(valid, 0)
        for step in range(1, 4):
            flips = rng.choice(1500, size=60, replace=False)
            valid = valid.copy()
            valid[flips] = ~valid[flips]
            state = engine.update(state, valid, step)
            scratch = _scratch(
                db, valid, min_population=15, min_minority=4
            )
            assert check_same_cells(state.cube, scratch, atol=0.0) == []


def _closed_engine(db, **overrides):
    params = dict(LIMITS)
    params.update(overrides)
    return TemporalCubeEngine(
        db, SegregationDataCubeBuilder(engine="incremental", mode="closed",
                                       **params)
    )


def _closed_scratch(db, valid, **overrides):
    params = dict(LIMITS)
    params.update(overrides)
    return SegregationDataCubeBuilder(
        mode="closed", **params
    ).build_from_transactions(db.restrict(valid))


class TestClosedModeIncremental:
    """Closed-mode updates must match from-scratch closed builds, bit-exact.

    The closure diff only re-derives closedness for itemsets whose
    ``cover_digest`` changed; everything else reuses the previous flag —
    and the result must still be indistinguishable from
    ``filter_closed`` run from scratch at every date.
    """

    def test_bit_exact_parity_across_dates(self, temporal):
        db, valids = temporal
        engine = _closed_engine(db)
        states = engine.run([(d, valids[d]) for d in (0, 1, 2)])
        for state in states:
            scratch = _closed_scratch(db, valids[state.date])
            assert check_same_cells(state.cube, scratch, atol=0.0) == []

    def test_closed_cube_is_no_larger_than_all_mode(self, temporal):
        db, valids = temporal
        all_states = _engine(db).run([(d, valids[d]) for d in (0, 1, 2)])
        closed_states = _closed_engine(db).run(
            [(d, valids[d]) for d in (0, 1, 2)]
        )
        for sa, sc in zip(all_states, closed_states):
            assert sc.cube.metadata.mode == "closed"
            assert len(sc.cube) <= len(sa.cube)

    def test_contexts_are_still_carried_in_closed_mode(self, temporal):
        db, valids = temporal
        engine = _closed_engine(db)
        states = engine.run([(d, valids[d]) for d in (0, 1, 2)])
        for state in states[1:]:
            extra = state.cube.metadata.extra
            assert extra["n_carried_contexts"] > 0
            assert extra["n_carried_cells"] > 0

    def test_zero_churn_closed_update_returns_previous_cells(self, temporal):
        # Regression: a static period in closed mode must return the
        # previous cells verbatim under all-carried provenance, not
        # re-derive (or worse, drop) closure flags.
        db, valids = temporal
        engine = _closed_engine(db)
        s0 = engine.build_at(valids[0], 0)
        again = engine.update(s0, valids[0], 7)
        assert again.cube.table is s0.cube.table
        extra = again.cube.metadata.extra
        assert extra["n_changed_rows"] == 0
        assert extra["n_carried_cells"] == len(s0.cube)
        assert extra["n_recomputed_cells"] == 0
        assert extra["n_carried_cells_within_affected"] == 0
        assert again.closed_info is not None
        assert check_same_cells(
            again.cube, _closed_scratch(db, valids[0]), atol=0.0
        ) == []

    def test_randomized_churn_parity_closed(self):
        table, schema = random_final_table(
            1500, 8, sa_attributes={"g": 2, "a": 3},
            ca_attributes={"r": 3, "s": 3}, seed=23, skew=0.3,
        )
        db = encode_table(table, schema)
        rng = np.random.default_rng(29)
        valid = np.ones(1500, dtype=bool)
        engine = _closed_engine(db, min_population=15, min_minority=4)
        state = engine.build_at(valid, 0)
        for step in range(1, 4):
            flips = rng.choice(1500, size=60, replace=False)
            valid = valid.copy()
            valid[flips] = ~valid[flips]
            state = engine.update(state, valid, step)
            scratch = _closed_scratch(
                db, valid, min_population=15, min_minority=4
            )
            assert check_same_cells(state.cube, scratch, atol=0.0) == []


class TestCellLevelCarry:
    """Per-cell carry inside recomputed contexts.

    A swap of one row for an attribute-identical row in the same unit
    changes the context's cover (so the context is recomputed) but not
    its unit-count vector — every cell whose segregation items were not
    touched by the churn must then be carried verbatim, not re-evaluated.
    """

    def _swap_db(self):
        # r=a: units 0/1, a fixed F/M mixture, plus one *spare* M row
        # (attribute-identical to row 11) that is invalid at date 0.
        rows = []
        for i in range(12):
            rows.append(("F" if i % 3 == 0 else "M", "a", i % 2))
        rows += [("F" if i % 2 else "M", "b", i % 2) for i in range(12)]
        rows.append(("M", "a", 11 % 2))   # spare; mirrors row 11
        table = Table.from_rows(["g", "r", "unitID"], rows)
        schema = Schema.build(
            segregation=["g"], context=["r"], unit="unitID"
        )
        return encode_table(table, schema)

    def _run_swap(self, mode):
        db = self._swap_db()
        builder = SegregationDataCubeBuilder(
            engine="incremental", mode=mode, min_population=10,
            min_minority=2, max_sa_items=1, max_ca_items=1,
        )
        engine = TemporalCubeEngine(db, builder)
        valid0 = np.ones(25, dtype=bool)
        valid0[24] = False                  # spare row out
        valid1 = np.ones(25, dtype=bool)
        valid1[11] = False                  # swap: row 11 out, spare in
        s0 = engine.build_at(valid0, 0)
        s1 = engine.update(s0, valid1, 1)
        scratch = SegregationDataCubeBuilder(
            mode=mode, min_population=10, min_minority=2,
            max_sa_items=1, max_ca_items=1,
        ).build_from_transactions(db.restrict(valid1))
        return s1, scratch

    @pytest.mark.parametrize("mode", ["all", "closed"])
    def test_untouched_cells_in_affected_context_are_carried(self, mode):
        s1, scratch = self._run_swap(mode)
        extra = s1.cube.metadata.extra
        # The swap touches items (g=M, r=a): context {r=a} recomputes,
        # but its tvec is unchanged, so the g=F cell carries.
        assert extra["n_recomputed_contexts"] >= 1
        assert extra["n_carried_cells_within_affected"] >= 1
        assert check_same_cells(s1.cube, scratch, atol=0.0) == []

    @pytest.mark.parametrize("mode", ["all", "closed"])
    def test_carry_and_recompute_partition_the_cube(self, mode):
        s1, _ = self._run_swap(mode)
        extra = s1.cube.metadata.extra
        assert extra["n_carried_cells"] \
            + extra["n_carried_cells_within_affected"] \
            + extra["n_recomputed_cells"] == len(s1.cube)


class TestContextTransitions:
    """Contexts must appear/disappear exactly as a scratch build says."""

    def _db(self, rows):
        table = Table.from_rows(["g", "r", "unitID"], rows)
        schema = Schema.build(
            segregation=["g"], context=["r"], unit="unitID"
        )
        return encode_table(table, schema)

    def test_context_drops_below_threshold(self):
        # 12 rows of r=a; threshold 10; removing 3 kills the context.
        rows = [("F" if i % 3 == 0 else "M", "a", i % 2) for i in range(12)]
        rows += [("F" if i % 2 else "M", "b", i % 2) for i in range(12)]
        db = self._db(rows)
        engine = _engine(db, min_population=10, min_minority=2,
                         max_sa_items=1, max_ca_items=1)
        valid0 = np.ones(24, dtype=bool)
        valid1 = valid0.copy()
        valid1[[0, 3, 6]] = False
        s0 = engine.build_at(valid0, 0)
        s1 = engine.update(s0, valid1, 1)
        contexts0 = {frozenset(db.dictionary.item(i) for i in c)
                     for c in s0.contexts}
        contexts1 = {frozenset(db.dictionary.item(i) for i in c)
                     for c in s1.contexts}
        from repro.itemsets.items import Item
        assert frozenset({Item("r", "a")}) in contexts0
        assert frozenset({Item("r", "a")}) not in contexts1
        scratch = _scratch(db, valid1, min_population=10, min_minority=2,
                           max_sa_items=1, max_ca_items=1)
        assert check_same_cells(s1.cube, scratch, atol=0.0) == []

    def test_context_becomes_frequent(self):
        # r=a starts at 8 rows (< 10), gains 3 joiners -> frequent.
        rows = [("F" if i % 3 == 0 else "M", "a", i % 2) for i in range(11)]
        rows += [("F" if i % 2 else "M", "b", i % 2) for i in range(12)]
        db = self._db(rows)
        engine = _engine(db, min_population=10, min_minority=2,
                         max_sa_items=1, max_ca_items=1)
        valid0 = np.ones(23, dtype=bool)
        valid0[[0, 1, 2]] = False          # only 8 r=a rows at date 0
        valid1 = np.ones(23, dtype=bool)   # all 11 at date 1
        s0 = engine.build_at(valid0, 0)
        s1 = engine.update(s0, valid1, 1)
        from repro.itemsets.items import Item
        decoded1 = {frozenset(db.dictionary.item(i) for i in c)
                    for c in s1.contexts}
        assert frozenset({Item("r", "a")}) in decoded1
        scratch = _scratch(db, valid1, min_population=10, min_minority=2,
                           max_sa_items=1, max_ca_items=1)
        assert check_same_cells(s1.cube, scratch, atol=0.0) == []


class TestEngineGuards:
    def test_requires_incremental_engine(self, temporal):
        db, _ = temporal
        with pytest.raises(CubeError, match="engine='incremental'"):
            TemporalCubeEngine(db, SegregationDataCubeBuilder())

    def test_accepts_closed_mode(self, temporal):
        db, _ = temporal
        engine = TemporalCubeEngine(
            db,
            SegregationDataCubeBuilder(engine="incremental",
                                       mode="closed", **LIMITS),
        )
        assert engine.builder.mode == "closed"

    def test_requires_unit_labels(self):
        table = Table.from_dict({"g": ["F", "M"], "r": ["a", "b"]})
        schema = Schema.build(segregation=["g"], context=["r"])
        db = encode_table(table, schema)
        with pytest.raises(CubeError, match="unit-labelled"):
            TemporalCubeEngine(db)

    def test_fractional_threshold_falls_back_to_full_build(self):
        table, schema = random_final_table(
            600, 6, sa_attributes={"g": 2}, ca_attributes={"r": 3}, seed=2
        )
        db = encode_table(table, schema)
        engine = _engine(db, min_population=0.05, min_minority=4)
        valid0 = np.ones(600, dtype=bool)
        valid1 = valid0.copy()
        valid1[:80] = False   # n_active shrinks -> threshold re-resolves
        s0 = engine.build_at(valid0, 0)
        s1 = engine.update(s0, valid1, 1)
        assert s1.cube.metadata.extra.get("engine") == "incremental"
        assert "n_carried_contexts" not in s1.cube.metadata.extra
        scratch = _scratch(db, valid1, min_population=0.05, min_minority=4)
        assert check_same_cells(s1.cube, scratch, atol=0.0) == []

    def test_plain_builder_accepts_incremental_engine(self):
        table, schema = random_final_table(
            400, 6, sa_attributes={"g": 2}, ca_attributes={"r": 3}, seed=1
        )
        incremental = SegregationDataCubeBuilder(
            engine="incremental", min_population=15, min_minority=4
        ).build(table, schema)
        columnar = SegregationDataCubeBuilder(
            min_population=15, min_minority=4
        ).build(table, schema)
        assert check_same_cells(incremental, columnar, atol=0.0) == []

    def test_unknown_engine_rejected(self):
        with pytest.raises(CubeError, match="engine must be"):
            SegregationDataCubeBuilder(engine="nope")
