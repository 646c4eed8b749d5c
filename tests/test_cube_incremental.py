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

from repro.cube import builder as builder_module
from repro.cube import incremental as incremental_module
from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import check_same_cells
from repro.cube.incremental import TemporalCubeEngine
from repro.data.synthetic import random_final_table, random_temporal_final_table
from repro.errors import CubeError, MiningError
from repro.etl.diff import valid_at
from repro.etl.schema import Schema
from repro.etl.table import CategoricalColumn, Table
from repro.itemsets.coverset import as_cover
from repro.itemsets import transactions
from repro.itemsets.items import Item
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
            cover = restricted.covers()[item_id]
            rows = set(np.flatnonzero(cover.to_bools()).tolist())
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

    The closure memo re-derives closedness only for candidates whose
    items all meet a changed row (or that have no previous flag); every
    other candidate keeps its previous flag — and the result must still
    be indistinguishable from ``filter_closed`` run from scratch at
    every date.
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


def _crossed_masks(db, valid):
    """Three dates from ``valid``, each next one flipping 5 rows of
    ``r=r0, s=s1`` and 5 of ``r=r1, s=s0``: the items r0, r1, s0 and s1
    all meet a changed row, while the context ``{r0, s0}`` meets none."""
    def rows(r, s):
        ids = [db.dictionary.id_of(Item("r", r)),
               db.dictionary.id_of(Item("s", s))]
        return np.flatnonzero(db.cover_of(ids).to_bools())

    rng = np.random.default_rng(3)
    masks = [valid]
    for _ in range(2):
        mask = masks[-1].copy()
        for r, s in (("r0", "s1"), ("r1", "s0")):
            mask[rng.choice(rows(r, s), size=5, replace=False)] ^= True
        masks.append(mask)
    return masks


class TestUpdateWork:
    """Work counts, not timings: a publish re-mines only what it must."""

    @pytest.mark.parametrize("timeline", ["dated", "crossed"])
    @pytest.mark.parametrize("mode", ["all", "closed"])
    def test_recomputes_exactly_the_contexts_a_changed_row_reaches(
        self, temporal, mode, timeline
    ):
        """Each update recomputes the contexts frequent at the new date
        (root included) whose union cover meets a changed row, and
        carries every other one.  On the crossed timeline some carried
        context holds only items that meet a changed row."""
        db, valids = temporal
        masks = ([valids[d] for d in (0, 1, 2)] if timeline == "dated"
                 else _crossed_masks(db, valids[0]))
        engine = _engine(db, mode=mode)
        states = engine.run(list(enumerate(masks)))
        scratch = SegregationDataCubeBuilder(mode=mode, **LIMITS)
        for date in (1, 2):
            changed = as_cover(masks[date - 1] ^ masks[date])
            frequent = scratch.mine_coordinates(
                db.restrict(masks[date])
            ).context_tvecs
            reached = [
                context for context in frequent
                if (db.cover_of(context) & changed).support() > 0
            ]
            extra = states[date].cube.metadata.extra
            assert states[date].contexts == frozenset(frequent)
            assert extra["n_recomputed_contexts"] == len(reached)
            assert extra["n_carried_contexts"] == len(frequent) - len(reached)
            assert 0 < len(reached) < len(frequent)
            affected = {
                item for item in range(db.n_items)
                if (db.cover_of([item]) & changed).support() > 0
            }
            carried_affected = [
                context for context in frequent
                if context and context <= affected and context not in reached
            ]
            assert bool(carried_affected) == (timeline == "crossed")


    @pytest.mark.parametrize("timeline", ["dated", "crossed", "swap"])
    @pytest.mark.parametrize("mode", ["all", "closed"])
    def test_counts_exactly_the_recomputed_cells(
        self, temporal, monkeypatch, mode, timeline
    ):
        """Each update's fill counts every cell it queues once, on its
        context, and ANDs each of those contexts' items once.  A counted
        cell is a fresh row of the new cube or one the scratch build
        does not hold (its minority is below the threshold), never a
        carried row, so the counted cells the scratch cube holds plus
        the fresh context-only rows are ``n_recomputed_cells``.  That
        number is the scratch cube's cells whose context's union cover
        meets a changed row, less those the previous date held with an
        unchanged context population and a static cover missing every
        changed row (a context-only cell needs only the population)."""
        limits = {}
        if timeline == "swap":
            # Its g=F cell of {r=a} is carried within a recomputed context.
            db = TestCellLevelCarry()._swap_db()
            masks = [np.arange(25) != 24, np.arange(25) != 11]
            limits = {"min_population": 10, "min_minority": 2,
                      "max_sa_items": 1, "max_ca_items": 1}
        else:
            db, valids = temporal
            masks = ([valids[d] for d in (0, 1, 2)] if timeline == "dated"
                     else _crossed_masks(db, valids[0]))
        engine = _engine(db, mode=mode, **limits)
        queued, counted, anded = [], [], []
        enumerate_candidates = SegregationDataCubeBuilder._enumerate_candidates
        count_on_contexts = builder_module.count_on_contexts
        and_itemsets = transactions._and_itemsets

        def enumerating(builder, db, mined):
            queued.append(enumerate_candidates(builder, db, mined))
            return queued[-1]

        def counting(words, bounds, contexts, cell_rows, sizes, batch):
            # Every AND of whole itemsets from here on is a context's:
            # the update's other counts ran before its fill.
            anded.clear()
            counted.append((list(contexts), len(cell_rows)))
            return count_on_contexts(words, bounds, contexts, cell_rows,
                                     sizes, batch)

        def anding(words, index_rows, out):
            anded.append(len(index_rows))
            return and_itemsets(words, index_rows, out)

        state = engine.build_at(masks[0], 0)
        monkeypatch.setattr(SegregationDataCubeBuilder,
                            "_enumerate_candidates", enumerating)
        monkeypatch.setattr(builder_module, "count_on_contexts", counting)
        monkeypatch.setattr(transactions, "_and_itemsets", anding)
        for date in range(1, len(masks)):
            queued.clear(), counted.clear()
            previous = set(state.cube.keys())
            state = engine.update(state, masks[date], date)
            extra = state.cube.metadata.extra
            (cand,) = queued
            (contexts, n_cells), = counted
            cells = [key for key, row in zip(cand.keys, cand.rows_of)
                     if row >= 0]
            assert n_cells == len(cells) > 0
            assert len(set(contexts)) == len(contexts) == sum(anded)
            assert set(contexts) == {ca for _, ca in cells}
            assert len(contexts) <= extra["n_recomputed_contexts"]

            table = state.cube.table
            fresh = set(table.keys[len(table) - extra["n_recomputed_cells"]:])
            scratch = set(_scratch(db, masks[date], mode=mode,
                                   **limits).keys())
            held = [key for key in cells if key in scratch]
            assert all(key in fresh for key in held)
            context_only = sum(row < 0 for row in cand.rows_of)
            assert context_only + len(held) == extra["n_recomputed_cells"]

            changed = as_cover(masks[date - 1] ^ masks[date])
            before = db.restrict(masks[date - 1])
            after = db.restrict(masks[date])
            recomputed = 0
            for sa, ca in scratch:
                if not (db.cover_of(ca) & changed).any():
                    continue
                carried = (
                    (sa, ca) in previous
                    and not (sa and (db.cover_of(sa | ca) & changed).any())
                    and np.array_equal(*(
                        d.unit_counts_of([ca])[0] for d in (before, after)
                    ))
                )
                recomputed += not carried
            assert extra["n_recomputed_cells"] == recomputed


def _one_row_masks(valid):
    """Four dates from ``valid``, each next one flipping a single row: a
    valid row leaves, an invalid one joins, the first comes back."""
    leaving = int(np.flatnonzero(valid)[7])
    joining = int(np.flatnonzero(~valid)[3])
    masks = [valid]
    for row in (leaving, joining, leaving):
        mask = masks[-1].copy()
        mask[row] ^= True
        masks.append(mask)
    return masks


class TestClosureScreen:
    """A closed-mode update reuses a previous closedness flag exactly
    where an unaffected item proves the candidate's cover unchanged."""

    @pytest.mark.parametrize("timeline", ["dated", "crossed", "one_row"])
    def test_flags_exactly_the_candidates_the_screen_leaves(
        self, temporal, monkeypatch, timeline
    ):
        """Each update sends ``closure_flags`` exactly the candidates of
        its recomputed contexts whose items all meet a changed row or
        that had no flag at the previous date; on a date that flips one
        row, those are exactly the candidates covering that row."""
        db, valids = temporal
        masks = {
            "dated": lambda: [valids[d] for d in (0, 1, 2)],
            "crossed": lambda: _crossed_masks(db, valids[0]),
            "one_row": lambda: _one_row_masks(valids[0]),
        }[timeline]()
        sent = []
        closure_flags = incremental_module.closure_flags

        def recording(db, candidates, max_sa=None, max_ca=None):
            sent.append(set(candidates))
            return closure_flags(db, candidates, max_sa, max_ca)

        monkeypatch.setattr(incremental_module, "closure_flags", recording)
        engine = _closed_engine(db)
        scratch = SegregationDataCubeBuilder(
            engine="incremental", mode="closed", **LIMITS
        )
        split = db.dictionary.split
        state = engine.build_at(masks[0], 0)
        for date in range(1, len(masks)):
            previous = state.closed_info
            sent.clear()
            state = engine.update(state, masks[date], date)
            changed = as_cover(masks[date - 1] ^ masks[date])
            affected = {
                item for item in range(db.n_items)
                if (db.cover_of([item]) & changed).any()
            }
            mined = scratch.mine_coordinates(db.restrict(masks[date]))
            reached = {
                context for context in mined.context_tvecs
                if (db.cover_of(context) & changed).any()
            }
            candidates = [
                itemset for itemset in mined.closed_info
                if split(itemset)[1] in reached
            ]
            expected = {
                itemset for itemset in candidates
                if itemset <= affected
                or itemset not in previous.get(split(itemset)[1], {})
            }
            (got,) = sent
            assert got == expected
            assert got
            if timeline == "one_row":
                assert changed.support() == 1
                assert got == {
                    itemset for itemset in candidates
                    if (db.cover_of(itemset) & changed).any()
                }

    @pytest.mark.parametrize("seed", [31, 37])
    def test_random_churn_parity_with_one_row_dates(self, seed):
        """Bit-exact against scratch closed builds at every date of a
        random walk whose dates flip 1, 2, 5 or 40 rows.  The SA column
        ``t`` tracks ``g`` except on 12 rows, which sit out at first,
        and every date flips one of them, so flags change between
        dates: with every exception row of a ``g`` value out, that
        value's itemsets are not closed."""
        n_rows = 1200
        table, _ = random_final_table(
            n_rows, 8, sa_attributes={"g": 2, "a": 3},
            ca_attributes={"r": 3, "s": 3}, multi_valued_ca={"mv": 3},
            seed=seed, skew=0.4,
        )
        rng = np.random.default_rng(seed)
        exceptions = rng.choice(n_rows, size=12, replace=False)
        tracking = [f"t{g[1:]}" for g in table.categorical("g").values()]
        for row in exceptions:
            tracking[row] = "t1" if tracking[row] == "t0" else "t0"
        table = table.with_column(
            "t", CategoricalColumn.from_values(tracking)
        )
        schema = Schema.build(
            segregation=["g", "a", "t"], context=["r", "s", "mv"],
            unit="unitID", multi_valued=["mv"],
        )
        db = encode_table(table, schema)
        limits = {"min_population": 15, "min_minority": 4}
        valid = np.ones(n_rows, dtype=bool)
        valid[exceptions] = False
        engine = _closed_engine(db, **limits)
        state = engine.build_at(valid, 0)
        flipped = 0
        for step, n_flips in enumerate((1, 1, 40, 2, 1, 5, 1, 40), 1):
            rows = np.union1d(
                rng.choice(exceptions, size=1),
                rng.choice(n_rows, size=n_flips - 1, replace=False),
            )
            valid = valid.copy()
            valid[rows] ^= True
            previous = {
                itemset: flag for memo in state.closed_info.values()
                for itemset, flag in memo.items()
            }
            state = engine.update(state, valid, step)
            assert state.cube.metadata.extra["n_changed_rows"] == len(rows)
            assert check_same_cells(
                state.cube, _closed_scratch(db, valid, **limits), atol=0.0
            ) == []
            flipped += sum(
                previous.get(itemset, flag) != flag
                for memo in state.closed_info.values()
                for itemset, flag in memo.items()
            )
        assert flipped > 0


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
        for engine in ("nope", "parallel"):
            with pytest.raises(
                CubeError, match="engine must be 'columnar' or 'incremental'"
            ):
                SegregationDataCubeBuilder(engine=engine)
