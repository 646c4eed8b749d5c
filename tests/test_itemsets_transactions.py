"""Tests of the transaction encoding of finalTable."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MiningError
from repro.etl.schema import Schema
from repro.etl.table import Table
from repro.itemsets import transactions
from repro.itemsets.coverset import (
    popcount_each,
    popcount_rows,
    popcount_words,
)
from repro.itemsets.items import Item, ItemKind
from repro.itemsets.transactions import TransactionDatabase, encode_table

from tests.oracles import unit_counts_bruteforce, unit_counts_many


@pytest.fixture()
def final_table():
    return Table.from_dict(
        {
            "gender": ["F", "M", "F"],
            "sector": [{"a", "b"}, {"a"}, set()],
            "unitID": [0, 0, 1],
        }
    )


@pytest.fixture()
def schema():
    return Schema.build(
        segregation=["gender"],
        context=["sector"],
        unit="unitID",
        multi_valued=["sector"],
    )


class TestEncodeTable:
    def test_items_typed_by_role(self, final_table, schema):
        db = encode_table(final_table, schema)
        d = db.dictionary
        assert d.kind(d.id_of(Item("gender", "F"))) is ItemKind.SA
        assert d.kind(d.id_of(Item("sector", "a"))) is ItemKind.CA

    def test_multivalued_contributes_one_item_per_member(
        self, final_table, schema
    ):
        db = encode_table(final_table, schema)
        d = db.dictionary
        f = d.id_of(Item("gender", "F"))
        a = d.id_of(Item("sector", "a"))
        b = d.id_of(Item("sector", "b"))
        assert set(db.rows[0]) == {f, a, b}
        # Empty value set contributes nothing beyond the SA item.
        assert set(db.rows[2]) == {f}

    def test_units_carried_along(self, final_table, schema):
        db = encode_table(final_table, schema)
        assert db.units.tolist() == [0, 0, 1]
        assert db.n_units == 2

    def test_item_supports(self, final_table, schema):
        db = encode_table(final_table, schema)
        d = db.dictionary
        supports = db.item_supports()
        assert supports[d.id_of(Item("gender", "F"))] == 2
        assert supports[d.id_of(Item("sector", "a"))] == 2
        assert supports[d.id_of(Item("sector", "b"))] == 1


class TestTransactionDatabase:
    def test_cover_and_support(self, final_table, schema):
        db = encode_table(final_table, schema)
        d = db.dictionary
        f = d.id_of(Item("gender", "F"))
        a = d.id_of(Item("sector", "a"))
        assert db.support_of([f]) == 2
        assert db.support_of([f, a]) == 1
        assert db.cover_of([]).all()

    def test_unit_label_length_checked(self):
        with pytest.raises(MiningError):
            TransactionDatabase([(0,)], _tiny_dictionary(),
                                units=np.array([0, 1]))

    def test_negative_units_rejected(self):
        with pytest.raises(MiningError):
            TransactionDatabase([(0,)], _tiny_dictionary(),
                                units=np.array([-1]))

    def test_rows_deduplicate_items(self):
        db = TransactionDatabase([(0, 0, 0)], _tiny_dictionary())
        assert db.rows[0] == (0,)

    def test_cover_of_unknown_item(self, final_table, schema):
        db = encode_table(final_table, schema)
        with pytest.raises(MiningError):
            db.cover_of([999])


@st.composite
def labelled_tables(draw):
    """A finalTable with a multi-valued CA, unit ids with gaps, and two
    live-row masks (the once- and twice-restricted views)."""
    n = draw(st.integers(1, 150))
    rows = st.lists
    # Drawn unit ids leave gaps: most ids below the largest carry no row.
    unit_ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
    table = Table.from_dict({
        "g": draw(rows(st.sampled_from("FMX"), min_size=n, max_size=n)),
        "r": draw(rows(st.sampled_from("ab"), min_size=n, max_size=n)),
        "mv": [set(v) for v in draw(rows(
            st.lists(st.sampled_from("pqs"), max_size=3),
            min_size=n, max_size=n,
        ))],
        "unitID": draw(rows(st.sampled_from(unit_ids), min_size=n,
                            max_size=n)),
    })
    masks = [
        np.array(draw(rows(st.booleans(), min_size=n, max_size=n)))
        for _ in range(2)
    ]
    return table, masks


MV_SCHEMA = Schema.build(
    segregation=["g"], context=["r", "mv"], unit="unitID",
    multi_valued=["mv"],
)


class TestUnitCountsOf:
    """The popcount counting kernel against counting code it shares
    nothing with: the per-row loop and the label-gather reference."""

    @settings(max_examples=60, deadline=None)
    @given(labelled_tables(), st.data())
    def test_matches_references(self, drawn, data):
        table, (mask_a, mask_b) = drawn
        base = encode_table(table, MV_SCHEMA)
        itemsets = [frozenset()] + data.draw(st.lists(
            st.frozensets(st.integers(0, base.n_items - 1), max_size=4),
            max_size=12,
        ))
        row_sets = [frozenset(row) for row in base.rows]
        # The brute-force UnitCounts drops the units no row carries.
        carried = np.bincount(base.units) > 0
        once = base.restrict(mask_a)
        twice = once.restrict(mask_b)
        for db, live in ((base, np.ones(len(base), dtype=bool)),
                         (once, mask_a), (twice, mask_a & mask_b)):
            masks = [
                live & np.array([s <= row for row in row_sets], dtype=bool)
                for s in itemsets
            ]
            got = db.unit_counts_of(itemsets)
            assert got.dtype == np.int64
            assert got.shape == (len(itemsets), db.n_units)
            assert np.array_equal(got, unit_counts_many(db, masks))
            for j, mask in enumerate(masks):
                brute = unit_counts_bruteforce(db.units, mask)
                assert np.array_equal(got[j][carried], brute.m)
                assert not got[j][~carried].any()

    @pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 128, 129])
    def test_boundary_at_every_bit_offset(self, n_rows):
        """Two units split at every row position, so a unit boundary
        falls on every bit offset 0..63 (and at the very end)."""
        rng = np.random.default_rng(n_rows)
        rows = [
            tuple(i for i in (0, 1) if rng.random() < 0.6)
            for _ in range(n_rows)
        ]
        itemsets = [(), (0,), (1,), (0, 1)]
        shuffle = rng.permutation(n_rows)
        for split in range(n_rows + 1):
            units = np.where(np.arange(n_rows) < split, 0, 1)[shuffle]
            db = TransactionDatabase(rows, _two_item_dictionary(), units)
            expected = unit_counts_many(
                db, [db.cover_of(s) for s in itemsets]
            )
            assert np.array_equal(db.unit_counts_of(itemsets), expected)

    @pytest.mark.parametrize("chunk_words", [1, 15])
    def test_chunking_is_invisible(self, monkeypatch, chunk_words):
        rng = np.random.default_rng(5)
        n = 400
        db = TransactionDatabase(
            [tuple(np.flatnonzero(rng.random(2) < 0.5)) for _ in range(n)],
            _two_item_dictionary(),
            units=rng.integers(0, 9, n),
        )
        itemsets = [(), (0,), (1,), (0, 1)] * 5
        whole = db.unit_counts_of(itemsets)
        # A tiny word budget forces one or two itemsets per chunk.
        monkeypatch.setattr(transactions, "_COUNT_CHUNK_WORDS", chunk_words)
        assert np.array_equal(db.unit_counts_of(itemsets), whole)
        assert np.array_equal(
            whole, unit_counts_many(db, [db.cover_of(s) for s in itemsets])
        )

    def test_empty_input(self, final_table, schema):
        db = encode_table(final_table, schema)
        counts = db.unit_counts_of([])
        assert counts.shape == (0, db.n_units)
        assert counts.dtype == np.int64

    @pytest.mark.parametrize("bad", ["n_items", "far", "negative"])
    def test_rejects_out_of_range_ids(self, final_table, schema, bad):
        db = encode_table(final_table, schema)
        item = {"n_items": db.n_items, "far": db.n_items + 7,
                "negative": -1}[bad]
        # Id n_items would name the padding (live-row) row.
        with pytest.raises(MiningError, match="out of range"):
            db.unit_counts_of([(0,), (0, item)])
        with pytest.raises(MiningError, match="out of range"):
            db.restrict(np.ones(len(db), dtype=bool)).unit_counts_of([(item,)])

    def test_without_units_raises(self):
        db = TransactionDatabase([(0,)], _tiny_dictionary())
        with pytest.raises(MiningError, match="no unit labels"):
            db.unit_counts_of([(0,)])

    def test_zero_rows(self):
        db = TransactionDatabase([], _tiny_dictionary(),
                                 units=np.zeros(0, dtype=np.int64))
        assert db.unit_counts_of([]).shape == (0, 0)
        assert db.unit_counts_of([(), (0,)]).shape == (2, 0)
        with pytest.raises(MiningError, match="out of range"):
            db.unit_counts_of([(1,)])


def test_popcount_fallback_matches_native(monkeypatch, final_table, schema):
    """The NumPy < 2 lookup-table popcounts, run by removing the native
    ``np.bitwise_count``, agree with the native ones bit for bit."""
    rng = np.random.default_rng(11)
    words = rng.integers(0, 2**64, size=(6, 9), dtype=np.uint64,
                         endpoint=False)
    words[0, :] = 0
    words[1, :] = np.uint64(2**64 - 1)
    words[2, ::2] = 0
    words[3, 1::2] = np.uint64(2**64 - 1)
    strided = words[:, ::2]
    itemsets = [(), (0,), (1, 3), (0, 2)]

    def run():
        db = encode_table(final_table, schema)
        return (popcount_words(words), popcount_rows(words),
                popcount_each(words), popcount_each(strided),
                db.unit_counts_of(itemsets))

    native = run()
    monkeypatch.delattr(np, "bitwise_count")
    fallback = run()
    assert native[0] == fallback[0] == sum(bin(int(w)).count("1")
                                           for w in words.ravel())
    for a, b in zip(native[1:], fallback[1:]):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def _tiny_dictionary():
    from repro.itemsets.items import ItemDictionary

    d = ItemDictionary()
    d.add(Item("x", "a"), ItemKind.SA)
    return d


def _two_item_dictionary():
    d = _tiny_dictionary()
    d.add(Item("y", "b"), ItemKind.CA)
    return d


class TestSchemaInteraction:
    def test_unit_column_not_an_item(self, final_table, schema):
        db = encode_table(final_table, schema)
        for item_id in range(len(db.dictionary)):
            assert db.dictionary.item(item_id).attribute != "unitID"

    def test_schema_without_unit_gives_unlabelled_db(self):
        table = Table.from_dict({"gender": ["F"]})
        schema = Schema.build(segregation=["gender"])
        db = encode_table(table, schema)
        assert db.units is None
        assert db.n_units == 0
