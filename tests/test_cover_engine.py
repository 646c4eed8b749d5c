"""Packed covers against the dense-boolean reference.

The packed-bitmap :class:`CoverSet` is the one cover representation
end-to-end (ETL encoding → mining → cube).  These tests pin the safety
property it relies on: supports, covers, closures and typed mines
computed through packed words are *identical* to dense boolean masks
read straight off the transaction rows
(:func:`tests.oracles.dense_item_covers`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import random_final_table
from repro.errors import MiningError
from repro.itemsets.coverset import CoverSet, cover_matrix
from repro.itemsets.eclat import mine_eclat, mine_eclat_typed
from repro.itemsets.items import Item, ItemDictionary, ItemKind
from repro.itemsets.transactions import encode_table

from tests.oracles import closure_of, db_from_rows, dense_item_covers


def make_db(rows, n_items=None):
    size = n_items if n_items is not None else (
        max((max(r) for r in rows if r), default=-1) + 1
    )
    dictionary = ItemDictionary()
    for i in range(size):
        dictionary.add(Item("x", i), ItemKind.SA)
    return db_from_rows(rows, dictionary)


def dense_cover(dense, itemset, n_rows):
    """AND of the dense item covers of ``itemset`` (all rows if empty)."""
    out = np.ones(n_rows, dtype=bool)
    for item in itemset:
        out &= dense[item]
    return out


# ---------------------------------------------------------------------------
# CoverSet unit behaviour
# ---------------------------------------------------------------------------

class TestCoverSet:
    def test_round_trip(self):
        bits = np.array([True, False, True] + [False] * 100 + [True])
        cover = CoverSet.from_bools(bits)
        assert cover.to_bools().tolist() == bits.tolist()
        assert cover.support() == 3
        assert len(cover) == len(bits)

    def test_and_matches_numpy(self):
        rng = np.random.default_rng(5)
        a, b = rng.random(333) < 0.4, rng.random(333) < 0.4
        ca, cb = CoverSet.from_bools(a), CoverSet.from_bools(b)
        assert (ca & cb).to_bools().tolist() == (a & b).tolist()
        assert (ca | cb).to_bools().tolist() == (a | b).tolist()
        assert ca.intersect_support(cb) == int((a & b).sum())

    def test_ones_masks_tail_bits(self):
        for n in (0, 1, 63, 64, 65, 130):
            assert CoverSet.ones(n).support() == n
            assert CoverSet.zeros(n).support() == 0
        assert CoverSet.ones(70).all()

    def test_size_mismatch_rejected(self):
        with pytest.raises(MiningError, match="sizes differ"):
            CoverSet.ones(10) & CoverSet.ones(11)

    def test_from_indices_bounds(self):
        with pytest.raises(MiningError):
            CoverSet.from_indices([10], 5)
        cover = CoverSet.from_indices([0, 64], 65)
        assert np.flatnonzero(cover.to_bools()).tolist() == [0, 64]

    def test_equality(self):
        a = CoverSet.from_indices([1, 2], 100)
        b = CoverSet.from_indices([1, 2], 100)
        assert a == b and hash(a) == hash(b)
        assert a != CoverSet.from_indices([1, 3], 100)

    def test_dense_cover_parity(self):
        rng = np.random.default_rng(9)
        a = rng.random(200) < 0.3
        packed = CoverSet.from_bools(a)
        assert packed.support() == packed.sum() == int(a.sum())
        assert packed.tolist() == a.tolist()
        assert packed.any() == bool(a.any())
        assert packed.all() == bool(a.all())


# ---------------------------------------------------------------------------
# Property: packed covers agree with the dense reference on mining,
# closures and supports.
# ---------------------------------------------------------------------------

@st.composite
def random_rows(draw):
    n_items = draw(st.integers(1, 7))
    n_rows = draw(st.integers(1, 40))
    rows = [
        tuple(sorted({
            draw(st.integers(0, n_items - 1))
            for _ in range(draw(st.integers(0, n_items)))
        }))
        for _ in range(n_rows)
    ]
    minsup = draw(st.integers(1, max(1, n_rows // 2)))
    return rows, n_items, minsup


@given(random_rows())
@settings(max_examples=40, deadline=None)
def test_codecs_agree_on_supports_and_covers(rows_items_minsup):
    rows, n_items, minsup = rows_items_minsup
    db = make_db(rows, n_items)
    dense = dense_item_covers(db)
    supports = mine_eclat(db, minsup)
    covers = mine_eclat(db, minsup, with_covers=True)
    assert set(covers) == set(supports)
    for itemset, cover in covers.items():
        expected = dense_cover(dense, itemset, len(rows))
        assert cover.tolist() == expected.tolist()
        assert supports[itemset] == int(expected.sum())
    assert db.item_supports().tolist() == [int(d.sum()) for d in dense]


@given(random_rows())
@settings(max_examples=30, deadline=None)
def test_codecs_pack_to_identical_words(rows_items_minsup):
    rows, n_items, _ = rows_items_minsup
    db = make_db(rows, n_items)
    covers = db.covers()
    matrix = cover_matrix([covers[i] for i in range(n_items)], len(rows))
    expected = cover_matrix(
        [CoverSet.from_bools(d) for d in dense_item_covers(db)], len(rows)
    )
    assert np.array_equal(matrix, expected)
    bits = np.unpackbits(
        matrix.view(np.uint8), axis=1, bitorder="little"
    )[:, :len(rows)]
    for item in range(n_items):
        assert bits[item].tolist() == [item in row for row in rows]


@given(random_rows())
@settings(max_examples=30, deadline=None)
def test_codecs_agree_on_closures(rows_items_minsup):
    rows, n_items, minsup = rows_items_minsup
    db = make_db(rows, n_items)
    dense = dense_item_covers(db)
    for itemset, cover in mine_eclat(db, minsup, with_covers=True).items():
        flags = dense_cover(dense, itemset, len(rows))
        expected = frozenset(
            i for i in range(n_items) if not (flags & ~dense[i]).any()
        )
        assert closure_of(db, cover) == expected


@given(random_rows())
@settings(max_examples=30, deadline=None)
def test_closure_accepts_dense_boolean_arrays(rows_items_minsup):
    """Callers may hand dense bool arrays; coercion must be exact."""
    rows, n_items, minsup = rows_items_minsup
    db = make_db(rows, n_items)
    for itemset, cover in mine_eclat(db, minsup, with_covers=True).items():
        dense = np.asarray(cover.to_bools(), dtype=bool)
        assert closure_of(db, dense) == closure_of(db, cover)


# ---------------------------------------------------------------------------
# Encoded finalTables: the vertical layout and the typed mine against the
# dense reference.
# ---------------------------------------------------------------------------

@st.composite
def cube_configs(draw):
    return {
        "n_rows": draw(st.integers(30, 120)),
        "n_units": draw(st.integers(1, 5)),
        "sa_attributes": {"g": draw(st.integers(2, 3))},
        "ca_attributes": {"r": draw(st.integers(2, 3))},
        "multi_valued_ca": (
            {"mv": draw(st.integers(2, 3))} if draw(st.booleans()) else {}
        ),
        "seed": draw(st.integers(0, 5_000)),
    }


@given(cube_configs())
@settings(max_examples=15, deadline=None)
def test_encode_table_identical_across_codecs(config):
    table, schema = random_final_table(**config)
    db = encode_table(table, schema)
    dense = dense_item_covers(db)
    for i, cover in db.covers().items():
        # The vertical layout must agree with the horizontal rows.
        assert cover.tolist() == dense[i].tolist()


@given(cube_configs())
@settings(max_examples=10, deadline=None)
def test_typed_mine_identical_across_codecs(config):
    table, schema = random_final_table(**config)
    db = encode_table(table, schema)
    dense = dense_item_covers(db)
    out = mine_eclat_typed(
        db, 2, sa_ids=db.dictionary.sa_ids, ca_ids=db.dictionary.ca_ids,
        max_sa=2, max_ca=2,
    )
    for (sa_part, ca_part), cover in out.items():
        itemset = sa_part | ca_part
        # The split carried down the DFS is the dictionary's split.
        assert db.dictionary.split(itemset) == (sa_part, ca_part)
        assert len(sa_part) <= 2 and len(ca_part) <= 2
        expected = dense_cover(dense, itemset, len(db))
        assert cover.tolist() == expected.tolist()
        assert itemset == frozenset() or cover.support() >= 2
