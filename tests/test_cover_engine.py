"""Cover-engine equivalence: every codec yields bit-identical results.

The packed-bitmap :class:`CoverSet` is the default cover representation
end-to-end (ETL encoding → mining → cube).  These tests pin the safety
property the refactor relies on: supports, covers, closures and cube
cells computed through the packed codec (and the EWAH codec) are
*identical* to the dense-boolean reference, including the ``closed``
cube mode and its lazy resolver path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import check_same_cells
from repro.data.synthetic import random_final_table
from repro.errors import MiningError
from repro.itemsets.coverset import (
    COVER_CODECS,
    CoverSet,
    DenseCover,
    cover_matrix,
    get_codec,
)
from repro.itemsets.eclat import closure_of, mine_eclat, mine_eclat_typed
from repro.itemsets.items import Item, ItemDictionary, ItemKind
from repro.itemsets.transactions import TransactionDatabase, encode_table


def make_db(rows, n_items=None, codec="packed"):
    size = n_items if n_items is not None else (
        max((max(r) for r in rows if r), default=-1) + 1
    )
    dictionary = ItemDictionary()
    for i in range(size):
        dictionary.add(Item("x", i), ItemKind.SA)
    return TransactionDatabase([tuple(r) for r in rows], dictionary,
                               codec=codec)


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
        assert CoverSet.from_indices([0, 64], 65).to_indices().tolist() == [0, 64]

    def test_equality(self):
        a = CoverSet.from_indices([1, 2], 100)
        b = CoverSet.from_indices([1, 2], 100)
        assert a == b and hash(a) == hash(b)
        assert a != CoverSet.from_indices([1, 3], 100)

    def test_unknown_codec_rejected(self):
        with pytest.raises(MiningError, match="unknown cover codec"):
            get_codec("roaring")

    def test_dense_cover_parity(self):
        rng = np.random.default_rng(9)
        a = rng.random(200) < 0.3
        dense = DenseCover.from_bools(a)
        packed = CoverSet.from_bools(a)
        assert dense.support() == packed.support()
        assert dense.tolist() == packed.tolist()


# ---------------------------------------------------------------------------
# Property: all codecs agree on mining, closures and supports.
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
    reference = None
    for codec in COVER_CODECS:
        db = make_db(rows, n_items, codec=codec)
        supports = mine_eclat(db, minsup)
        covers = mine_eclat(db, minsup, with_covers=True)
        materialised = {k: v.tolist() for k, v in covers.items()}
        item_supports = db.item_supports().tolist()
        if reference is None:
            reference = (supports, materialised, item_supports)
        else:
            assert supports == reference[0], codec
            assert materialised == reference[1], codec
            assert item_supports == reference[2], codec


@given(random_rows())
@settings(max_examples=30, deadline=None)
def test_codecs_pack_to_identical_words(rows_items_minsup):
    rows, n_items, _ = rows_items_minsup
    matrices = []
    for codec in COVER_CODECS:
        covers = make_db(rows, n_items, codec=codec).covers()
        matrices.append(
            cover_matrix([covers[i] for i in range(n_items)], len(rows))
        )
    for codec, matrix in zip(COVER_CODECS, matrices):
        assert np.array_equal(matrix, matrices[0]), codec
    bits = np.unpackbits(
        matrices[0].view(np.uint8), axis=1, bitorder="little"
    )[:, :len(rows)]
    for item in range(n_items):
        assert bits[item].tolist() == [item in row for row in rows]


@given(random_rows())
@settings(max_examples=30, deadline=None)
def test_codecs_agree_on_closures(rows_items_minsup):
    rows, n_items, minsup = rows_items_minsup
    closures_by_codec = []
    for codec in COVER_CODECS:
        db = make_db(rows, n_items, codec=codec)
        frequent = mine_eclat(db, minsup, with_covers=True)
        closures_by_codec.append(
            {k: closure_of(db, cover) for k, cover in frequent.items()}
        )
    assert closures_by_codec[0] == closures_by_codec[1] == closures_by_codec[2]


@given(random_rows())
@settings(max_examples=30, deadline=None)
def test_closure_accepts_dense_boolean_arrays(rows_items_minsup):
    """Legacy callers hand dense bool arrays; coercion must be exact."""
    rows, n_items, minsup = rows_items_minsup
    db = make_db(rows, n_items, codec="packed")
    for itemset, cover in mine_eclat(db, minsup, with_covers=True).items():
        dense = np.asarray(cover.to_bools(), dtype=bool)
        assert closure_of(db, dense) == closure_of(db, cover)


# ---------------------------------------------------------------------------
# Property: cube cells identical across codecs, in both modes, through
# the lazy resolver.
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


LIMITS = {"min_population": 4, "min_minority": 2,
          "max_sa_items": 2, "max_ca_items": 2}


@given(cube_configs())
@settings(max_examples=12, deadline=None)
def test_cube_cells_identical_across_codecs(config):
    table, schema = random_final_table(**config)
    cubes = [
        SegregationDataCubeBuilder(codec=codec, **LIMITS).build(table, schema)
        for codec in COVER_CODECS
    ]
    assert check_same_cells(cubes[0], cubes[1]) == []
    assert check_same_cells(cubes[0], cubes[2]) == []


@given(cube_configs())
@settings(max_examples=8, deadline=None)
def test_closed_mode_and_lazy_resolver_identical_across_codecs(config):
    table, schema = random_final_table(**config)
    full = SegregationDataCubeBuilder(
        mode="all", codec="bool", **LIMITS
    ).build(table, schema)
    for codec in ("packed", "ewah"):
        closed = SegregationDataCubeBuilder(
            mode="closed", codec=codec, **LIMITS
        ).build(table, schema)
        assert len(closed) <= len(full)
        for key in full.keys():
            a = full.cell_by_key(key)
            b = closed.cell_by_key(key)   # materialised or lazily resolved
            assert b is not None, closed.describe(key)
            assert (a.population, a.minority, a.n_units) == (
                b.population, b.minority, b.n_units
            )
            for name in full.metadata.index_names:
                va, vb = a.value(name), b.value(name)
                if va == va or vb == vb:  # skip double-nan
                    assert va == pytest.approx(vb), (name, key)


# ---------------------------------------------------------------------------
# Encoding equivalence: vectorized encoder across codecs.
# ---------------------------------------------------------------------------

@given(cube_configs())
@settings(max_examples=15, deadline=None)
def test_encode_table_identical_across_codecs(config):
    table, schema = random_final_table(**config)
    dbs = [encode_table(table, schema, codec=c) for c in COVER_CODECS]
    assert dbs[0].rows == dbs[1].rows == dbs[2].rows
    assert all(db.units.tolist() == dbs[0].units.tolist() for db in dbs)
    for db in dbs:
        # The vertical layout must agree with the horizontal rows.
        for i, cover in db.covers().items():
            expected = [i in row for row in db.rows]
            assert cover.tolist() == expected


@given(cube_configs())
@settings(max_examples=10, deadline=None)
def test_typed_mine_identical_across_codecs(config):
    table, schema = random_final_table(**config)
    results = []
    for codec in COVER_CODECS:
        db = encode_table(table, schema, codec=codec)
        out = mine_eclat_typed(
            db, 2, sa_ids=db.dictionary.sa_ids, ca_ids=db.dictionary.ca_ids,
            max_sa=2, max_ca=2,
        )
        results.append({k: v.tolist() for k, v in out.items()})
    assert results[0] == results[1] == results[2]
