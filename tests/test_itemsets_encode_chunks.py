"""Encoding parity: the chunked encoder == the per-row reference, bit for bit.

``EncodeAccumulator`` is the one encoder: ``from_chunks`` folds a chunk
stream through it and ``encode_table`` is one chunk of it.  Its contract
is exact equality of the CSR arrays, the unit labels and the item
dictionary (ids, names, kinds) with the per-row reference encoder in
``tests/oracles.py``, for every chunk size, and with or without the disk
spill engaged.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest

from repro.data.synthetic import random_final_table
from repro.errors import MiningError, SchemaError
from repro.etl import CategoricalColumn, IntColumn, MultiValuedColumn, Table
from repro.etl.schema import Schema
from repro.itemsets.transactions import (
    EncodeAccumulator,
    TransactionDatabase,
    encode_table,
)

from tests.oracles import (
    assert_same_db,
    dense_item_covers,
    encode_reference,
    iter_chunks,
)


@pytest.fixture()
def chunk_table():
    return random_final_table(
        211, 7,
        sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 4},
        multi_valued_ca={"mv": 3},
        seed=17, skew=0.4,
    )


@pytest.mark.parametrize("chunk_rows", [1, 3, 7])
def test_from_chunks_matches_encode_table(chunk_table, chunk_rows):
    table, schema = chunk_table
    reference = encode_reference(table, schema)
    assert_same_db(encode_table(table, schema), reference)
    streamed = TransactionDatabase.from_chunks(
        iter_chunks(table, chunk_rows), schema
    )
    assert_same_db(streamed, reference)


@pytest.mark.parametrize("chunk_rows", [1, 3, 7, None],
                         ids=["1", "3", "7", "one"])
def test_spilled_encode_matches_reference(chunk_table, tmp_path, chunk_rows):
    # A zero budget spills every non-empty chunk; None is one chunk.
    table, schema = chunk_table
    chunks = [table] if chunk_rows is None else iter_chunks(table, chunk_rows)
    accumulator = EncodeAccumulator(schema, spill_bytes=0,
                                    scratch_dir=tmp_path)
    for chunk in chunks:
        accumulator.add_chunk(chunk)
    assert accumulator.spilled
    assert_same_db(accumulator.finalize(), encode_reference(table, schema))
    assert not any(tmp_path.iterdir())


def test_from_chunks_spill_roundtrip(chunk_table, tmp_path):
    table, schema = chunk_table
    accumulator = EncodeAccumulator(
        schema, spill_bytes=64, scratch_dir=tmp_path
    )
    for chunk in iter_chunks(table, 5):
        accumulator.add_chunk(chunk)
    assert accumulator.spilled          # 64-byte budget must overflow
    assert accumulator.n_rows == len(table)
    assert any(tmp_path.iterdir())      # scratch files exist pre-merge
    streamed = accumulator.finalize()
    assert_same_db(streamed, encode_reference(table, schema))
    assert not any(tmp_path.iterdir())  # scratch cleaned up by finalize


def test_accumulator_without_spill_never_touches_disk(
    chunk_table, tmp_path, monkeypatch
):
    table, schema = chunk_table
    accumulator = EncodeAccumulator(schema, scratch_dir=tmp_path)
    for chunk in iter_chunks(table, 64):
        accumulator.add_chunk(chunk)
        assert not any(tmp_path.iterdir())
    assert not accumulator.spilled
    assert_same_db(accumulator.finalize(), encode_reference(table, schema))

    def no_directory(*args, **kwargs):
        raise AssertionError("encode_table created a scratch directory")

    monkeypatch.setattr(tempfile, "mkdtemp", no_directory)
    assert_same_db(encode_table(table, schema),
                   encode_reference(table, schema))


def test_accumulator_rejects_use_after_finalize(chunk_table):
    table, schema = chunk_table
    accumulator = EncodeAccumulator(schema)
    accumulator.add_chunk(table)
    accumulator.finalize()
    with pytest.raises(MiningError):
        accumulator.add_chunk(table)
    with pytest.raises(MiningError):
        accumulator.finalize()


def test_accumulator_validates_each_chunk(chunk_table):
    _, schema = chunk_table
    accumulator = EncodeAccumulator(schema)
    bad = Table.from_dict({"wrong": ["x"], "unitID": [0]})
    with pytest.raises(SchemaError):
        accumulator.add_chunk(bad)


def test_accumulator_rejects_bad_arguments(chunk_table):
    _, schema = chunk_table
    with pytest.raises(MiningError):
        EncodeAccumulator(schema, spill_bytes=-1)


def test_from_chunks_category_order_is_first_seen():
    # Chunks carry chunk-local category universes; the accumulator must
    # reassemble the *global* first-seen order of the whole table.
    schema = Schema.build(segregation=["g"], context=["r"], unit="unitID")
    full = Table.from_dict({
        "g": ["b", "a", "a", "c"],
        "r": ["y", "x", "y", "z"],
        "unitID": [0, 1, 0, 1],
    })
    streamed = TransactionDatabase.from_chunks(
        iter_chunks(full, 1), schema
    )
    assert_same_db(streamed, encode_reference(full, schema))
    items = [streamed.dictionary.item(i)
             for i in range(len(streamed.dictionary))]
    assert [it.value for it in items] == ["b", "a", "c", "y", "x", "z"]


def test_unused_category_is_an_item_with_zero_support():
    schema = Schema.build(segregation=["g"], unit="unitID")
    table = Table({
        "g": CategoricalColumn([1, 1], ["unused", "used"]),
        "unitID": IntColumn([0, 1]),
    })
    db = encode_table(table, schema)
    assert_same_db(db, encode_reference(table, schema))
    assert [db.dictionary.item(i).value for i in range(db.n_items)] == [
        "unused", "used",
    ]
    assert db.item_supports().tolist() == [0, 2]


# ----------------------------------------------------------------------
# The window key sort and the radix argsorts, at their edges
# ----------------------------------------------------------------------


def assert_encodes_like_references(chunks, table, schema):
    """The chunked encode equals the per-row reference encoder, each
    item's cover equals its dense cover read off the rows, and the unit
    grouping equals the stable int64 argsort of the unit labels."""
    db = TransactionDatabase.from_chunks(chunks, schema)
    assert_same_db(db, encode_reference(table, schema))
    covers = db.covers()
    for item, dense in enumerate(dense_item_covers(db)):
        assert np.array_equal(covers[item].to_bools(), dense), item
    assert np.array_equal(db._unit_grouping()[0],
                          np.argsort(db.units, kind="stable"))
    return db


def test_later_chunk_maps_set_codes_non_monotonically():
    # The first chunk codes b=0, c=1; the second chunk's {a, c} is
    # locally a=0, c=1 and globally a=2, c=1, so the window sort must
    # reorder that row's items.
    schema = Schema.build(segregation=["g"], context=["mv"], unit="unitID",
                          multi_valued=["mv"])

    def chunk(sets, units):
        return Table({
            "g": CategoricalColumn.from_values(["x"] * len(sets)),
            "mv": MultiValuedColumn.from_values(sets),
            "unitID": IntColumn(units),
        })

    first = chunk([{"b"}, {"c"}], [0, 1])
    second = chunk([{"a", "c"}, set(), {"b", "a"}], [1, 0, 2])
    assert second.multivalued("mv").categories == ["a", "c", "b"]
    table = chunk([{"b"}, {"c"}, {"a", "c"}, set(), {"b", "a"}],
                  [0, 1, 1, 0, 2])
    db = assert_encodes_like_references([first, second], table, schema)
    assert db.rows[2] == (0, 2, 3)          # g=x, mv=c, mv=a


@pytest.mark.parametrize("n_members, per_row", [
    pytest.param(300, 10, id="16-bit-keys"),
    pytest.param(70_000, 700, id="past-16-bit-item-keys"),
])
def test_many_items_encode_like_references(n_members, per_row):
    # Past 256 items and units the radix argsorts run on 16-bit keys;
    # past 65,536 items the item keys are 32-bit, which numpy sorts
    # stably without a radix sort.  Each block of per_row members
    # appears whole once, then thinned in a shuffled second pass, so
    # items recur across chunks; unit labels reach 299.
    rng = np.random.default_rng(n_members)
    blocks = [range(lo, min(n_members, lo + per_row))
              for lo in range(0, n_members, per_row)]
    sets = [{f"m{v}" for v in block} for block in blocks]
    sets += [{f"m{v}" for v in blocks[b] if rng.random() < 0.5}
             for b in rng.permutation(len(blocks))]
    n_rows = len(sets)
    units = rng.integers(0, 300, n_rows)
    units[-1] = 299
    table = Table({
        "g": CategoricalColumn.from_values(
            [f"g{k}" for k in rng.integers(0, 3, n_rows)]),
        "mv": MultiValuedColumn.from_values(sets),
        "unitID": IntColumn(units),
    })
    schema = Schema.build(segregation=["g"], context=["mv"], unit="unitID",
                          multi_valued=["mv"])
    db = assert_encodes_like_references(
        iter_chunks(table, max(1, n_rows // 3)), table, schema
    )
    assert db.n_items == n_members + len(table.categorical("g").categories)
    assert db.n_units == 300
