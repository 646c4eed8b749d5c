"""Chunked encoding parity: ``from_chunks`` == ``encode_table``, bit for bit.

The accumulator's contract is exact equality of the CSR arrays, the
unit labels and the item dictionary (ids, names, kinds) with the
one-shot encoder, for every chunk size, and with or without the disk
spill engaged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import random_final_table
from repro.errors import MiningError, SchemaError
from repro.etl import Table, iter_chunks
from repro.etl.schema import Schema
from repro.itemsets.transactions import (
    EncodeAccumulator,
    TransactionDatabase,
    encode_table,
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


def assert_same_db(got: TransactionDatabase,
                   want: TransactionDatabase) -> None:
    assert np.array_equal(got._indptr, want._indptr)
    assert np.array_equal(got._indices, want._indices)
    assert np.array_equal(got.units, want.units)
    assert len(got.dictionary) == len(want.dictionary)
    for i in range(len(want.dictionary)):
        assert got.dictionary.item(i) == want.dictionary.item(i)
        assert got.dictionary.kind(i) == want.dictionary.kind(i)


@pytest.mark.parametrize("chunk_rows", [1, 3, 7])
def test_from_chunks_matches_encode_table(chunk_table, chunk_rows):
    table, schema = chunk_table
    reference = encode_table(table, schema)
    streamed = TransactionDatabase.from_chunks(
        iter_chunks(table, chunk_rows), schema
    )
    assert_same_db(streamed, reference)


def test_from_chunks_spill_roundtrip(chunk_table, tmp_path):
    table, schema = chunk_table
    reference = encode_table(table, schema)
    accumulator = EncodeAccumulator(
        schema, spill_bytes=64, scratch_dir=tmp_path
    )
    for chunk in iter_chunks(table, 5):
        accumulator.add_chunk(chunk)
    assert accumulator.spilled          # 64-byte budget must overflow
    assert accumulator.n_rows == len(table)
    assert any(tmp_path.iterdir())      # scratch files exist pre-merge
    streamed = accumulator.finalize()
    assert_same_db(streamed, reference)
    assert not any(tmp_path.iterdir())  # scratch cleaned up by finalize


def test_accumulator_without_spill_never_touches_disk(chunk_table, tmp_path):
    table, schema = chunk_table
    accumulator = EncodeAccumulator(schema, scratch_dir=tmp_path)
    for chunk in iter_chunks(table, 64):
        accumulator.add_chunk(chunk)
    assert not accumulator.spilled
    assert_same_db(accumulator.finalize(), encode_table(table, schema))


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
    # reassemble the *global* first-seen order encode_table would use.
    schema = Schema.build(segregation=["g"], context=["r"], unit="unitID")
    full = Table.from_dict({
        "g": ["b", "a", "a", "c"],
        "r": ["y", "x", "y", "z"],
        "unitID": [0, 1, 0, 1],
    })
    streamed = TransactionDatabase.from_chunks(
        iter_chunks(full, 1), schema
    )
    assert_same_db(streamed, encode_table(full, schema))
    items = [streamed.dictionary.item(i)
             for i in range(len(streamed.dictionary))]
    assert [it.value for it in items] == ["b", "a", "c", "y", "x", "z"]
