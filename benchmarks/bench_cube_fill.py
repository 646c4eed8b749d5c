"""E17 — cube fill shoot-out: per-cell loop vs columnar batched engine.

Filling the cube's cells, after mining: the per-cell reference in
``tests/oracles.py`` (``make_cell``) counts each mined cell's minority
with its own ``np.bincount`` over the cover's unit labels and runs six
scalar index evaluations on it; the columnar engine's one
count-and-evaluate loop (``count_and_eval``, shared with the parallel
workers) counts each bounded batch of cells with the popcount kernel
(ANDed item rows in unit order, per-unit counts read off a running
popcount) and evaluates each index with one batched kernel call per
context, landing results directly in the struct-of-arrays
``CellTable``.

Assertions pin the refactor's contract at >= 100k rows: the encoded
database equals the per-row reference encoder's bit for bit (CSR
arrays, units and item dictionary; the table has a multi-valued CA),
and so does the table written as CSV and streamed back through the
encoder in default-size chunks (two at 120k rows); the builder's one
level-wise mine gives the recursive reference DFS's cells and contexts
(same keys, same order, same supports); the two engines produce
*identical* cubes (checked with zero tolerance) with the columnar fill
at least 2x faster, and the array-routed top-k ranking at least 2x
faster than the per-object sort it replaced.
"""

from __future__ import annotations

import time

import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.coordinates import describe_key
from repro.cube.cube import SegregationCube, check_same_cells
from repro.data.synthetic import random_final_table
from repro.etl.csvio import write_table
from repro.etl.stream import DEFAULT_CHUNK_ROWS, stream_csv
from repro.itemsets.transactions import EncodeAccumulator, encode_table
from repro.report.text import render_table

from benchmarks.conftest import write_bench_json, write_result
from tests.oracles import (
    assert_same_db,
    encode_reference,
    fill_percell,
    mine_eclat_reference,
    mine_eclat_typed_reference,
)

FILL_ROWS = 120_000
TOPK_REPS = 5
LIMITS = {"min_population": 60, "min_minority": 15,
          "max_sa_items": 2, "max_ca_items": 2}


def _fill_table(n_rows: int, seed: int = 9):
    return random_final_table(
        n_rows=n_rows,
        n_units=60,
        sa_attributes={"g": 2, "a": 4, "b": 3},
        ca_attributes={"r": 5, "s": 4},
        multi_valued_ca={"mv": 4},
        seed=seed,
        skew=0.5,
    )


@pytest.fixture(scope="module")
def fill_table():
    return _fill_table(FILL_ROWS)


@pytest.fixture(scope="module")
def reference_db(fill_table):
    """The per-row reference encoding of the E17 table."""
    return encode_reference(*fill_table)


def test_csv_stream_encode_matches_reference(fill_table, reference_db,
                                             tmp_path):
    """The table written as CSV and streamed back at the default chunk
    size encodes to the reference database bit for bit."""
    table, schema = fill_table
    path = tmp_path / "fill.csv"
    write_table(table, path)
    accumulator = EncodeAccumulator(schema)
    n_chunks = 0
    for chunk in stream_csv(path, schema=schema):
        accumulator.add_chunk(chunk)
        n_chunks += 1
    assert n_chunks == -(-FILL_ROWS // DEFAULT_CHUNK_ROWS) == 2
    assert_same_db(accumulator.finalize(), reference_db)


def _top_reference(cube: SegregationCube, index_name: str, k: int,
                   min_minority: int, min_units: int = 2):
    """The pre-columnar ranking: sort *all* candidate cell objects."""
    candidates = [
        stats
        for stats in cube
        if not stats.is_context_only
        and stats.is_defined(index_name)
        and stats.minority >= min_minority
        and stats.n_units >= min_units
    ]
    candidates.sort(
        key=lambda s: (
            -s.value(index_name),
            describe_key(s.key, cube.dictionary),
        )
    )
    return candidates[:k]


def test_cube_fill_columnar_vs_percell(benchmark, fill_table, reference_db):
    """Mined once, filled twice: columnar must beat per-cell by >= 2x."""
    table, schema = fill_table
    builder = SegregationDataCubeBuilder(**LIMITS)
    db = encode_table(table, schema)
    assert_same_db(db, reference_db)
    db.covers()                      # vertical layout shared by both fills

    def run():
        start = time.perf_counter()
        mined = builder.mine_coordinates(db)
        mine_seconds = time.perf_counter() - start

        start = time.perf_counter()
        percell_cells = fill_percell(builder, db, mined)
        percell_seconds = time.perf_counter() - start

        start = time.perf_counter()
        columnar_store = builder._fill_columnar(db, mined)
        columnar_seconds = time.perf_counter() - start
        return (mined, percell_cells, columnar_store, mine_seconds,
                percell_seconds, columnar_seconds)

    (mined, percell_cells, columnar_store, mine_seconds, percell_seconds,
     columnar_seconds) = benchmark.pedantic(run, rounds=1, iterations=1)

    # The mine against the recursive DFS: the cells in its order, and
    # the contexts as mining the CA items alone finds them, root last.
    sa_ids, ca_ids = db.dictionary.sa_ids, db.dictionary.ca_ids
    cells = mine_eclat_typed_reference(
        db, min(mined.minsup_pop, mined.minsup_min), sa_ids, ca_ids,
        LIMITS["max_sa_items"], LIMITS["max_ca_items"],
    )
    assert mined.keys == list(cells)
    contexts = mine_eclat_reference(
        db, mined.minsup_pop, items=ca_ids, max_len=LIMITS["max_ca_items"],
    )
    contexts[frozenset()] = db.n_active
    assert list(mined.context_pops.items()) == list(contexts.items())

    # Identical cubes, bit for bit.
    metadata_kwargs = dict(
        index_names=[s.name for s in builder.indexes],
        min_population=mined.minsup_pop, min_minority=mined.minsup_min,
        n_rows=len(db), n_units=db.n_units, mode="all", backend="eclat",
    )
    from repro.cube.cube import CubeMetadata

    percell_cube = SegregationCube(
        percell_cells, db.dictionary, CubeMetadata(**metadata_kwargs)
    )
    columnar_cube = SegregationCube(
        columnar_store, db.dictionary, CubeMetadata(**metadata_kwargs)
    )
    assert list(columnar_cube.keys()) == list(percell_cube.keys())
    assert check_same_cells(columnar_cube, percell_cube, atol=0.0) == []
    # A cell's minority is its itemset's support in the reference mine,
    # and its population its context's.
    for stats in columnar_cube:
        assert stats.population == contexts[stats.key[1]]
        if stats.key[0]:
            assert stats.minority == cells[stats.key].support()

    fill_speedup = percell_seconds / columnar_seconds

    # Top-k query latency: array-routed ranking vs per-object sort.
    k, guard = 10, 2 * mined.minsup_min
    start = time.perf_counter()
    for _ in range(TOPK_REPS):
        reference = _top_reference(columnar_cube, "D", k, guard)
    reference_seconds = (time.perf_counter() - start) / TOPK_REPS
    start = time.perf_counter()
    for _ in range(TOPK_REPS):
        ranked = columnar_cube.top("D", k=k, min_minority=guard)
    topk_seconds = (time.perf_counter() - start) / TOPK_REPS
    assert [s.key for s in ranked] == [s.key for s in reference]
    topk_speedup = reference_seconds / topk_seconds

    rows = [
        ["mine (shared)", FILL_ROWS, mine_seconds * 1e3, "", ""],
        ["fill per-cell", FILL_ROWS, percell_seconds * 1e3, 1.0,
         len(percell_cube)],
        ["fill columnar", FILL_ROWS, columnar_seconds * 1e3, fill_speedup,
         len(columnar_cube)],
        ["top-10 per-object sort", FILL_ROWS, reference_seconds * 1e3,
         1.0, ""],
        ["top-10 argpartition", FILL_ROWS, topk_seconds * 1e3,
         topk_speedup, ""],
    ]
    write_result(
        "E17_cube_fill",
        "Cube fill + top-k by engine (identical cells asserted, atol=0)\n"
        + render_table(
            ["stage", "rows", "time (ms)", "speedup", "cells"], rows
        ),
    )
    write_bench_json("E17", {
        "rows": FILL_ROWS,
        "cells": len(columnar_cube),
        "mine_ms": mine_seconds * 1e3,
        "fill_percell_ms": percell_seconds * 1e3,
        "fill_columnar_ms": columnar_seconds * 1e3,
        "fill_speedup": fill_speedup,
        "top10_object_sort_ms": reference_seconds * 1e3,
        "top10_argpartition_ms": topk_seconds * 1e3,
        "top10_speedup": topk_speedup,
    })
    assert fill_speedup >= 2.0, (
        f"columnar fill only {fill_speedup:.2f}x faster than per-cell"
    )
    assert topk_speedup >= 2.0, (
        f"array top-k only {topk_speedup:.2f}x faster than object sort"
    )
