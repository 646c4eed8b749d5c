"""E21 — out-of-core scale-up: 10M-row CSV → streamed encode → parallel fill.

PRs 1-6 made everything *above* the transaction database fast; this
experiment pins the input side.  A finalTable CSV of ``E21_ROWS`` rows
(default 10M) is generated on disk without ever materialising the table
(:func:`~repro.data.synthetic.write_random_final_table_csv`), streamed
back in fixed-size chunks (:func:`~repro.etl.stream.stream_csv`), folded
append-only into the CSR transaction store with a spill budget
(:class:`~repro.itemsets.transactions.EncodeAccumulator`), and the cube
is filled once with the single-process columnar engine and once with the
``multiprocessing`` parallel engine at ``E21_WORKERS`` processes.

Assertions pin the scale-up contract: the two fills produce *identical*
cubes (atol=0), and the whole pipeline's peak RSS stays under
``E21_RSS_CEILING_MB`` — the out-of-core promise: peak memory is set by
chunk/window/batch sizes, not by the row count.  The >= 2.5x fill
speedup is the dedicated-hardware floor of at least 4 workers on at
least as many CPUs, so (like E17's dedicated-hardware floors) it is
asserted only in that configuration: fewer workers cannot reach it (the
CI configuration, 400k rows at 2 workers on 2 CPUs, records 0.48x in
``BENCH_E21.json``).  The measured numbers are recorded either way.

Environment knobs (CI runs a scaled-down row count):

* ``E21_ROWS`` — input rows (default 10_000_000);
* ``E21_WORKERS`` — parallel fill processes (default 4);
* ``E21_RSS_CEILING_MB`` — peak-RSS ceiling (default 3000);
* ``E21_SPILL_MB`` — encode spill budget (default 256).
"""

from __future__ import annotations

import os
import time

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import CubeMetadata, SegregationCube, check_same_cells
from repro.cube.parallel import fill_parallel
from repro.data.synthetic import write_random_final_table_csv
from repro.etl.stream import stream_csv
from repro.itemsets.transactions import EncodeAccumulator
from repro.report.text import render_table

from benchmarks.conftest import peak_rss_mb, write_bench_json, write_result

ROWS = int(os.environ.get("E21_ROWS", "10000000"))
WORKERS = int(os.environ.get("E21_WORKERS", "4"))
RSS_CEILING_MB = float(os.environ.get("E21_RSS_CEILING_MB", "3000"))
SPILL_MB = int(os.environ.get("E21_SPILL_MB", "256"))
N_UNITS = 1000
#: Fractional thresholds so the mined lattice stays comparable across
#: row counts (absolute counts scale with ROWS).
LIMITS = {"min_population": 0.002, "min_minority": 0.0005,
          "max_sa_items": 2, "max_ca_items": 2}


def test_etl_scale_out_of_core(benchmark, tmp_path):
    """CSV on disk → streamed spill encode → columnar vs parallel fill."""
    csv_path = tmp_path / "final_table.csv"

    def run():
        start = time.perf_counter()
        schema = write_random_final_table_csv(
            csv_path, ROWS, n_units=N_UNITS,
            sa_attributes={"g": 2, "a": 4},
            ca_attributes={"r": 5, "s": 4},
            seed=21, skew=0.5,
        )
        write_seconds = time.perf_counter() - start

        start = time.perf_counter()
        accumulator = EncodeAccumulator(schema, spill_bytes=SPILL_MB << 20)
        for chunk in stream_csv(csv_path, schema=schema):
            accumulator.add_chunk(chunk)
        spilled = accumulator.spilled
        db = accumulator.finalize()
        encode_seconds = time.perf_counter() - start

        builder = SegregationDataCubeBuilder(**LIMITS)
        start = time.perf_counter()
        mined = builder.mine_coordinates(db)
        mine_seconds = time.perf_counter() - start

        start = time.perf_counter()
        columnar_store = builder._fill_columnar(db, mined)
        columnar_seconds = time.perf_counter() - start

        parallel_builder = SegregationDataCubeBuilder(
            engine="parallel", workers=WORKERS, **LIMITS
        )
        start = time.perf_counter()
        parallel_store = fill_parallel(parallel_builder, db, mined)
        parallel_seconds = time.perf_counter() - start
        return (schema, db, mined, columnar_store, parallel_store, spilled,
                write_seconds, encode_seconds, mine_seconds,
                columnar_seconds, parallel_seconds)

    (schema, db, mined, columnar_store, parallel_store, spilled,
     write_seconds, encode_seconds, mine_seconds,
     columnar_seconds, parallel_seconds) = benchmark.pedantic(
         run, rounds=1, iterations=1)

    # Identical cubes, bit for bit.
    metadata_kwargs = dict(
        index_names=[s.name for s in
                     SegregationDataCubeBuilder(**LIMITS).indexes],
        min_population=mined.minsup_pop, min_minority=mined.minsup_min,
        n_rows=len(db), n_units=db.n_units, mode="all", backend="eclat",
    )
    columnar_cube = SegregationCube(
        columnar_store, db.dictionary, CubeMetadata(**metadata_kwargs)
    )
    parallel_cube = SegregationCube(
        parallel_store, db.dictionary, CubeMetadata(**metadata_kwargs)
    )
    assert check_same_cells(columnar_cube, parallel_cube, atol=0.0) == []

    fill_speedup = columnar_seconds / parallel_seconds

    rss_mb = peak_rss_mb()
    workers_rss_mb = peak_rss_mb(children=True)
    csv_mb = csv_path.stat().st_size / (1 << 20)

    rows = [
        ["write CSV (streamed)", f"{write_seconds:.1f}",
         f"{csv_mb:.0f} MB on disk"],
        ["encode (chunked, spill)", f"{encode_seconds:.1f}",
         f"spilled={spilled}, budget {SPILL_MB} MB"],
        ["mine (shared)", f"{mine_seconds:.1f}",
         f"{mined.n_contexts} contexts"],
        ["fill columnar", f"{columnar_seconds:.1f}",
         f"{len(columnar_cube)} cells"],
        [f"fill parallel x{WORKERS}", f"{parallel_seconds:.1f}",
         f"{fill_speedup:.2f}x (cpus={os.cpu_count()})"],
        ["peak RSS", f"{rss_mb:.0f} MB",
         f"ceiling {RSS_CEILING_MB:.0f} MB; workers {workers_rss_mb:.0f} MB"],
    ]
    write_result(
        "E21_etl_scale",
        f"Out-of-core build of {ROWS} rows "
        "(parallel == columnar asserted, atol=0)\n"
        + render_table(["stage", "seconds", "notes"], rows),
    )
    write_bench_json("E21", {
        "rows": ROWS,
        "n_units": N_UNITS,
        "csv_mb": csv_mb,
        "csv_write_s": write_seconds,
        "encode_s": encode_seconds,
        "encode_spilled": bool(spilled),
        "spill_budget_mb": SPILL_MB,
        "mine_s": mine_seconds,
        "n_cells": len(columnar_cube),
        "fill_columnar_s": columnar_seconds,
        "fill_parallel_s": parallel_seconds,
        "workers": WORKERS,
        "fill_speedup": fill_speedup,
        "cpu_count": os.cpu_count(),
        "rss_ceiling_mb": RSS_CEILING_MB,
        "workers_peak_rss_mb": round(workers_rss_mb, 1),
    })
    assert rss_mb < RSS_CEILING_MB, (
        f"peak RSS {rss_mb:.0f} MB exceeds the {RSS_CEILING_MB:.0f} MB "
        "ceiling — the out-of-core path is leaking scale into memory"
    )
    if WORKERS >= 4 and (os.cpu_count() or 1) >= WORKERS:
        assert fill_speedup >= 2.5, (
            f"parallel fill only {fill_speedup:.2f}x faster at "
            f"{WORKERS} workers"
        )
