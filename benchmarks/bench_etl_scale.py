"""E21 — out-of-core scale-up: 10M-row CSV → streamed encode → build.

PRs 1-6 made everything *above* the transaction database fast; this
experiment pins the input side.  A finalTable CSV of ``E21_ROWS`` rows
(default 10M) is generated on disk without ever materialising the table
(:func:`~repro.data.synthetic.write_random_final_table_csv`), streamed
back in fixed-size chunks (:func:`~repro.etl.stream.stream_csv`), folded
append-only into the CSR transaction store with a spill budget
(:class:`~repro.itemsets.transactions.EncodeAccumulator`), and the cube
is built from it in-process.

The assertion pins the out-of-core promise: the whole pipeline's peak
RSS stays under ``E21_RSS_CEILING_MB``, since peak memory is set by
chunk/window/batch sizes, not by the row count.  The stage times are
recorded in ``BENCH_E21.json``.

Environment knobs (CI runs a scaled-down row count):

* ``E21_ROWS`` — input rows (default 10_000_000);
* ``E21_RSS_CEILING_MB`` — peak-RSS ceiling (default 3000);
* ``E21_SPILL_MB`` — encode spill budget (default 256).
"""

from __future__ import annotations

import os
import time

from repro.cube.builder import SegregationDataCubeBuilder
from repro.data.synthetic import write_random_final_table_csv
from repro.etl.stream import stream_csv
from repro.itemsets.transactions import EncodeAccumulator
from repro.report.text import render_table

from benchmarks.conftest import peak_rss_mb, write_bench_json, write_result

ROWS = int(os.environ.get("E21_ROWS", "10000000"))
RSS_CEILING_MB = float(os.environ.get("E21_RSS_CEILING_MB", "3000"))
SPILL_MB = int(os.environ.get("E21_SPILL_MB", "256"))
N_UNITS = 1000
#: Fractional thresholds so the mined lattice stays comparable across
#: row counts (absolute counts scale with ROWS).
LIMITS = {"min_population": 0.002, "min_minority": 0.0005,
          "max_sa_items": 2, "max_ca_items": 2}


def test_etl_scale_out_of_core(benchmark, tmp_path):
    """CSV on disk → streamed spill encode → in-process build."""
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

        cube = SegregationDataCubeBuilder(**LIMITS).build_from_transactions(db)
        return cube, spilled, write_seconds, encode_seconds

    cube, spilled, write_seconds, encode_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1)
    build_seconds = cube.metadata.build_seconds
    n_contexts = cube.metadata.extra["n_contexts"]

    rss_mb = peak_rss_mb()
    csv_mb = csv_path.stat().st_size / (1 << 20)

    rows = [
        ["write CSV (streamed)", f"{write_seconds:.1f}",
         f"{csv_mb:.0f} MB on disk"],
        ["encode (chunked, spill)", f"{encode_seconds:.1f}",
         f"spilled={spilled}, budget {SPILL_MB} MB"],
        ["build (mine + fill)", f"{build_seconds:.1f}",
         f"{n_contexts} contexts, {len(cube)} cells"],
        ["peak RSS", f"{rss_mb:.0f} MB", f"ceiling {RSS_CEILING_MB:.0f} MB"],
    ]
    write_result(
        "E21_etl_scale",
        f"Out-of-core build of {ROWS} rows\n"
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
        "build_s": build_seconds,
        "n_contexts": n_contexts,
        "n_cells": len(cube),
        "cpu_count": os.cpu_count(),
        "rss_ceiling_mb": RSS_CEILING_MB,
    })
    assert rss_mb < RSS_CEILING_MB, (
        f"peak RSS {rss_mb:.0f} MB exceeds the {RSS_CEILING_MB:.0f} MB "
        "ceiling — the out-of-core path is leaking scale into memory"
    )
