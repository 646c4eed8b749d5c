"""Out-of-core build: stream a big CSV → parallel fill → snapshot → serve.

The other examples materialise their finalTable in memory before
building.  This walkthrough is the 10M-row recipe (benchmark E21) at
demo scale: the input exists only as a CSV on disk, is streamed back in
fixed-size chunks, folded append-only into the transaction store under a
spill budget, filled with the multiprocess ``engine="parallel"`` —
bit-identical to the single-process engine — and the result is dumped to
a snapshot that serves queries with zero rebuild.  Peak memory is set by
the chunk / window / batch knobs, not by the row count: the same script
handles 10M rows by changing ``N_ROWS`` alone.

The process pool pays off only when the fill does a lot of work.  On 2
CPUs, two workers make a whole build of a 200-unit lattice 1.29x faster
at 2M rows, but slower at 30k and 120k rows; at this demo's 40k rows the
single-process default is the faster choice.  The demo keeps the pool
so that it runs end to end.

Run with:  python examples/big_build.py
"""

from __future__ import annotations

from pathlib import Path

from repro import CubeService, dump_snapshot, open_snapshot
from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import check_same_cells
from repro.data.synthetic import write_random_final_table_csv
from repro.etl.stream import stream_csv
from repro.itemsets.transactions import EncodeAccumulator

N_ROWS = 40_000          # turn this up to 10_000_000 — nothing else changes
CHUNK_ROWS = 8_192
SPILL_BUDGET = 1 << 20   # spill encode buffers past 1 MB of RAM


def main() -> None:
    # -- 1. the input lives on disk, never fully in memory -----------
    csv_path = Path("big_final_table.csv")
    schema = write_random_final_table_csv(
        csv_path, N_ROWS, n_units=150,
        sa_attributes={"gender": 2, "age": 3},
        ca_attributes={"region": 4, "sector": 3},
        seed=21, skew=0.5, chunk_rows=CHUNK_ROWS,
    )
    size_mb = csv_path.stat().st_size / (1 << 20)
    print(f"wrote {N_ROWS} rows ({size_mb:.1f} MB) without building a table")

    # -- 2. stream + fold into the CSR transaction store -------------
    accumulator = EncodeAccumulator(schema, spill_bytes=SPILL_BUDGET)
    for chunk in stream_csv(csv_path, schema=schema, chunk_rows=CHUNK_ROWS):
        accumulator.add_chunk(chunk)
    spilled = accumulator.spilled
    db = accumulator.finalize()
    print(f"encoded {len(db)} rows, {db.n_items} items, "
          f"{db.n_units} units (spilled to scratch: {spilled})")

    # -- 3. multiprocess fill, bit-identical to single-process --------
    limits = {"min_population": 0.002, "min_minority": 0.0005}
    parallel = SegregationDataCubeBuilder(
        engine="parallel", workers=2, **limits
    ).build_from_transactions(db)
    columnar = SegregationDataCubeBuilder(
        **limits
    ).build_from_transactions(db)
    problems = check_same_cells(columnar, parallel, atol=0.0)
    print(f"parallel fill: {len(parallel)} cells in "
          f"{parallel.metadata.build_seconds:.2f}s with "
          f"{parallel.metadata.extra['workers']} fill workers; "
          f"parity vs columnar: "
          f"{'identical' if not problems else problems[:3]}")

    # -- 4. snapshot + serve: later sessions skip all of the above ---
    snapshot = Path("big_snapshot")
    dump_snapshot(parallel, snapshot)
    service = CubeService(open_snapshot(snapshot, mmap=True))
    print("\nTop segregated contexts, served from the snapshot:")
    for found in service.top("D", k=3):
        print(f"  {found.rank}. {found.description:<45} "
              f"D={found.value:.3f}  M={found.minority}")
    print(f"\nsame snapshot from a shell:\n"
          f"  python -m repro.serve {snapshot} top --index D -k 5")


if __name__ == "__main__":
    main()
