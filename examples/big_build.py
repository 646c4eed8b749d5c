"""Out-of-core build: stream a big CSV → build → snapshot → serve.

The other examples materialise their finalTable in memory before
building.  This walkthrough is the 10M-row recipe (benchmark E21) at
demo scale: the input exists only as a CSV on disk, is streamed back in
fixed-size chunks, folded append-only into the transaction store under a
spill budget, built into a cube, and the result is dumped to a snapshot
that serves queries with zero rebuild; the reopened snapshot is checked
cell-identical to the live cube.  Peak memory is set by the chunk /
window / batch knobs, not by the row count: the same script handles 10M
rows by changing ``N_ROWS`` alone.

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

    # -- 3. mine and fill the cube ------------------------------------
    cube = SegregationDataCubeBuilder(
        min_population=0.002, min_minority=0.0005
    ).build_from_transactions(db)
    print(f"built {len(cube)} cells in "
          f"{cube.metadata.build_seconds:.2f}s")

    # -- 4. snapshot + serve: later sessions skip all of the above ---
    snapshot = Path("big_snapshot")
    dump_snapshot(cube, snapshot)
    reopened = open_snapshot(snapshot, mmap=True)
    problems = check_same_cells(cube, reopened, atol=0.0)
    print(f"reopened mmapped; parity with live cube: "
          f"{'identical' if not problems else problems[:3]}")
    service = CubeService(reopened)
    print("\nTop segregated contexts, served from the snapshot:")
    for found in service.top("D", k=3):
        print(f"  {found.rank}. {found.description:<45} "
              f"D={found.value:.3f}  M={found.minority}")
    print(f"\nsame snapshot from a shell:\n"
          f"  python -m repro.serve {snapshot} top --index D -k 5")


if __name__ == "__main__":
    main()
