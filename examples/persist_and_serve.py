"""Persist and serve a cube: build once, explore forever.

Every earlier example pays the full ETL → mining → fill cost each run.
This one runs the expensive build exactly once, dumps the cube to a
versioned on-disk snapshot (one data file + a JSON manifest), then
reopens it **memory-mapped** and serves the same discovery
queries — top-k, point lookups, slicing, pivots — with zero rebuild.
The reopened cube is verified cell-identical to the live one.

The same snapshot also serves from the command line::

    python -m repro.serve schools_snapshot top --index D -k 5
    python -m repro.serve schools_snapshot pivot --index D \
        --rows ethnicity --cols city

Run with:  python examples/persist_and_serve.py
"""

from __future__ import annotations

from pathlib import Path

from repro import (
    CubeService,
    SegregationDataCubeBuilder,
    dump_snapshot,
    generate_schools,
    open_snapshot,
)
from repro.cube.cube import check_same_cells


def main() -> None:
    table, schema = generate_schools()

    # -- the expensive part: runs once -------------------------------
    cube = SegregationDataCubeBuilder(
        min_population=10, min_minority=3).build(table, schema)
    snapshot = Path("schools_snapshot")
    dump_snapshot(cube, snapshot)
    files = sorted(p.name for p in snapshot.iterdir())
    print(f"built {len(cube)} cells, dumped snapshot: {', '.join(files)}")

    # -- every later session: reopen, no rebuild ---------------------
    reopened = open_snapshot(snapshot, mmap=True)
    problems = check_same_cells(cube, reopened, atol=0.0)
    print(f"reopened mmapped; parity with live cube: "
          f"{'identical' if not problems else problems[:3]}")

    service = CubeService(reopened)
    print("\nTop segregated contexts served from the snapshot:")
    for found in service.top("D", k=3, min_minority=30):
        print(f"  {found.rank}. {found.description:<45} "
              f"D={found.value:.3f}  M={found.minority}")

    rivertown = service.value(
        "D", sa={"ethnicity": "minority"}, ca={"city": "Rivertown"}
    )
    print(f"\npoint lookup, zero rebuild: D(minority | Rivertown) "
          f"= {rivertown:.3f}")

    print("\nPivot straight off the memory-mapped columns:")
    print(service.pivot("D", "ethnicity", "city"))

    print(f"\nserve the same snapshot from a shell:\n"
          f"  python -m repro.serve {snapshot} top --index D -k 5")


if __name__ == "__main__":
    main()
