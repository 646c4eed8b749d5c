"""Cube engine self-check: parallel fill parity.

One smoke for the multiprocess fill, runnable anywhere::

    python -m repro.cube.selfcheck --workers 2

Builds cubes over two datasets — the bundled schools dataset and a
skewed synthetic table with a multi-valued context attribute — in both
``all`` and ``closed`` modes, and fails loudly (exit 1) unless every
cell is **bit-identical** (``check_same_cells`` at atol=0) between the
single-process columnar engine (the reference) and
``engine="parallel"`` at the requested ``--workers``.

The worker edge cases the test suite covers (1 worker, more workers
than contexts) ride on whatever count the caller picks; CI runs 2.
"""

from __future__ import annotations

import argparse
import sys

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import check_same_cells
from repro.data.schools import generate_schools
from repro.data.synthetic import random_final_table


def run(workers: int) -> int:
    """Columnar vs parallel-fill parity, both modes."""
    synthetic = random_final_table(
        3000, 12,
        sa_attributes={"g": 2, "eth": 4},
        ca_attributes={"r": 3, "s": 4},
        multi_valued_ca={"tag": 3},
        seed=3, skew=0.4,
    )
    datasets = [
        ("schools", generate_schools(),
         {"min_population": 10, "min_minority": 3}),
        ("synthetic", synthetic,
         {"min_population": 30, "min_minority": 8}),
    ]
    failures = 0
    checked = []
    for name, (table, schema), limits in datasets:
        for mode in ("all", "closed"):
            columnar = SegregationDataCubeBuilder(
                mode=mode, **limits
            ).build(table, schema)
            parallel = SegregationDataCubeBuilder(
                mode=mode, engine="parallel", workers=workers, **limits
            ).build(table, schema)
            problems = check_same_cells(columnar, parallel, atol=0.0)
            for problem in problems[:10]:
                print(
                    f"PARALLEL PARITY FAILURE ({name}, mode={mode}): "
                    f"{problem}",
                    file=sys.stderr,
                )
            failures += len(problems)
            checked.append(f"{name}/{mode}: {len(columnar)} cells")
    if failures:
        return 1
    print(
        f"cube selfcheck OK: parallel({workers} workers) == "
        f"columnar at atol=0 [{'; '.join(checked)}]"
    )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cube.selfcheck",
        description=(
            "assert engine='parallel' fills are bit-exact vs the "
            "columnar single-process build"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="process count for the parallel fill engine (default 2)",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    return run(args.workers)


if __name__ == "__main__":
    sys.exit(main())
