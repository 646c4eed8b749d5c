"""Snapshot self-checks: round-trip and timeline parity, CI-runnable.

Two smokes for the store/serve stack, runnable anywhere::

    python -m repro.store.selfcheck artifacts/cube_snapshot
    python -m repro.store.selfcheck artifacts/cube_snapshot \
        artifacts/cube_timeline --closed

The snapshot directory drives the single-snapshot check: build a small
cube from the bundled schools dataset, dump it, reopen it
memory-mapped, and fail loudly (exit 1) unless the reopened cube is
cell-identical (``check_same_cells`` at atol=0) with identical top-k
output.

The optional timeline directory drives the timeline check: build three
synthetic snapshot dates through the incremental engine
(:mod:`repro.cube.incremental`), dump date 0 full and the rest as
*delta* snapshots, reopen every date through the parent chain, and fail
unless each reopened cube is bit-identical both to the live incremental
cube and to a from-scratch columnar build at that date.

``--closed`` runs the timeline check in closed mode (the incremental
closure diff and the from-scratch closed build must agree bit-exactly).

Both directories are left in place so the CI job can upload them as
artifacts.
"""

from __future__ import annotations

import argparse
import sys

from repro.cube.builder import SegregationDataCubeBuilder, build_cube
from repro.cube.cube import check_same_cells
from repro.cube.incremental import TemporalCubeEngine
from repro.data.schools import generate_schools
from repro.data.synthetic import random_temporal_final_table
from repro.etl.diff import valid_at
from repro.itemsets.transactions import encode_table
from repro.store.snapshot import (
    delta_chain_length,
    dump_snapshot,
    open_snapshot,
    validate_snapshot,
)
from repro.store.timeline import CubeTimeline, dump_into_timeline


def run(path: str) -> int:
    """Single-snapshot check: build → dump → mmap reopen → parity."""
    table, schema = generate_schools()
    live = build_cube(table, schema, min_population=10, min_minority=3)
    dump_snapshot(live, path)
    manifest = validate_snapshot(path)
    reopened = open_snapshot(path, mmap=True)

    problems = check_same_cells(live, reopened, atol=0.0)
    live_top = [s.key for s in live.top("D", k=10, min_minority=5)]
    snap_top = [s.key for s in reopened.top("D", k=10, min_minority=5)]
    if problems or live_top != snap_top:
        for problem in problems[:10]:
            print(f"PARITY FAILURE: {problem}", file=sys.stderr)
        if live_top != snap_top:
            print("PARITY FAILURE: top-10 rankings differ", file=sys.stderr)
        return 1
    print(
        f"snapshot selfcheck OK: {manifest.n_cells} cells, "
        f"{len(manifest.arrays)} arrays, format v{manifest.format_version}, "
        f"live == mmapped at atol=0 (top-10 identical)"
    )
    return 0


def _parity_sweep(timeline, states, scratches) -> int:
    failures = 0
    for state in states:
        reopened = timeline.at(state.date)
        pairs = (("live", state.cube), ("scratch", scratches[state.date]))
        for label, against in pairs:
            problems = check_same_cells(reopened, against, atol=0.0)
            for problem in problems[:10]:
                print(
                    f"TIMELINE PARITY FAILURE (date {state.date}, "
                    f"vs {label}): {problem}",
                    file=sys.stderr,
                )
            failures += len(problems)
    return failures


def run_timeline(path: str, mode: str = "all") -> int:
    """Timeline check: build → delta-dump → chain reopen → parity x3."""
    dates = (0, 1, 2)
    limits = {"min_population": 10, "min_minority": 3,
              "max_sa_items": 2, "max_ca_items": 2}
    table, schema, starts, ends = random_temporal_final_table(
        n_rows=4000, n_units=12, dates=dates,
        sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 4, "s": 3},
        multi_valued_ca={"mv": 3},
        seed=5, skew=0.5,
    )
    db = encode_table(table, schema)
    engine = TemporalCubeEngine(
        db, SegregationDataCubeBuilder(engine="incremental", mode=mode,
                                       **limits)
    )
    states = engine.run(
        [(d, valid_at(starts, ends, d)) for d in dates]
    )
    previous = None
    for state in states:
        dump_into_timeline(
            path, state.date, state.cube,
            parent_date=None if previous is None else previous.date,
            parent=None if previous is None else previous.cube,
        )
        previous = state
    # The parity below is only a delta check while the publish rule
    # keeps dates 1 and 2 as deltas.
    chains = [delta_chain_length(f"{path}/{s.date}") for s in states]
    if chains != list(range(len(states))):
        print(
            f"TIMELINE FAILURE: chain lengths {chains}, expected deltas "
            f"{list(range(len(states)))}",
            file=sys.stderr,
        )
        return 1

    scratches = {
        state.date: SegregationDataCubeBuilder(
            mode=mode, **limits
        ).build_from_transactions(
            db.restrict(valid_at(starts, ends, state.date))
        )
        for state in states
    }
    failures = _parity_sweep(CubeTimeline(path), states, scratches)
    if failures:
        return 1

    last = states[-1].cube.metadata.extra
    print(
        f"timeline selfcheck OK (mode={mode}): {len(states)} dates, "
        f"{len(states[-1].cube)} cells at date {states[-1].date} "
        f"({last['n_carried_contexts']} contexts carried, "
        f"{last['n_recomputed_contexts']} recomputed, "
        f"{last['n_carried_cells']} cells carried), chain-reopened "
        "deltas == live == scratch at atol=0"
    )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.selfcheck",
        description="Snapshot round-trip and timeline parity self-checks.",
    )
    parser.add_argument("snapshot_dir", help="single-snapshot check output")
    parser.add_argument(
        "timeline_dir", nargs="?", default=None,
        help="also run the timeline check into this directory",
    )
    parser.add_argument(
        "--closed", action="store_true",
        help="run the timeline check in closed mode",
    )
    args = parser.parse_args(argv)
    status = run(args.snapshot_dir)
    if status == 0 and args.timeline_dir is not None:
        status = run_timeline(
            args.timeline_dir,
            mode="closed" if args.closed else "all",
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
