"""E19 — incremental temporal fills + delta snapshots vs full rebuilds.

The temporal workload (paper §3: validity intervals + snapshot dates)
re-pays encode → mine → fill at every date when each snapshot is built
from scratch (~1.1 s at the E17/E18 scale).  This experiment pins the
payoff of the incremental engine and the delta snapshot store at 120k
rows with realistic (localized, ≤5%) membership churn between dates:

* ``full rebuild``  — filter the temporal table to the date, encode,
  mine, fill, dump a full snapshot (what a per-date pipeline pays);
* ``incremental``   — ``TemporalCubeEngine.update`` (carry unchanged
  contexts, re-mine/re-fill only the affected ones) + a delta dump
  sharing unchanged columns with the parent snapshot.

Assertions pin the contract: churn stays ≤ 5%, incremental fill + delta
dump beats the full rebuild by ≥ 5x, the delta directory shares ≥ 80%
of the full snapshot's column bytes with its parent, and the delta
cube — live *and* reopened through the parent chain — is bit-identical
(``check_same_cells`` at atol=0) to a from-scratch columnar build at
that date.  Numbers land in ``results/E19_incremental_timeline.txt``
and ``results/BENCH_E19.json``.  The date churn is computed from the
two dates' validity masks.

The second experiment stretches the timeline to **50 dates in closed
mode** at ~2% churn per date: every incremental update must stay
bit-identical to a from-scratch closed build (closure memo included),
the worst update must beat a per-date full closed rebuild ≥ 3x (the
median and worst of ``engine.update`` and of ``dump_into_timeline`` are
also reported apart, so a missed floor names its half), every
date the publisher wrote must sit at most ``MAX_CHAIN`` hops from a
full snapshot and reopen bit-identically, and the whole timeline must
stay smaller than 50 full snapshots.  It reports the timeline's bytes,
its full dates and its first/last/worst chain-resolved open, next to an
unbounded delta chain over the same cubes for contrast.  Each of the
two timing tests appends its own record to ``BENCH_E19.json``.

``test_incremental_parity`` runs both timelines through the engine and
the publisher and asserts only the exact equalities, at every date,
live and reopened: it times nothing, writes no result file, and is the
gating CI step (the two timing tests' floors are informational).  The
reopened side is one walk over each published timeline (iterating its
:class:`~repro.store.timeline.CubeTimeline`, each date composed onto
the one before), which must end holding one cube, and a fresh chain
open of every date, which must digest as the walk's cube does.  Each
date's own bytes as ``read_timeline_manifest`` reports them must be
the bytes on disk.  The closed timing test records the walk's
milliseconds over the 50 dates and the cubes it holds afterwards.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import check_same_cells
from repro.cube.incremental import TemporalCubeEngine
from repro.data.synthetic import random_final_table, random_temporal_final_table
from repro.etl.diff import valid_at
from repro.itemsets.transactions import encode_table
from repro.report.text import render_table
from repro.store import (
    CubeTimeline,
    delta_chain_length,
    dump_delta_snapshot,
    dump_into_timeline,
    dump_snapshot,
    open_snapshot,
    read_timeline_manifest,
    snapshot_disk_bytes,
    table_digest,
    timeline_dates,
)
from repro.store.manifest import DATA_NAME
from repro.store.timeline import MAX_CHAIN

from benchmarks.bench_cube_fill import FILL_ROWS, LIMITS
from benchmarks.conftest import write_bench_json, write_result
from tests.oracles import reachable_cubes

DATES = (0, 1, 2)
MAX_CHURN = 0.05
MIN_SPEEDUP = 5.0
MIN_SHARED = 0.80

# --- the 50-date closed-mode timeline ---------------------------------
CLOSED_ROWS = int(os.environ.get("E19_CLOSED_ROWS", 40_000))
N_CLOSED_DATES = 50
CLOSED_CHURN = 0.02
MIN_CLOSED_SPEEDUP = 3.0
CLOSED_LIMITS = {"min_population": 40, "min_minority": 10,
                 "max_sa_items": 2, "max_ca_items": 2}


def measure_open_ms(path: "str | Path", mmap: bool = True) -> float:
    """Wall-clock milliseconds of a fresh, cache-free chain-resolved open."""
    start = time.perf_counter()
    open_snapshot(path, mmap=mmap)
    return (time.perf_counter() - start) * 1e3


def _temporal_table():
    return random_temporal_final_table(
        n_rows=FILL_ROWS,
        n_units=60,
        dates=DATES,
        sa_attributes={"g": 2, "a": 4, "b": 3},
        ca_attributes={"r": 5, "s": 4},
        multi_valued_ca={"mv": 4},
        seed=9,
        skew=0.5,
        max_churn=MAX_CHURN,
    )


def _array_bytes(directory: Path) -> int:
    """Bytes of a snapshot directory's arrays: its data file."""
    return (directory / DATA_NAME).stat().st_size


def _full_rebuild(table, schema, valid):
    """What a non-incremental pipeline pays per date, end to end."""
    snapshot_rows = table.filter(valid)
    db = encode_table(snapshot_rows, schema)
    return SegregationDataCubeBuilder(**LIMITS).build_from_transactions(db)


def _assert_timeline_parity(union_db, limits, dated_masks, root):
    """Publish a timeline through the engine; every date must be exact.

    Each date's live cube, and its published snapshot as one walk over
    the written timeline yields it, equal a from-scratch build of the
    same rows over the union encoding (``check_same_cells`` at atol=0);
    the walk ends holding one cube, a fresh chain open of each date
    digests as the walk's cube, and each date's recorded own bytes are
    its bytes on disk.
    """
    engine = TemporalCubeEngine(
        union_db, SegregationDataCubeBuilder(engine="incremental", **limits)
    )
    scratch = {}
    state = None
    for date, mask in dated_masks:
        if state is None:
            state = engine.build_at(mask, date)
            dump_into_timeline(root, date, state.cube)
        else:
            parent_date, parent = state.date, state.cube
            state = engine.update(state, mask, date)
            dump_into_timeline(root, date, state.cube,
                               parent_date=parent_date, parent=parent)
        scratch[date] = SegregationDataCubeBuilder(
            **limits
        ).build_from_transactions(union_db.restrict(mask))
        problems = check_same_cells(state.cube, scratch[date], atol=0.0)
        assert problems == [], ("live", date, problems[:3])
    published = CubeTimeline(root)
    digests = {}
    for date, cube in published:
        problems = check_same_cells(cube, scratch[date], atol=0.0)
        assert problems == [], ("published", date, problems[:3])
        digests[date] = table_digest(cube.table)
    assert list(digests) == list(scratch)
    assert len(reachable_cubes(published)) == 1
    recorded = read_timeline_manifest(root)["dates"]
    for date, digest in digests.items():
        assert table_digest(open_snapshot(root / str(date)).table) == digest
        assert recorded[str(date)]["own_bytes"] == snapshot_disk_bytes(
            root / str(date)
        ), date


def test_incremental_parity(tmp_path):
    """Both timelines, every date, live and reopened: exact (atol=0).

    The parity half of the two timing tests below, run on its own: it
    times nothing and writes no result file.
    """
    table, schema, starts, ends = _temporal_table()
    _assert_timeline_parity(
        encode_table(table, schema), LIMITS,
        [(date, valid_at(starts, ends, date)) for date in DATES],
        tmp_path / "all_mode",
    )
    table, schema, masks = _closed_masks()
    _assert_timeline_parity(
        encode_table(table, schema), {"mode": "closed", **CLOSED_LIMITS},
        list(enumerate(masks)), tmp_path / "closed_mode",
    )


def test_incremental_fill_and_delta_dump(benchmark, tmp_path):
    """Incremental fill + delta dump must beat the full rebuild >= 5x."""
    table, schema, starts, ends = _temporal_table()
    valids = {d: valid_at(starts, ends, d) for d in DATES}
    for old, new in zip(DATES, DATES[1:]):
        # Rows that flipped, as a share of the larger of the two dates.
        churn = np.count_nonzero(valids[old] ^ valids[new]) / max(
            valids[old].sum(), valids[new].sum()
        )
        assert 0 < churn <= MAX_CHURN, f"churn {churn:.3f} out of budget"

    union_db = encode_table(table, schema)
    engine = TemporalCubeEngine(
        union_db, SegregationDataCubeBuilder(engine="incremental", **LIMITS)
    )
    timeline_root = tmp_path / "timeline"

    def run():
        timings = {}
        start = time.perf_counter()
        state = engine.build_at(valids[DATES[0]], DATES[0])
        dump_into_timeline(timeline_root, DATES[0], state.cube)
        timings["cold_build_dump"] = time.perf_counter() - start
        incremental = []
        for date in DATES[1:]:
            parent_cube = state.cube
            start = time.perf_counter()
            state = engine.update(state, valids[date], date)
            dump_into_timeline(
                timeline_root, date, state.cube,
                parent_date=date - 1, parent=parent_cube,
            )
            incremental.append(time.perf_counter() - start)
        timings["incremental"] = incremental
        return state, timings

    final_state, timings = benchmark.pedantic(run, rounds=1, iterations=1)

    # The baseline: a from-scratch pipeline at the last date, dumped full.
    start = time.perf_counter()
    scratch = _full_rebuild(table, schema, valids[DATES[-1]])
    full_dir = tmp_path / "full_last"
    dump_snapshot(scratch, full_dir)
    rebuild_seconds = time.perf_counter() - start

    incr_seconds = max(timings["incremental"])
    speedup = rebuild_seconds / incr_seconds

    # Byte sharing: the delta directory vs the full snapshot it avoids.
    full_bytes = _array_bytes(full_dir)
    delta_bytes = _array_bytes(timeline_root / str(DATES[-1]))
    shared_fraction = 1.0 - delta_bytes / full_bytes

    # Parity: live incremental cube and chain-reopened delta cube are
    # both bit-identical to the from-scratch build.  The scratch build
    # re-encodes the filtered table, so its item ids differ; compare
    # against a scratch build over the shared union encoding instead.
    scratch_union = SegregationDataCubeBuilder(
        **LIMITS
    ).build_from_transactions(union_db.restrict(valids[DATES[-1]]))
    assert check_same_cells(final_state.cube, scratch_union, atol=0.0) == []
    reopened = CubeTimeline(timeline_root).at(DATES[-1])
    assert check_same_cells(reopened, scratch_union, atol=0.0) == []
    assert len(scratch) == len(scratch_union)

    extra = final_state.cube.metadata.extra
    rows = [
        ["full rebuild + full dump (last date)", rebuild_seconds * 1e3, 1.0],
        ["cold build + full dump (first date)",
         timings["cold_build_dump"] * 1e3, ""],
        ["incremental update + delta dump (worst date)",
         incr_seconds * 1e3, speedup],
    ]
    write_result(
        "E19_incremental_timeline",
        f"Incremental temporal fill at {FILL_ROWS} rows, "
        f"{len(DATES)} dates, {extra['n_changed_rows']} changed rows "
        f"({extra['n_carried_contexts']} contexts carried, "
        f"{extra['n_recomputed_contexts']} recomputed); delta shares "
        f"{shared_fraction:.1%} of {full_bytes} full-snapshot bytes "
        "(bit-exact parity asserted, atol=0)\n"
        + render_table(["stage", "time (ms)", "speedup vs rebuild"], rows),
    )
    write_bench_json("E19", {
        "rows": FILL_ROWS,
        "dates": list(DATES),
        "cells_last_date": len(final_state.cube),
        "changed_rows_last_date": extra["n_changed_rows"],
        "contexts_carried": extra["n_carried_contexts"],
        "contexts_recomputed": extra["n_recomputed_contexts"],
        "rebuild_ms": rebuild_seconds * 1e3,
        "cold_build_dump_ms": timings["cold_build_dump"] * 1e3,
        "incremental_worst_ms": incr_seconds * 1e3,
        "incremental_speedup_vs_rebuild": speedup,
        "full_snapshot_bytes": full_bytes,
        "delta_snapshot_bytes": delta_bytes,
        "delta_shared_fraction": shared_fraction,
        "min_speedup_required": MIN_SPEEDUP,
        "min_shared_required": MIN_SHARED,
    })
    assert speedup >= MIN_SPEEDUP, (
        f"incremental fill + delta dump only {speedup:.1f}x faster than "
        f"the full rebuild (need >= {MIN_SPEEDUP}x)"
    )
    assert shared_fraction >= MIN_SHARED, (
        f"delta snapshot shares only {shared_fraction:.1%} of the full "
        f"snapshot bytes (need >= {MIN_SHARED:.0%})"
    )


def _closed_masks():
    """A 50-date membership series with ~2% localized churn per date.

    Validity intervals can't model re-joining rows, so the long
    timeline synthesizes per-date boolean masks directly: at every date
    a fresh ~1% of rows sits out, so consecutive dates differ by ~2% of
    rows.  Churn is localized the way
    :func:`~repro.data.synthetic.random_temporal_final_table` localizes
    it — only rows in the ``r0 & s0`` context with *empty* multi-valued
    CA sets ever churn — so every other context is provably untouched.
    """
    table, schema = random_final_table(
        CLOSED_ROWS, 60, sa_attributes={"g": 2, "a": 4, "b": 3},
        ca_attributes={"r": 3, "s": 3}, multi_valued_ca={"mv": 4},
        seed=13, skew=0.5,
    )
    pool_mask = (
        table.categorical("r").mask_eq("r0")
        & table.categorical("s").mask_eq("s0")
    )
    pool_mask &= np.fromiter(
        (len(v) == 0 for v in table.multivalued("mv").values()),
        dtype=bool, count=CLOSED_ROWS,
    )
    pool = np.flatnonzero(pool_mask)
    rng = np.random.default_rng(17)
    out_size = CLOSED_ROWS // 100          # ~1% out per date
    assert len(pool) >= 3 * out_size
    masks = []
    for _ in range(N_CLOSED_DATES):
        mask = np.ones(CLOSED_ROWS, dtype=bool)
        mask[rng.choice(pool, size=out_size, replace=False)] = False
        masks.append(mask)
    return table, schema, masks


def test_closed_incremental_50_date_timeline(benchmark, tmp_path):
    """50 closed-mode dates: >= 3x vs rebuild, chains <= MAX_CHAIN."""
    table, schema, masks = _closed_masks()
    churns = [
        float(np.mean(a != b)) for a, b in zip(masks, masks[1:])
    ]
    assert max(churns) <= CLOSED_CHURN + 0.005, max(churns)
    assert min(churns) > 0

    union_db = encode_table(table, schema)
    engine = TemporalCubeEngine(
        union_db,
        SegregationDataCubeBuilder(engine="incremental", mode="closed",
                                   **CLOSED_LIMITS),
    )
    timeline_root = tmp_path / "closed_timeline"

    def run():
        # Incremental timing covers what the publisher pays per date:
        # the update plus the delta dump (mirrors the 3-date test),
        # each also timed on its own.
        state = None
        prev_cube = None
        update_seconds, engine_seconds, publish_seconds = [], [], []
        for date, mask in enumerate(masks):
            start = time.perf_counter()
            if state is None:
                state = engine.build_at(mask, date)
                dump_into_timeline(timeline_root, date, state.cube)
            else:
                state = engine.update(state, mask, date)
                updated = time.perf_counter()
                dump_into_timeline(
                    timeline_root, date, state.cube,
                    parent_date=date - 1, parent=prev_cube,
                )
                published = time.perf_counter()
                update_seconds.append(published - start)
                engine_seconds.append(updated - start)
                publish_seconds.append(published - updated)
            prev_cube = state.cube
        return state, update_seconds, engine_seconds, publish_seconds

    final_state, update_seconds, engine_seconds, publish_seconds = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )

    # Baseline: what a per-date non-incremental pipeline pays at the
    # last date — filter, encode, closed build, full dump.
    start = time.perf_counter()
    snapshot_rows = table.filter(masks[-1])
    scratch_last = SegregationDataCubeBuilder(
        mode="closed", **CLOSED_LIMITS
    ).build_from_transactions(encode_table(snapshot_rows, schema))
    full_dir = tmp_path / "full_last"
    dump_snapshot(scratch_last, full_dir)
    rebuild_seconds = time.perf_counter() - start

    worst = max(update_seconds)
    median = float(np.median(update_seconds))
    # The two halves of a date apart: which one a missed floor sits in.
    halves = {
        name: (float(np.median(seconds)) * 1e3, max(seconds) * 1e3)
        for name, seconds in (("update", engine_seconds),
                              ("publish", publish_seconds))
    }
    speedup_worst = rebuild_seconds / worst
    speedup_median = rebuild_seconds / median

    # One walk over the published timeline, as a service's first /trend
    # walks it.
    walked = CubeTimeline(timeline_root)
    start = time.perf_counter()
    walked_dates = [date for date, _ in walked]
    walk_ms = (time.perf_counter() - start) * 1e3
    held_after_walk = len(reachable_cubes(walked))
    assert walked_dates == list(range(N_CLOSED_DATES))

    # Closed-mode parity, atol=0, at EVERY date: replay the masks
    # through the engine once more, scratch-build each date, and check
    # the live cube and the published date against it.  The replay also
    # writes the same cubes as one unbounded delta chain, for contrast.
    published = CubeTimeline(timeline_root)
    unbounded_root = tmp_path / "unbounded_chain"
    state = None
    for date, mask in enumerate(masks):
        previous = state
        state = (engine.build_at(mask, date) if state is None
                 else engine.update(state, mask, date))
        scratch = SegregationDataCubeBuilder(
            mode="closed", **CLOSED_LIMITS
        ).build_from_transactions(union_db.restrict(mask))
        problems = check_same_cells(state.cube, scratch, atol=0.0)
        assert problems == [], (date, problems[:3])
        problems = check_same_cells(published.at(date), scratch, atol=0.0)
        assert problems == [], ("published", date, problems[:3])
        if previous is None:
            dump_snapshot(state.cube, unbounded_root / str(date))
        else:
            dump_delta_snapshot(
                state.cube, unbounded_root / str(date),
                unbounded_root / str(date - 1), parent=previous.cube,
            )

    # The timeline the publisher wrote: layout, bytes and open latency.
    dates = timeline_dates(timeline_root)
    chains = [delta_chain_length(timeline_root / str(d)) for d in dates]
    opens = [
        min(measure_open_ms(timeline_root / str(d)) for _ in range(3))
        for d in dates
    ]
    timeline_bytes = sum(
        snapshot_disk_bytes(timeline_root / str(d)) for d in dates
    )
    n_full = chains.count(0)
    ms_per_hop = float(np.polyfit(chains, opens, 1)[0])
    unbounded_bytes = sum(
        snapshot_disk_bytes(unbounded_root / str(d)) for d in dates
    )
    unbounded_first_ms, unbounded_last_ms = (
        min(measure_open_ms(unbounded_root / str(d)) for _ in range(3))
        for d in (dates[0], dates[-1])
    )

    # What 50 independent full snapshots would cost on disk.
    full_estimate = snapshot_disk_bytes(full_dir) * len(dates)

    extra = final_state.cube.metadata.extra
    rows = [
        ["full closed rebuild (last date)", rebuild_seconds * 1e3, 1.0],
        ["incremental closed update (median)", median * 1e3,
         speedup_median],
        ["incremental closed update (worst)", worst * 1e3, speedup_worst],
        ["  engine.update alone (median)", halves["update"][0], ""],
        ["  engine.update alone (worst)", halves["update"][1], ""],
        ["  dump_into_timeline alone (median)", halves["publish"][0], ""],
        ["  dump_into_timeline alone (worst)", halves["publish"][1], ""],
    ]
    open_rows = [
        ["published", max(chains), n_full, timeline_bytes, opens[0],
         opens[-1], max(opens)],
        ["unbounded delta chain", len(dates) - 1, 1, unbounded_bytes,
         unbounded_first_ms, unbounded_last_ms, ""],
    ]
    write_result(
        "E19_closed_50_dates",
        f"Closed-mode incremental timeline: {CLOSED_ROWS} rows x "
        f"{N_CLOSED_DATES} dates at ~{CLOSED_CHURN:.0%} churn "
        f"(last date: {extra['n_carried_contexts']} contexts carried, "
        f"{extra['n_recomputed_contexts']} recomputed, "
        f"{extra['n_carried_cells']}+"
        f"{extra['n_carried_cells_within_affected']} cells carried; "
        "bit-exact parity vs scratch closed builds asserted at every "
        "date, live and published, atol=0)\n"
        + render_table(["stage", "time (ms)", "speedup vs rebuild"], rows)
        + "\n" + render_table(
            ["timeline", "max chain", "full dates", "bytes",
             "first open (ms)", "last open (ms)", "worst open (ms)"],
            open_rows,
        )
        + f"\npublished timeline: {timeline_bytes / full_estimate:.2f}x "
        f"of {len(dates)} full snapshots; chain-resolved open grows "
        f"{ms_per_hop:.1f} ms per hop (least-squares slope over the "
        f"{len(dates)} dates); one walk over the {len(dates)} dates "
        f"takes {walk_ms:.1f} ms and holds {held_after_walk} cube "
        "afterwards",
    )
    write_bench_json("E19", {
        "closed_rows": CLOSED_ROWS,
        "closed_dates": N_CLOSED_DATES,
        "closed_churn_max": max(churns),
        "closed_cells_last_date": len(final_state.cube),
        "closed_rebuild_ms": rebuild_seconds * 1e3,
        "closed_incremental_median_ms": median * 1e3,
        "closed_incremental_worst_ms": worst * 1e3,
        "closed_speedup_median": speedup_median,
        "closed_speedup_worst": speedup_worst,
        "closed_update_median_ms": halves["update"][0],
        "closed_update_worst_ms": halves["update"][1],
        "closed_publish_median_ms": halves["publish"][0],
        "closed_publish_worst_ms": halves["publish"][1],
        "min_closed_speedup_required": MIN_CLOSED_SPEEDUP,
        "max_chain": MAX_CHAIN,
        "chain_length_max": max(chains),
        "n_full_dates": n_full,
        "timeline_bytes": timeline_bytes,
        "bytes_vs_full_snapshots": timeline_bytes / full_estimate,
        "open_ms_first": opens[0],
        "open_ms_last": opens[-1],
        "open_ms_worst": max(opens),
        "open_ms_per_hop": ms_per_hop,
        "walk_ms": walk_ms,
        "cubes_held_after_walk": held_after_walk,
        "unbounded_chain_bytes": unbounded_bytes,
        "unbounded_chain_open_ms_first": unbounded_first_ms,
        "unbounded_chain_open_ms_last": unbounded_last_ms,
    })
    assert speedup_worst >= MIN_CLOSED_SPEEDUP, (
        f"worst closed-mode incremental update only {speedup_worst:.1f}x "
        f"faster than a full closed rebuild (need >= "
        f"{MIN_CLOSED_SPEEDUP}x)"
    )
    assert max(chains) <= MAX_CHAIN, (
        f"a published date sits {max(chains)} hops from a full snapshot "
        f"(the publish rule allows {MAX_CHAIN})"
    )
    assert timeline_bytes < full_estimate, (
        "delta timeline should undercut independent full snapshots"
    )
