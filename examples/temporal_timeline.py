"""A versioned cube timeline over the Estonian temporal case study.

The paper's membership input carries validity intervals plus a list of
snapshot dates (§3).  Instead of rebuilding a cube per date, this
walkthrough:

1. builds the *union* seat table (one row per membership edge) and
   encodes it once;
2. drives the incremental fill engine across the snapshot years —
   contexts untouched by the year's membership churn are carried over
   verbatim, only the affected ones are re-mined and re-filled;
3. persists the years as a timeline: a full snapshot for the first
   year, then a *delta* per year (sharing unchanged columns with its
   parent) — or a full snapshot when the year's churn leaves a delta
   too little to share;
4. reopens the timeline and reads analyses straight out of the cubes —
   the gender-segregation trend and the cells that moved the most;
5. repeats the walk in **closed mode** (the closure memo re-derives
   closedness only where a cover may have changed) into a second
   timeline — each publish writes its year as a delta or, once the
   chain is long or the delta barely saves bytes, as a full snapshot —
   and reads the per-year chain lengths and the serving tier's
   staleness report off the result.

Run with:  python examples/temporal_timeline.py
"""

from __future__ import annotations

from repro import EstoniaConfig, generate_estonia, segregation_trend
from repro.core.trend import temporal_seats_table, trend_rows
from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.compare import timeline_series
from repro.cube.incremental import TemporalCubeEngine
from repro.etl.builder import tabular_final_table
from repro.etl.diff import valid_at
from repro.itemsets.transactions import encode_table
from repro.report.text import render_table
from repro.serve.service import CubeService
from repro.store import (
    CubeTimeline,
    dump_into_timeline,
    read_timeline_manifest,
)


def main() -> None:
    dataset = generate_estonia(EstoniaConfig(n_companies=800, seed=11))
    years = list(range(1999, 2014, 2))

    # One union table, one encoding; a year is just a row mask.
    seats, schema, starts, ends = temporal_seats_table(dataset)
    final, final_schema = tabular_final_table(seats, schema, "sector")
    db = encode_table(final, final_schema)
    print(
        f"union seat table: {len(final)} membership rows, "
        f"{db.n_items} items, {db.n_units} sector units"
    )

    engine = TemporalCubeEngine(
        db,
        SegregationDataCubeBuilder(
            engine="incremental", min_population=15, min_minority=5,
            max_sa_items=2, max_ca_items=1,
        ),
    )
    root = "estonia_timeline"
    previous = None
    for year in years:
        valid = valid_at(starts, ends, year)
        if previous is None:
            state = engine.build_at(valid, year)
            dump_into_timeline(root, year, state.cube)
            print(f"{year}: full build, {len(state.cube)} cells "
                  f"({int(valid.sum())} seats) -> full snapshot")
        else:
            state = engine.update(previous, valid, year)
            dump_into_timeline(root, year, state.cube,
                               parent_date=previous.date,
                               parent=previous.cube)
            extra = state.cube.metadata.extra
            chain = read_timeline_manifest(root)["dates"][str(year)][
                "chain_length"]
            print(
                f"{year}: incremental, {extra['n_changed_rows']} rows "
                f"churned, {extra['n_carried_contexts']} contexts carried "
                f"/ {extra['n_recomputed_contexts']} recomputed -> "
                + (f"delta snapshot (chain {chain})" if chain
                   else "full snapshot")
            )
        previous = state

    # Everything below reads from the reopened timeline only.
    timeline = CubeTimeline(root)
    print(f"\nreopened {timeline}")

    points = segregation_trend(
        timeline, years, "sector", {"gender": "F"}, indexes=["D", "Iso"]
    )
    print("\nGender segregation across sectors, read from the cubes:")
    print(render_table(
        ["year", "T", "M", "P", "D", "Iso"], trend_rows(points)
    ))

    movers = timeline_series(timeline, min_minority=10)
    print("Cells whose dissimilarity moved the most across the years:")
    rows = [
        [s.description, f"{s.values[0]:.3f}", f"{s.values[-1]:.3f}",
         f"{s.spread:.3f}"]
        for s in movers[:5]
    ]
    print(render_table(["cell", years[0], years[-1], "spread"], rows))

    # Closed mode rides the same incremental machinery — the closure
    # memo re-derives closedness only for itemsets whose items all meet
    # a changed row — and every publish bounds its own delta chain, so
    # no separate maintenance job is needed.
    closed_engine = TemporalCubeEngine(
        db,
        SegregationDataCubeBuilder(
            engine="incremental", mode="closed", min_population=15,
            min_minority=5, max_sa_items=2, max_ca_items=1,
        ),
    )
    closed_root = "estonia_timeline_closed"
    previous = None
    for year in years:
        valid = valid_at(starts, ends, year)
        if previous is None:
            state = closed_engine.build_at(valid, year)
            dump_into_timeline(closed_root, year, state.cube)
        else:
            state = closed_engine.update(previous, valid, year)
            dump_into_timeline(closed_root, year, state.cube,
                               parent_date=previous.date,
                               parent=previous.cube)
        previous = state
    extra = previous.cube.metadata.extra
    print(
        f"\nclosed mode at {years[-1]}: {len(previous.cube)} closed "
        f"cells, {extra['n_carried_contexts']} contexts carried / "
        f"{extra['n_recomputed_contexts']} recomputed, "
        f"{extra['n_carried_cells']} cells carried verbatim"
    )
    manifest = read_timeline_manifest(closed_root)
    chains = {
        year: manifest["dates"][str(year)]["chain_length"]
        for year in years
    }
    print(f"closed timeline: per-year chain lengths {chains}")

    staleness = CubeService(closed_root).info()["staleness"]
    print(
        f"serving staleness: latest year {staleness['latest_date']}, "
        f"{staleness['dates_behind']} behind, published "
        f"{staleness['seconds_since_publish']:.1f}s ago"
    )


if __name__ == "__main__":
    main()
