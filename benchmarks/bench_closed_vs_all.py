"""E11 — Mining ablation: closed vs all frequent itemsets.

The original SCube delegates to Borgelt's FPGrowth mining *closed*
itemsets; this bench measures why on our substrate: the count of closed
itemsets vs all frequent itemsets as minsup drops, and the time eclat
takes to mine each.

Expected shape: closed counts grow much more slowly than frequent counts
as minsup decreases.
"""

from __future__ import annotations

import time

from repro.data.italy import italy_tabular_individuals
from repro.etl.builder import tabular_final_table
from repro.itemsets.miner import mine
from repro.itemsets.transactions import encode_table
from repro.report.text import render_table

from benchmarks.conftest import write_result


def _database(italy):
    seats, schema = italy_tabular_individuals(italy)
    final, final_schema = tabular_final_table(seats, schema, "sector")
    return encode_table(final, final_schema)


def test_closed_vs_all_itemsets(benchmark, italy):
    db = _database(italy)

    def sweep():
        rows = []
        for minsup in (0.05, 0.02, 0.01, 0.005):
            start = time.perf_counter()
            all_sets = mine(db, minsup)
            all_seconds = time.perf_counter() - start
            start = time.perf_counter()
            closed = mine(db, minsup, closed=True)
            closed_seconds = time.perf_counter() - start
            rows.append(
                [
                    minsup,
                    len(all_sets),
                    len(closed),
                    len(closed) / max(1, len(all_sets)),
                    all_seconds,
                    closed_seconds,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rendered = render_table(
        ["minsup", "frequent", "closed", "closed/frequent",
         "mine-all (s)", "mine-closed (s)"],
        rows,
    )
    write_result(
        "E11_closed_vs_all",
        "Closed vs all frequent itemsets (Italy seats table)\n" + rendered,
    )

    counts = {r[0]: (r[1], r[2]) for r in rows}
    lowest = counts[0.005]
    assert lowest[1] <= lowest[0], "closed sets are a subset"
