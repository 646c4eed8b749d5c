"""E16 — Ablation: the minimum-support threshold as a statistical guard.

The paper prunes cells below frequency thresholds; this bench shows why
that is a *statistical* safeguard and not just an efficiency knob.
Dissimilarity has a well-known small-sample bias: under *random*
allocation of a minority of size M over the units, the expected D is
far above zero when M is small.  As ``min_minority`` drops, the
discovery ranking fills with small contexts whose index values are
inflated by exactly that bias.

Expected shape: the mean random-allocation baseline (and hence the share
of the discovered index value that is bias, not signal) grows as the
support threshold falls.
"""

from __future__ import annotations

from repro.core.config import CubeConfig
from repro.core.scenarios import run_tabular
from repro.cube.explorer import top_contexts
from repro.data.italy import italy_tabular_individuals
from repro.etl.builder import tabular_final_table
from repro.indexes.base import get_index
from repro.indexes.counts import UnitCounts
from repro.indexes.inference import randomization_test
from repro.report.text import render_table

from benchmarks.conftest import write_result


def test_minsup_statistical_guard(benchmark, italy):
    seats, schema = italy_tabular_individuals(italy)
    final, final_schema = tabular_final_table(seats, schema, "sector")

    from repro.itemsets.transactions import encode_table

    db = encode_table(final, final_schema)
    d_index = get_index("D")

    def sweep():
        rows = []
        for min_minority in (40, 20, 10, 5):
            result = run_tabular(
                seats,
                schema,
                "sector",
                CubeConfig(indexes=["D"], min_population=10,
                           min_minority=min_minority,
                           max_sa_items=2, max_ca_items=1),
            )
            found = top_contexts(result.cube, "D", k=15,
                                 min_minority=min_minority)
            observed_sum = 0.0
            baseline_sum = 0.0
            significant = 0
            for discovery in found:
                # Rebuild the cell's per-unit counts from covers.
                cell = next(
                    c for c in result.cube
                    if result.cube.describe(c.key) == discovery.description
                )
                counts = UnitCounts(*db.unit_counts_of(
                    [cell.ca_items, cell.sa_items | cell.ca_items]
                ))
                test = randomization_test(
                    d_index, counts, n_permutations=200, seed=0
                )
                observed_sum += test.observed
                baseline_sum += test.expected_under_null
                if test.p_value < 0.05:
                    significant += 1
            k = len(found)
            rows.append(
                [
                    min_minority,
                    len(result.cube),
                    observed_sum / k,
                    baseline_sum / k,
                    baseline_sum / observed_sum,
                    significant,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rendered = render_table(
        ["min_minority", "cells", "mean top-15 D", "random baseline",
         "bias share", "significant"],
        rows,
    )
    write_result(
        "E16_minsup_guard",
        "The support threshold as statistical guard: random-allocation\n"
        "baseline of D among the top-15 discoveries (200 permutations)\n"
        + rendered,
    )
    assert rows[0][1] <= rows[-1][1], "lower threshold -> more cells"
    # The guard-rail shape: the small-sample bias grows as the support
    # threshold drops, so low-threshold discoveries overstate segregation.
    assert rows[-1][3] > rows[0][3], "bias must grow as threshold falls"
