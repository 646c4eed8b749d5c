"""E9 — Temporal analysis of the Estonian dataset (paper §3 inputs).

The paper's membership pairs can be "labeled with a time interval of
validity, thus allowing for temporal analysis of segregation", with a
list of snapshot dates; the Estonian case study spans 20 years.  This
bench regenerates the yearly trend of gender segregation across sectors.

Expected shape: the generator plants a softening sector bias and a
rising female share, so dissimilarity declines over the years.
"""

from __future__ import annotations

import math

from repro.data.estonia import estonia_snapshot_table
from repro.etl.builder import tabular_final_table
from repro.indexes.base import DISSIMILARITY, ISOLATION
from repro.indexes.counts import UnitCounts
from repro.report.text import bar, render_table

from benchmarks.conftest import write_result

YEARS = list(range(1997, 2015, 2))


def _yearly_rows(estonia):
    rows = []
    for year in YEARS:
        table, schema = estonia_snapshot_table(estonia, year)
        final, _ = tabular_final_table(table, schema, "sector")
        units = final.ints("unitID").data
        minority = final.categorical("gender").mask_eq("F")
        counts = UnitCounts.from_assignments(units, minority)
        d = DISSIMILARITY.compute(counts)
        rows.append(
            [year, int(counts.total), counts.proportion, d,
             ISOLATION.compute(counts), bar(d, 0.5, 20)]
        )
    return rows


def test_estonia_temporal_trend(benchmark, estonia):
    rows = benchmark.pedantic(_yearly_rows, args=(estonia,), rounds=2,
                              iterations=1)
    rendered = render_table(
        ["year", "seats", "P(women)", "D(sectors)", "Iso", ""], rows
    )
    write_result(
        "E9_estonia_temporal",
        "Estonian 20-year trend — women across sectors, yearly snapshots\n"
        + rendered,
    )
    shares = [r[2] for r in rows]
    assert shares[-1] > shares[0], "female share must drift upward"
    d_values = [r[3] for r in rows if not math.isnan(r[3])]
    first_half = sum(d_values[: len(d_values) // 2]) / (len(d_values) // 2)
    second_half = sum(d_values[len(d_values) // 2:]) / (
        len(d_values) - len(d_values) // 2
    )
    assert second_half < first_half + 0.05, (
        "segregation should not grow as the planted bias softens"
    )
