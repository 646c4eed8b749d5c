"""Temporal segregation analysis on the Estonian case study.

The paper's membership input supports validity intervals plus a list of
snapshot dates (§3).  This example builds one segregation cube per
snapshot year, tracks the trend of gender segregation across sectors,
and attaches statistical guards (bootstrap CI and randomisation test) to
the most recent value — distinguishing systematic segregation from what
random allocation would produce.

Run with:  python examples/estonian_temporal.py
"""

from __future__ import annotations

from repro import EstoniaConfig, generate_estonia
from repro.data.estonia import estonia_snapshot_table
from repro.etl.builder import tabular_final_table
from repro.indexes import (
    DISSIMILARITY,
    UnitCounts,
    bootstrap_ci,
    randomization_test,
)
from repro.report.text import bar, render_table


def yearly_counts(dataset, year: int) -> UnitCounts:
    """Per-sector counts of women for one snapshot year."""
    table, schema = estonia_snapshot_table(dataset, year)
    final, _ = tabular_final_table(table, schema, "sector")
    units = final.ints("unitID").data
    minority = final.categorical("gender").mask_eq("F")
    return UnitCounts.from_assignments(units, minority)


def main() -> None:
    dataset = generate_estonia(EstoniaConfig(n_companies=2000, seed=11))
    first, last = dataset.membership.span()
    print(
        f"synthetic Estonia: {dataset.n_individuals} directors, "
        f"{dataset.n_groups} companies, memberships spanning "
        f"[{first}, {last})"
    )

    years = list(range(1997, 2015, 2))
    rows = []
    for year in years:
        counts = yearly_counts(dataset, year)
        d = DISSIMILARITY.compute(counts)
        rows.append(
            [year, int(counts.total), f"{counts.proportion:.3f}", d,
             bar(d, 0.5, 24)]
        )
    print("\nGender segregation across sectors, by snapshot year:")
    print(render_table(["year", "seats", "P(women)", "D", ""], rows))

    latest = yearly_counts(dataset, years[-1])
    ci = bootstrap_ci(DISSIMILARITY, latest, n_boot=300, seed=0)
    test = randomization_test(DISSIMILARITY, latest, n_permutations=300,
                              seed=0)
    print(f"\n{years[-1]} in detail:")
    print(f"  D = {ci.estimate:.3f}, 95% bootstrap CI "
          f"[{ci.low:.3f}, {ci.high:.3f}]")
    print(
        f"  random-allocation baseline = {test.expected_under_null:.3f} "
        f"(systematic excess = {test.excess:.3f}, p = {test.p_value:.4f})"
    )
    if test.p_value < 0.05:
        print("  -> segregation is systematic, not a small-sample artefact")
    else:
        print("  -> indistinguishable from random allocation")


if __name__ == "__main__":
    main()
