"""Quickstart: discover school segregation in a small census-style table.

Runs the tabular scenario (paper §4, scenario 1) on the bundled two-city
schools dataset: schools are the organizational units, ethnicity and sex
are segregation attributes, the city is the context attribute.  The
script prints the discovery ranking, a Fig. 1-style pivot, flags the
granularity trap, and writes the cube workbook.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from pathlib import Path

from repro import generate_schools, run_tabular, top_contexts
from repro.cube.explorer import simpson_reversals
from repro.report.pivot import pivot
from repro.report.xlsx import rows_to_workbook


def main() -> None:
    table, schema = generate_schools()
    print(f"students: {len(table)}; attributes: {schema.analysis_names()}")

    result = run_tabular(table, schema, unit_attr="school")
    cube = result.cube
    print(f"cube: {len(cube)} cells over {result.n_units} schools\n")

    print("Top segregation contexts (dissimilarity, >= 30 minority students):")
    for found in top_contexts(cube, "D", k=5, min_minority=30):
        print(
            f"  {found.rank}. {found.description:<45} "
            f"D={found.value:.3f}  T={found.population}  M={found.minority}"
        )

    print("\nDissimilarity pivot (ethnicity x city):")
    print(pivot(cube, "D", "ethnicity", "city"))

    overall = cube.value("D", sa={"ethnicity": "minority"})
    rivertown = cube.value(
        "D", sa={"ethnicity": "minority"}, ca={"city": "Rivertown"}
    )
    print(
        f"\nGranularity matters: city-agnostic D = {overall:.3f}, "
        f"but within Rivertown D = {rivertown:.3f}."
    )
    for reversal in simpson_reversals(cube, low=0.5, high=0.8)[:3]:
        print(
            f"  reversal: {reversal.parent_description} "
            f"({reversal.parent_value:.2f}) -> "
            f"{reversal.child_description} ({reversal.child_value:.2f})"
        )

    out = Path("schools_cube.xlsx")
    rows_to_workbook(cube.to_rows()).save(out)
    print(f"\nwrote {out} — open it with Excel/LibreOffice for pivot tables")


if __name__ == "__main__":
    main()
