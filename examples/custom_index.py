"""Extending SCube: a custom segregation index.

The paper stresses that "the SCube system is parametric to the indexes"
(§2).  This example registers a custom index — the square-root index of
Hutchens, a standard evenness measure with the decomposability property
— and builds a cube that computes it alongside the built-ins.

Run with:  python examples/custom_index.py
"""

from __future__ import annotations

import numpy as np

from repro import generate_italy, ItalyConfig, run_tabular
from repro.core.config import CubeConfig
from repro.data.italy import italy_tabular_individuals
from repro.indexes import IndexSpec, UnitCounts, register
from repro.report.text import render_table


def hutchens_square_root(counts: UnitCounts) -> float:
    """Hutchens' square-root index SR = 1 - sum_i sqrt(m_i t'_i) with
    m, t' the minority/majority shares per unit."""
    if counts.is_degenerate():
        return float("nan")
    minority_share = counts.m / counts.minority_total
    majority_share = (counts.t - counts.m) / counts.majority_total
    return float(1.0 - np.sqrt(minority_share * majority_share).sum())


def main() -> None:
    try:
        register(
            IndexSpec("SR", "Hutchens square-root", hutchens_square_root,
                      (0.0, 1.0), True)
        )
    except Exception:
        pass  # already registered on a re-run in the same process

    dataset = generate_italy(ItalyConfig(n_companies=1500, seed=7))
    seats, schema = italy_tabular_individuals(dataset)
    result = run_tabular(
        seats,
        schema,
        "sector",
        CubeConfig(indexes=["D", "G", "SR"], min_population=20,
                   min_minority=5, max_sa_items=1, max_ca_items=1),
    )
    cube = result.cube
    print("Custom index alongside the built-ins (women, by region):")
    rows = []
    for region in ("north", "centre", "south"):
        cell = cube.cell(sa={"gender": "F"}, ca={"region": region})
        if cell is None:
            continue
        rows.append(
            [region, cell.population, cell.value("D"), cell.value("G"),
             cell.value("SR")]
        )
    print(render_table(["region", "T", "D", "G", "SR"], rows))


if __name__ == "__main__":
    main()
