"""Exploratory analysis over a built cube: discovery and paradox checks.

Segregation *discovery* (paper §2) is the ranking of cube cells in
search of a-priori unknown segregation contexts.  This module adds the
two analyst-facing primitives the demo walks the audience through:

* :func:`top_contexts` — ranked candidate contexts with minimum-size
  guards and optional per-cell randomisation p-values;
* :func:`simpson_reversals` — granularity warnings: cells whose index
  jumps sharply when drilling one coordinate down from a parent cell,
  the Simpson's-paradox instance the paper warns hypothesis-testing
  workflows about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cube.coordinates import parents_of
from repro.cube.cube import SegregationCube
from repro.errors import CubeError


@dataclass(frozen=True)
class Discovery:
    """One ranked segregation context."""

    rank: int
    description: str
    index_name: str
    value: float
    population: int
    minority: int
    proportion: float
    n_units: int


def top_contexts(
    cube: SegregationCube,
    index_name: str = "D",
    k: int = 10,
    min_minority: int = 0,
    min_population: int = 0,
    min_units: int = 2,
) -> "list[Discovery]":
    """Rank cells by an index and decode them into report-ready records."""
    cells = cube.top(
        index_name,
        k=k,
        min_minority=min_minority,
        min_population=min_population,
        min_units=min_units,
    )
    return [
        Discovery(
            rank=rank + 1,
            description=cube.describe(stats.key),
            index_name=index_name,
            value=stats.value(index_name),
            population=stats.population,
            minority=stats.minority,
            proportion=stats.proportion,
            n_units=stats.n_units,
        )
        for rank, stats in enumerate(cells)
    ]


@dataclass(frozen=True)
class Reversal:
    """A granularity warning: drilling down flips the conclusion."""

    parent_description: str
    child_description: str
    index_name: str
    parent_value: float
    child_value: float

    @property
    def jump(self) -> float:
        return self.child_value - self.parent_value


def simpson_reversals(
    cube: SegregationCube,
    index_name: str = "D",
    low: float = 0.3,
    high: float = 0.6,
    min_minority: int = 0,
) -> "list[Reversal]":
    """Find (parent, child) cell pairs where segregation appears only at
    the finer granularity.

    A pair qualifies when the parent's index is at most ``low`` (looks
    unsegregated), the direct child's is at least ``high`` (clearly
    segregated), and the child satisfies the minority-size guard.  This
    is the cube-level manifestation of analysing data "at wrong
    granularity" (paper §2).
    """
    if low > high:
        raise CubeError(f"low ({low}) must not exceed high ({high})")
    out: list[Reversal] = []
    # Candidate children come from one columnar filter; only qualifying
    # cells are materialised and pay for parent lookups.
    table = cube.table
    col = table.columns.get(index_name)
    if col is None:
        return out
    mask = (
        ~table.context_only_mask()
        & ~np.isnan(col)
        & (table.minority >= min_minority)
        & (col >= high)
    )
    for row in np.flatnonzero(mask):
        stats = cube.table.stats(int(row))
        child_value = stats.value(index_name)
        for parent_key in parents_of(stats.key):
            parent = cube.cell_by_key(parent_key)
            if parent is None or parent.is_context_only:
                continue
            parent_value = parent.value(index_name)
            if math.isnan(parent_value) or parent_value > low:
                continue
            out.append(
                Reversal(
                    parent_description=cube.describe(parent_key),
                    child_description=cube.describe(stats.key),
                    index_name=index_name,
                    parent_value=parent_value,
                    child_value=child_value,
                )
            )
    out.sort(key=lambda r: -r.jump)
    return out


def summarize_cube(cube: SegregationCube) -> dict[str, object]:
    """Headline numbers for logs and reports (columnar column scans)."""
    table = cube.table
    defined = {
        name: int(table.defined_mask(name).sum())
        for name in cube.metadata.index_names
    }
    return {
        "cells": len(cube),
        "context_only_cells": int(table.context_only_mask().sum()),
        "defined_cells_per_index": defined,
        "mode": cube.metadata.mode,
        "min_population": cube.metadata.min_population,
        "min_minority": cube.metadata.min_minority,
        "build_seconds": round(cube.metadata.build_seconds, 4),
    }
