"""Cross-cube comparison: two populations, or one population over time.

The demonstration closes with "a cross-comparison of the Italian vs
Estonian segregation findings" (paper §4).  Two cubes built over
different populations cannot be joined on item ids (their dictionaries
differ); cells are aligned on their *decoded* coordinates —
``attribute=value`` pairs — and compared on the dissimilarity index
``D``.  Counts and index values are read straight off the cubes'
columnar stores; no per-cell objects are materialised during the join.

The same alignment generalises a pairwise comparison to a **timeline
mode**: :func:`timeline_series` walks a
:class:`~repro.store.timeline.CubeTimeline` (a dated sequence of
snapshots, typically incremental deltas) and emits one
:class:`CellSeries` per aligned coordinate — the per-cell trend the
temporal workload (paper §3) asks for, with the biggest movers first.
The walk is one stream: it reads each date's cube as the timeline
yields it and keeps only the series, and it decodes each distinct
packed key once per run of dates sharing one vocabulary (a delta
chain), not once per row of every date.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cube.coordinates import decode_part
from repro.cube.cube import SegregationCube
from repro.cube.table import packed_rows

AlignedKey = tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]


def _aligned_key(cube: SegregationCube, key) -> AlignedKey:
    sa, ca = key

    def decode(items) -> tuple[tuple[str, str], ...]:
        decoded = decode_part(items, cube.dictionary)
        return tuple(
            sorted(
                (attr, ",".join(value) if isinstance(value, tuple)
                 else str(value))
                for attr, value in decoded.items()
            )
        )

    return (decode(sa), decode(ca))


def describe_aligned(key: AlignedKey) -> str:
    """Human-readable rendering of an aligned coordinate key."""
    sa, ca = key
    left = ", ".join(f"{a}={v}" for a, v in sa) or "*"
    right = ", ".join(f"{a}={v}" for a, v in ca) or "*"
    return f"[{left} | {right}]"


@dataclass(frozen=True)
class CellComparison:
    """One coordinate present in both cubes, compared on ``D``."""

    description: str
    left_value: float
    right_value: float
    left_population: int
    right_population: int

    @property
    def delta(self) -> float:
        """right minus left."""
        return self.right_value - self.left_value


def compare_cubes(
    left: SegregationCube, right: SegregationCube
) -> "list[CellComparison]":
    """Align two cubes on decoded coordinates and compare ``D``.

    Only coordinates materialised in *both* cubes, with ``D`` defined on
    both sides, are returned — sorted by absolute delta, largest
    divergence first.
    """
    lt, rt = left.table, right.table
    l_col = lt.columns.get("D")
    r_col = rt.columns.get("D")
    if l_col is None or r_col is None:
        return []
    left_rows = {
        _aligned_key(left, lt.keys[i]): i
        for i in np.flatnonzero(~np.isnan(l_col))
    }
    out: list[CellComparison] = []
    for j in np.flatnonzero(~np.isnan(r_col)):
        aligned = _aligned_key(right, rt.keys[j])
        i = left_rows.get(aligned)
        if i is None:
            continue
        out.append(
            CellComparison(
                description=describe_aligned(aligned),
                left_value=float(l_col[i]),
                right_value=float(r_col[j]),
                left_population=int(lt.population[i]),
                right_population=int(rt.population[j]),
            )
        )
    out.sort(key=lambda c: -abs(c.delta))
    return out


def comparison_rows(
    comparisons: "list[CellComparison]",
) -> "list[list[object]]":
    """Report-ready rows (description, left, right, delta)."""
    return [
        [c.description, c.left_value, c.right_value, c.delta]
        for c in comparisons
    ]


# ----------------------------------------------------------------------
# Timeline mode: one coordinate tracked across a dated cube sequence
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CellSeries:
    """One aligned coordinate's ``D`` trajectory across timeline dates.

    ``values[k]`` is ``D`` at ``dates[k]`` — nan where the cell is not
    materialised (or ``D`` undefined) at that date; likewise
    ``populations[k]`` is 0 there.
    """

    description: str
    dates: "tuple[int, ...]"
    values: "tuple[float, ...]"
    populations: "tuple[int, ...]"

    @property
    def spread(self) -> float:
        """Max minus min defined value (nan when fewer than 2 points)."""
        defined = [v for v in self.values if not math.isnan(v)]
        if len(defined) < 2:
            return float("nan")
        return max(defined) - min(defined)

    @property
    def delta(self) -> float:
        """Last defined value minus first defined value (nan if < 2)."""
        defined = [v for v in self.values if not math.isnan(v)]
        if len(defined) < 2:
            return float("nan")
        return defined[-1] - defined[0]


def timeline_series(timeline, min_minority: int = 0) -> "list[CellSeries]":
    """Per-cell ``D`` series over a dated sequence of cubes.

    ``timeline`` is anything yielding ``(date, cube)`` pairs in date
    order — a :class:`~repro.store.timeline.CubeTimeline`, or a plain
    list of pairs.  Cells are aligned on decoded coordinates exactly as
    :func:`compare_cubes` aligns two cubes; a coordinate must be
    materialised (``D`` defined, minority guard satisfied) at two dates
    or more to produce a series.  The result is sorted by
    :attr:`CellSeries.spread` descending — the biggest movers first —
    with the cell description breaking ties.

    A row's aligned key depends only on its packed key and on its
    vocabulary, so it is memoised by packed key bytes while consecutive
    dates share one vocabulary object (a delta shares its parent's), and
    decoded once per distinct key in each such run of dates.
    """
    dates: "list[int]" = []
    per_key: "dict[AlignedKey, dict[int, tuple[float, int]]]" = {}
    dictionary = None
    aligned_of: "dict[bytes, AlignedKey]" = {}
    for date, cube in timeline:
        date = int(date)
        dates.append(date)
        if cube.dictionary is not dictionary:
            dictionary, aligned_of = cube.dictionary, {}
        table = cube.table
        col = table.columns.get("D")
        if col is None:
            continue
        rows = np.flatnonzero(
            ~np.isnan(col) & (table.minority >= min_minority)
        )
        packed = packed_rows(table.sa_masks[rows], table.ca_masks[rows])
        for row, key, value, population in zip(
            rows.tolist(), packed.tolist(), col[rows].tolist(),
            table.population[rows].tolist(),
        ):
            aligned = aligned_of.get(key)
            if aligned is None:
                aligned = aligned_of[key] = _aligned_key(
                    cube, table.key_at(row)
                )
            per_key.setdefault(aligned, {})[date] = (value, population)
    out: "list[CellSeries]" = []
    for aligned, by_date in per_key.items():
        if len(by_date) < 2:
            continue
        values = tuple(
            by_date[d][0] if d in by_date else float("nan") for d in dates
        )
        populations = tuple(
            by_date[d][1] if d in by_date else 0 for d in dates
        )
        out.append(
            CellSeries(
                description=describe_aligned(aligned),
                dates=tuple(dates),
                values=values,
                populations=populations,
            )
        )
    out.sort(
        key=lambda s: (
            -s.spread if not math.isnan(s.spread) else float("inf"),
            s.description,
        )
    )
    return out
