"""Temporal segregation trends over membership snapshots.

The paper's inputs include validity intervals on membership pairs and a
list of snapshot ``dates`` (§3); the Estonian case study tracks 20
years.  This module formalises the analysis the demo performs per
snapshot: join the snapshot's seats, derive organizational units from a
group attribute, and evaluate segregation indexes for one subgroup —
yielding a time series ready for plotting or reporting.

Two evaluation paths produce the same series:

* the **recompute** path joins and counts each snapshot from scratch
  (the original behaviour — fine for one subgroup, one pass);
* the **cube** path reads the subgroup's cell out of a prebuilt
  :class:`~repro.store.timeline.CubeTimeline` — pass the timeline as
  the first argument of :func:`segregation_trend` — so a timeline that
  already exists (built once, incrementally, for *every* subgroup)
  answers any trend query without touching the raw data again.
  Parity between the paths is pinned by ``tests/test_core_trend.py``.

:func:`temporal_seats_table` is the union-table half of that story: one
row per membership edge whatever its validity, plus the sentinel-encoded
interval bounds — encode it once, then a snapshot date is just a row
mask (see :mod:`repro.etl.diff` and :mod:`repro.cube.incremental`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.data.italy import BoardsDataset
from repro.errors import ReproError, TableError
from repro.etl.builder import id_rows, tabular_final_table
from repro.etl.diff import interval_bounds
from repro.etl.schema import AttributeSpec, Role, Schema
from repro.etl.table import CategoricalColumn, MultiValuedColumn, Table
from repro.indexes.base import evaluate, resolve_indexes
from repro.indexes.counts import UnitCounts
from repro.store.timeline import CubeTimeline


def _join_seat_attributes(
    dataset: BoardsDataset, pairs: "list[tuple[int, int]]"
) -> tuple[Table, Schema]:
    """Join both entities' SA/CA attributes onto ``(individual, group)``
    id pairs, one seat row per pair.

    The single join used by the per-date snapshot table *and* the union
    temporal table — the exact-parity contract between the recompute
    and cube trend paths rests on them sharing this code.  Ids go
    through :func:`~repro.etl.builder.id_rows`, so a repeated or an
    unknown id raises :class:`TableError`.
    """
    ind_rows = id_rows(dataset.individuals,
                       dataset.individuals_schema.id_name,
                       [individual for individual, _ in pairs])
    grp_rows = id_rows(dataset.groups, dataset.groups_schema.id_name,
                       [group for _, group in pairs])
    columns: dict[str, object] = {}
    specs: list[AttributeSpec] = []
    for spec in dataset.individuals_schema.specs:
        if spec.role not in (Role.SEGREGATION, Role.CONTEXT):
            continue
        columns[spec.name] = dataset.individuals.column(spec.name).take(
            ind_rows
        )
        specs.append(spec)
    for spec in dataset.groups_schema.specs:
        if spec.role is not Role.CONTEXT:
            continue
        if spec.name in columns:
            raise TableError(
                f"attribute {spec.name!r} exists on both individuals and "
                "groups; rename one"
            )
        columns[spec.name] = dataset.groups.column(spec.name).take(grp_rows)
        specs.append(spec)
    return Table(columns), Schema(specs)  # type: ignore[arg-type]


def snapshot_seats_table(
    dataset: BoardsDataset, date: "int | None" = None
) -> tuple[Table, Schema]:
    """One row per membership valid at ``date``, joining both entities.

    Columns: every SA/CA attribute of the individuals plus every CA
    attribute of the groups; the schema carries the roles over.  This
    generalises the per-dataset helpers to any :class:`BoardsDataset`.
    """
    pairs = dataset.membership.snapshot(date)
    if not pairs:
        raise ReproError(f"no membership is valid at date {date!r}")
    return _join_seat_attributes(dataset, pairs)


def temporal_seats_table(
    dataset: BoardsDataset,
) -> "tuple[Table, Schema, np.ndarray, np.ndarray]":
    """The *union* seat table: one row per membership edge, any validity.

    Returns ``(table, schema, starts, ends)`` where the interval bound
    arrays are sentinel-encoded (:data:`repro.etl.diff.OPEN_START` /
    ``OPEN_END``) and row-aligned with the table, which preserves the
    membership's edge order.  Encode the table once, restrict per date
    with :func:`repro.etl.diff.valid_at` — the input contract of the
    incremental temporal fill (:mod:`repro.cube.incremental`).
    """
    edges = list(dataset.membership)
    if not edges:
        raise ReproError("membership relation is empty")
    table, schema = _join_seat_attributes(
        dataset, [(e.individual, e.group) for e in edges]
    )
    starts, ends = interval_bounds(e.interval for e in edges)
    return table, schema, starts, ends


def _subgroup_mask(table: Table, sa: Mapping[str, object]) -> np.ndarray:
    mask = np.ones(len(table), dtype=bool)
    for attr, value in sa.items():
        col = table.column(attr)
        if isinstance(col, CategoricalColumn):
            mask &= col.mask_eq(value)  # type: ignore[arg-type]
        elif isinstance(col, MultiValuedColumn):
            mask &= col.mask_contains(value)  # type: ignore[arg-type]
        else:
            raise TableError(
                f"subgroup attribute {attr!r} must be categorical or "
                "multi-valued"
            )
    return mask


@dataclass(frozen=True)
class TrendPoint:
    """Segregation measurements at one snapshot date."""

    date: int
    population: int
    minority: int
    proportion: float
    n_units: int
    values: dict[str, float]


def segregation_trend(
    dataset: "BoardsDataset | CubeTimeline",
    dates: Iterable[int],
    unit_attr: "str | None",
    sa: Mapping[str, object],
    indexes: "list[str] | None" = None,
) -> "list[TrendPoint]":
    """Evaluate indexes for one subgroup at every snapshot date.

    Parameters
    ----------
    dataset:
        A :class:`BoardsDataset` — each date is joined and counted from
        scratch — or a prebuilt
        :class:`~repro.store.timeline.CubeTimeline`, in which case the
        subgroup's values are *read* from each dated cube's cells (no
        recomputation; ``unit_attr`` is ignored, the timeline's cubes
        already fixed the unit when they were built).
    unit_attr:
        The group/individual attribute whose values become the
        organizational units (e.g. ``sector``), as in scenario 1.
    sa:
        The subgroup coordinates, e.g. ``{"gender": "F"}``; multiple
        attributes are conjunctive.
    indexes:
        Index short names (default: the six SCube indexes).

    Dates with no valid membership (recompute path) or no timeline
    snapshot / no materialised subgroup cell (cube path) are skipped.
    """
    if isinstance(dataset, CubeTimeline):
        return _trend_from_timeline(dataset, dates, sa, indexes)
    specs = resolve_indexes(indexes)
    points: list[TrendPoint] = []
    for date in dates:
        try:
            seats, schema = snapshot_seats_table(dataset, date)
        except ReproError:
            continue
        final, _final_schema = tabular_final_table(seats, schema, unit_attr)
        units = final.ints("unitID").data
        minority_mask = _subgroup_mask(final, sa)
        counts = UnitCounts.from_assignments(units, minority_mask)
        values = evaluate(specs, counts.t, counts.m[None, :])[:, 0]
        points.append(
            TrendPoint(
                date=int(date),
                population=int(counts.total),
                minority=int(counts.minority_total),
                proportion=counts.proportion,
                n_units=counts.n_units,
                values={s.name: float(v) for s, v in zip(specs, values)},
            )
        )
    return points


def _trend_from_timeline(
    timeline: CubeTimeline,
    dates: Iterable[int],
    sa: Mapping[str, object],
    indexes: "list[str] | None",
) -> "list[TrendPoint]":
    """Cube path: read the subgroup cell out of each dated snapshot.

    The subgroup's cell at the root context carries exactly the numbers
    the recompute path derives — the context population is the whole
    snapshot, the cell minority is the subgroup size, and the index
    columns were evaluated on the same per-unit vectors — so the two
    paths agree (parity-tested in ``tests/test_core_trend.py``).  Each
    date is one :meth:`~repro.store.timeline.CubeTimeline.at`, so dates
    given in ascending order stream: each composes onto the one before
    it, and the timeline holds one cube.
    """
    names = [spec.name for spec in resolve_indexes(indexes)]
    available = set(timeline.dates)
    points: list[TrendPoint] = []
    for date in dates:
        if date not in available:
            continue
        cube = timeline.at(int(date))
        stats = cube.cell(sa=sa)
        if stats is None:
            continue
        points.append(
            TrendPoint(
                date=int(date),
                population=stats.population,
                minority=stats.minority,
                proportion=(
                    stats.minority / stats.population
                    if stats.population else float("nan")
                ),
                n_units=stats.n_units,
                values={name: stats.value(name) for name in names},
            )
        )
    return points


def trend_rows(points: "list[TrendPoint]") -> "list[list[object]]":
    """Report-ready rows: date, T, M, P, then one column per index."""
    if not points:
        return []
    index_names = list(points[0].values)
    return [
        [p.date, p.population, p.minority, round(p.proportion, 4)]
        + [p.values[name] for name in index_names]
        for p in points
    ]
