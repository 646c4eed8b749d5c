"""TableBuilder: join individuals, groups and units into ``finalTable``.

This is the *TableBuilder* module of the SCube architecture (paper §3):
it "joins features of individuals with features of the companies in an
organizational unit", producing one row per individual and organizational
unit she belongs to.  Group context attributes are union-aggregated into
multi-valued cells (Fig. 3 bottom-left shows
``sector = {electricity, transports}`` for a director sitting on two
boards of the same unit).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import chain

import numpy as np

from repro.errors import SchemaError, TableError
from repro.etl.schema import AttributeSpec, Role, Schema
from repro.etl.table import (
    CategoricalColumn,
    IntColumn,
    MultiValuedColumn,
    Table,
)

#: Name of the unit column in every finalTable this module produces.
UNIT_COLUMN = "unitID"


def id_rows(table: Table, id_name: str, ids: Iterable[int]) -> np.ndarray:
    """The row of each of ``ids`` in ``table``'s ``id_name`` column.

    The one id join of the package: raises :class:`TableError` when the
    column repeats an id or when an id is not in it.
    """
    column = table.ints(id_name).data
    positions = {int(v): i for i, v in enumerate(column)}
    if len(positions) != len(column):
        raise TableError(f"duplicate ids in column {id_name!r}")
    try:
        return np.asarray([positions[i] for i in ids], dtype=np.int64)
    except KeyError as exc:
        raise TableError(f"membership references unknown id {exc}") from None


def build_final_table(
    individuals: Table,
    individuals_schema: Schema,
    groups: Table,
    groups_schema: Schema,
    membership: Iterable[tuple[int, int]],
    node_unit: Mapping[int, int],
) -> tuple[Table, Schema]:
    """Produce ``finalTable`` for graph-based scenarios.

    Parameters
    ----------
    individuals / individuals_schema:
        One row per individual; must declare an ``ID`` column plus SA and
        (optionally) CA attributes.
    groups / groups_schema:
        One row per group (company); must declare an ``ID`` column plus CA
        attributes.  Groups have **no** SA attributes (paper §3: groups are
        not subjects of segregation) — a schema declaring one is rejected.
    membership:
        ``(individual_id, group_id)`` pairs (one snapshot of the bipartite
        graph).
    node_unit:
        Mapping from group id to organizational-unit id, as produced by the
        GraphClustering step.  Groups missing from the mapping are skipped
        (they were isolated or filtered out).

    Returns
    -------
    (table, schema):
        ``table`` has one row per (individual, unit): the individual's SA
        and CA attributes, each group CA attribute aggregated into a
        multi-valued column, and the integer ``unitID`` column.
    """
    individuals_schema.validate(individuals)
    groups_schema.validate(groups)
    if groups_schema.sa_names:
        raise SchemaError(
            "groups must not declare segregation attributes "
            f"(found {groups_schema.sa_names})"
        )
    # Seats on groups missing from ``node_unit`` are skipped.
    seats = [
        (ind_id, grp_id, unit) for ind_id, grp_id in membership
        if (unit := node_unit.get(grp_id)) is not None
    ]
    seat_inds = id_rows(individuals, individuals_schema.id_name,
                        [seat[0] for seat in seats])
    seat_grps = id_rows(groups, groups_schema.id_name,
                        [seat[1] for seat in seats])

    # (individual position, unit id) -> sorted set of group positions
    assignments: dict[tuple[int, int], set[int]] = {}
    for i, g, seat in zip(seat_inds.tolist(), seat_grps.tolist(), seats):
        assignments.setdefault((i, int(seat[2])), set()).add(g)

    keys = sorted(assignments)
    ind_rows = np.asarray([k[0] for k in keys], dtype=np.int64)
    units = np.asarray([k[1] for k in keys], dtype=np.int64)

    columns: dict[str, object] = {}
    specs: list[AttributeSpec] = []
    for spec in individuals_schema.specs:
        if spec.role not in (Role.SEGREGATION, Role.CONTEXT):
            continue
        columns[spec.name] = individuals.column(spec.name).take(ind_rows)
        specs.append(spec)
    for spec in groups_schema.specs:
        if spec.role is not Role.CONTEXT:
            continue
        columns[spec.name] = _aggregate_group_attribute(
            groups, spec, [sorted(assignments[k]) for k in keys]
        )
        specs.append(AttributeSpec(spec.name, Role.CONTEXT, multi_valued=True))
    columns[UNIT_COLUMN] = IntColumn(units)
    specs.append(AttributeSpec(UNIT_COLUMN, Role.UNIT))
    return Table(columns), Schema(specs)  # type: ignore[arg-type]


def _aggregate_group_attribute(
    groups: Table, spec: AttributeSpec, group_lists: list[list[int]]
) -> MultiValuedColumn:
    """Union the values of one group CA attribute over each row's groups."""
    col = groups.column(spec.name)
    if isinstance(col, CategoricalColumn):
        code_sets = [{int(col.codes[g]) for g in grp_list}
                     for grp_list in group_lists]
    elif isinstance(col, MultiValuedColumn):
        codes_of = np.split(col.codes, col.indptr[1:-1])
        code_sets = [set().union(*(codes_of[g].tolist() for g in grp_list))
                     for grp_list in group_lists]
    else:
        raise TableError(
            f"group attribute {spec.name!r} must be categorical or "
            "multi-valued"
        )
    rows = [sorted(codes) for codes in code_sets]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return MultiValuedColumn(indptr, list(chain.from_iterable(rows)),
                             col.categories)


def tabular_final_table(
    individuals: Table,
    schema: Schema,
    unit_attr: str,
) -> tuple[Table, Schema]:
    """Produce ``finalTable`` for the tabular scenario (paper §4, scenario 1).

    When the data already carries an organizational-unit attribute (the
    demo uses the company sector), no graph pre-processing is needed: the
    attribute's categories become the unit ids.

    The unit attribute is removed from the analysis dimensions (a CA equal
    to the unit partition would always show complete segregation of the
    context with itself).
    """
    schema.validate(individuals)
    col = individuals.column(unit_attr)
    if isinstance(col, CategoricalColumn):
        units = col.codes.astype(np.int64)
    elif isinstance(col, IntColumn):
        units = col.data
    else:
        raise TableError(
            f"unit attribute {unit_attr!r} must be categorical or integer"
        )
    table = individuals.without_columns([unit_attr]).with_column(
        UNIT_COLUMN, IntColumn(units)
    )
    specs = [
        s
        for s in schema.specs
        if s.name != unit_attr and s.role in (Role.SEGREGATION, Role.CONTEXT)
    ]
    specs.append(AttributeSpec(UNIT_COLUMN, Role.UNIT))
    return table, Schema(specs)
