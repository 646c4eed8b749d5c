"""Pivot views over a segregation cube (the Fig. 1 rendering).

Fig. 1 of the paper shows a 3-D cube slice: sex × age (SA axes) by
region (CA axis), each cell holding a dissimilarity value or "-".  The
:func:`pivot` helper renders any two coordinate attributes against each
other (with ``⋆`` rows/columns included), fixing the remaining
coordinates.

Each grid entry is one :meth:`~repro.cube.cube.SegregationCube.value`
call, which routes through the cube's columnar store — a key lookup
plus a single array read (falling back to the lazy resolver for
non-materialised coordinates); no per-cell objects are built while
rendering.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.cube.cube import SegregationCube
from repro.errors import ReportError
from repro.itemsets.items import ItemKind
from repro.report.text import format_value, render_table


def _attribute_values(cube: SegregationCube, attribute: str) -> list[str]:
    """Distinct values of an attribute present in the cube dictionary."""
    values = []
    dictionary = cube.dictionary
    for item_id in range(len(dictionary)):
        item = dictionary.item(item_id)
        if item.attribute == attribute:
            values.append(item.value)
    if not values:
        raise ReportError(f"attribute {attribute!r} not in cube")
    return [str(v) for v in values]


def _kind_of(cube: SegregationCube, attribute: str) -> ItemKind:
    dictionary = cube.dictionary
    for item_id in range(len(dictionary)):
        if dictionary.item(item_id).attribute == attribute:
            return dictionary.kind(item_id)
    raise ReportError(f"attribute {attribute!r} not in cube")


def pivot_values(
    cube: SegregationCube,
    index_name: str,
    row_attr: str,
    col_attr: str,
    fixed_sa: "Mapping[str, object] | None" = None,
    fixed_ca: "Mapping[str, object] | None" = None,
) -> tuple[list[str], list[str], list[list[float]]]:
    """Pivot one index over two attributes.

    Returns ``(row_labels, col_labels, matrix)`` where labels end with a
    ``*`` entry; matrix entries are index values (nan where the cell
    does not exist).
    """
    if row_attr == col_attr:
        raise ReportError("row and column attributes must differ")
    row_kind = _kind_of(cube, row_attr)
    col_kind = _kind_of(cube, col_attr)
    row_values = _attribute_values(cube, row_attr) + ["*"]
    col_values = _attribute_values(cube, col_attr) + ["*"]

    matrix: list[list[float]] = []
    for row_value in row_values:
        row_out: list[float] = []
        for col_value in col_values:
            sa: dict[str, object] = dict(fixed_sa or {})
            ca: dict[str, object] = dict(fixed_ca or {})
            for attr, kind, value in (
                (row_attr, row_kind, row_value),
                (col_attr, col_kind, col_value),
            ):
                if value == "*":
                    continue
                target = sa if kind is ItemKind.SA else ca
                target[attr] = value
            row_out.append(cube.value(index_name, sa=sa or None, ca=ca or None))
        matrix.append(row_out)
    return row_values, col_values, matrix


def pivot(
    cube: SegregationCube,
    index_name: str,
    row_attr: str,
    col_attr: str,
    fixed_sa: "Mapping[str, object] | None" = None,
    fixed_ca: "Mapping[str, object] | None" = None,
    digits: int = 2,
) -> str:
    """Render a Fig. 1-style text pivot of one index."""
    row_values, col_values, matrix = pivot_values(
        cube,
        index_name,
        row_attr,
        col_attr,
        fixed_sa=fixed_sa,
        fixed_ca=fixed_ca,
    )
    header = [f"{row_attr} \\ {col_attr}"] + list(col_values)
    rows = [
        [row_values[i]] + [format_value(v, digits) for v in matrix[i]]
        for i in range(len(row_values))
    ]
    return render_table(header, rows, digits)
