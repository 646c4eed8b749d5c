"""Radial-plot data series (the Fig. 5 bottom rendering).

Fig. 5 of the paper shows a radial plot of the segregation indexes for
directors in each of the 20 Italian company sectors.  A terminal cannot
draw the radial chart itself, so this module produces (a) the exact data
series behind it — one row per context value, one column per index — and
(b) an ASCII approximation with per-index bars, which is what the
benchmark prints.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.cube.cube import SegregationCube
from repro.errors import ReportError
from repro.itemsets.items import ItemKind
from repro.report.text import bar, format_value, render_table


@dataclass(frozen=True)
class RadialSeries:
    """Index values per context value (one radial spoke per entry)."""

    context_attribute: str
    index_names: list[str]
    labels: list[str]
    values: list[list[float]]  # [label][index]

    def rows(self) -> list[list[object]]:
        """Tabular view: label followed by one value per index."""
        return [
            [label] + list(vals) for label, vals in zip(self.labels, self.values)
        ]


def radial_series(
    cube: SegregationCube,
    context_attribute: str,
    sa: "Mapping[str, object] | None" = None,
    index_names: "list[str] | None" = None,
) -> RadialSeries:
    """Collect index values for every value of one context attribute.

    ``sa`` fixes the minority subgroup (e.g. ``{'gender': 'F'}``); each
    value of ``context_attribute`` contributes one spoke.
    """
    names = index_names or list(cube.metadata.index_names)
    dictionary = cube.dictionary
    labels = []
    for item_id in range(len(dictionary)):
        item = dictionary.item(item_id)
        if item.attribute == context_attribute:
            if dictionary.kind(item_id) is not ItemKind.CA:
                raise ReportError(
                    f"{context_attribute!r} is not a context attribute"
                )
            labels.append(str(item.value))
    if not labels:
        raise ReportError(f"attribute {context_attribute!r} not in cube")
    labels.sort()
    values = []
    for label in labels:
        stats = cube.cell(sa=sa, ca={context_attribute: label})
        values.append(
            [stats.value(n) for n in names]
            if stats is not None
            else [float("nan")] * len(names)
        )
    return RadialSeries(context_attribute, list(names), labels, values)


def render_radial(series: RadialSeries, digits: int = 3, width: int = 24) -> str:
    """ASCII rendering: the data table followed by per-index bar charts."""
    table = render_table(
        [series.context_attribute] + series.index_names,
        series.rows(),
        digits,
    )
    sections = [table]
    for j, name in enumerate(series.index_names):
        lines = [f"\n{name} by {series.context_attribute}:"]
        for label, vals in zip(series.labels, series.values):
            value = vals[j]
            lines.append(
                f"  {label:<24} {format_value(value, digits):>6} "
                f"{bar(value, 1.0, width)}"
            )
        sections.append("\n".join(lines))
    return "\n".join(sections)
