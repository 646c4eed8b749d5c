"""Plain-text table rendering for console reports and benchmark output.

Benchmarks print paper-style tables with these helpers, so that the
regenerated rows/series can be compared to the paper's figures at a
glance.  :func:`render_cube` is the cube-level entry point: it works on
any :class:`~repro.cube.cube.SegregationCube` — a live cube or an
opened snapshot.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cube.cube import SegregationCube


def format_value(value: object, digits: int = 3) -> str:
    """Render one cell: floats rounded, nan as '-', everything else str()."""
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        return f"{value:.{digits}f}"
    return str(value)


def render_table(
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    digits: int = 3,
) -> str:
    """Render an aligned text table with a rule under the header."""
    text_rows = [[format_value(v, digits) for v in row] for row in rows]
    widths = [len(str(h)) for h in header]
    for row in text_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(
            str(cell).ljust(widths[i]) for i, cell in enumerate(cells)
        ).rstrip()
    lines = [fmt([str(h) for h in header])]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in text_rows)
    return "\n".join(lines)


def render_dict_rows(rows: "list[dict[str, object]]") -> str:
    """Render homogeneous dict-rows (header from the first row)."""
    if not rows:
        return "(no rows)"
    header = list(rows[0])
    return render_table(
        header, [[row.get(col, "") for col in header] for row in rows]
    )


def render_cube(cube: "SegregationCube") -> str:
    """Render a whole cube (live or snapshot-backed) as a text table."""
    return render_dict_rows(cube.to_rows())


def bar(value: float, scale: float = 1.0, width: int = 40) -> str:
    """ASCII bar for quick visual comparison (nan-safe)."""
    if math.isnan(value) or scale <= 0:
        return ""
    filled = int(round(max(0.0, min(value / scale, 1.0)) * width))
    return "#" * filled
