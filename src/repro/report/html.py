"""Self-contained HTML report for a segregation cube.

"Segregation data cube exploration can be easily interfaced with
visualization tools" (paper §3).  Besides the xlsx workbook, this writer
emits a single-file HTML report — no external assets — with the cube
table, per-index colour shading and a header summarising the build.
Useful for sharing a discovery session without a spreadsheet application.
"""

from __future__ import annotations

import math
from pathlib import Path
from xml.sax.saxutils import escape

from repro.cube.cube import SegregationCube
from repro.errors import ReportError

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font-family: sans-serif; margin: 2rem; color: #222; }}
table {{ border-collapse: collapse; font-size: 0.85rem; }}
th, td {{ border: 1px solid #ccc; padding: 0.25rem 0.5rem; text-align: right; }}
th {{ background: #f0f0f0; position: sticky; top: 0; }}
td.coord {{ text-align: left; font-family: monospace; }}
caption {{ text-align: left; font-weight: bold; padding-bottom: 0.5rem; }}
.meta {{ color: #666; margin-bottom: 1rem; }}
</style>
</head>
<body>
<h1>{title}</h1>
<p class="meta">{meta}</p>
<table>
<caption>Segregation data cube ({n_cells} cells)</caption>
<thead><tr>{header}</tr></thead>
<tbody>
{body}
</tbody>
</table>
</body>
</html>
"""


def _shade(value: float) -> str:
    """Background colour: white (0) to red (1) for index cells."""
    if math.isnan(value):
        return ""
    clamped = max(0.0, min(1.0, value))
    intensity = int(255 - clamped * 120)
    return f' style="background: rgb(255,{intensity},{intensity})"'


def cube_to_html(cube: SegregationCube, path: "str | Path") -> Path:
    """Write the cube as a self-contained HTML file and return its path."""
    rows = cube.to_rows()
    if not rows:
        raise ReportError("cannot render an empty cube")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    columns = list(rows[0])
    coordinate_columns = set(cube.sa_attributes() + cube.ca_attributes())
    index_columns = set(cube.metadata.index_names)
    header = "".join(f"<th>{escape(str(c))}</th>" for c in columns)

    body_rows = []
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if column in coordinate_columns:
                cells.append(f'<td class="coord">{escape(str(value))}</td>')
            elif column in index_columns:
                numeric = (
                    float(value) if isinstance(value, (int, float))
                    and value != "" else float("nan")
                )
                text = "-" if math.isnan(numeric) else f"{numeric:.3f}"
                cells.append(f"<td{_shade(numeric)}>{text}</td>")
            else:
                cells.append(f"<td>{escape(str(value))}</td>")
        body_rows.append("<tr>" + "".join(cells) + "</tr>")

    meta = (
        f"rows: {cube.metadata.n_rows}; units: {cube.metadata.n_units}; "
        f"min population: {cube.metadata.min_population}; "
        f"min minority: {cube.metadata.min_minority}; "
        f"mode: {cube.metadata.mode}; "
        f"indexes: {', '.join(cube.metadata.index_names)}"
    )
    path.write_text(
        _PAGE.format(
            title="SCube report",
            meta=escape(meta),
            n_cells=len(cube),
            header=header,
            body="\n".join(body_rows),
        ),
        encoding="utf-8",
    )
    return path
