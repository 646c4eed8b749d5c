"""Minimal OOXML ``.xlsx`` writer (stdlib only).

SCube's *Visualizer* module "transforms the extended datacube ... into a
standard OOXML format that can be opened by Microsoft Excel, Libre
Office, and other office productivity tools" (paper §3, using Apache
POI).  This module reimplements just enough of SpreadsheetML from
scratch: multiple worksheets, inline strings, numbers, bold header
styling — producing files that office suites open directly.

The writer targets correctness and auditability over completeness:
cells are written as inline strings (no shared-string table) and the
style sheet contains exactly two cell formats (normal, bold header).
"""

from __future__ import annotations

import zipfile
from collections.abc import Iterable, Sequence
from pathlib import Path
from xml.sax.saxutils import escape

from repro.errors import ReportError

_INVALID_SHEET_CHARS = set('[]:*?/\\')

_CONTENT_TYPES = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">
<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>
<Default Extension="xml" ContentType="application/xml"/>
<Override PartName="/xl/workbook.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>
<Override PartName="/xl/styles.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.styles+xml"/>
{sheet_overrides}
</Types>
"""

_ROOT_RELS = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" Target="xl/workbook.xml"/>
</Relationships>
"""

_STYLES = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<styleSheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<fonts count="2"><font><sz val="11"/><name val="Calibri"/></font>
<font><b/><sz val="11"/><name val="Calibri"/></font></fonts>
<fills count="2"><fill><patternFill patternType="none"/></fill>
<fill><patternFill patternType="gray125"/></fill></fills>
<borders count="1"><border><left/><right/><top/><bottom/><diagonal/></border></borders>
<cellStyleXfs count="1"><xf numFmtId="0" fontId="0" fillId="0" borderId="0"/></cellStyleXfs>
<cellXfs count="2">
<xf numFmtId="0" fontId="0" fillId="0" borderId="0" xfId="0"/>
<xf numFmtId="0" fontId="1" fillId="0" borderId="0" xfId="0" applyFont="1"/>
</cellXfs>
</styleSheet>
"""

#: Style index of the bold header format in ``_STYLES``.
HEADER_STYLE = 1


def column_letter(index: int) -> str:
    """0-based column index to spreadsheet letters (0 -> A, 27 -> AB)."""
    if index < 0:
        raise ReportError(f"column index must be non-negative, got {index}")
    letters = ""
    index += 1
    while index:
        index, remainder = divmod(index - 1, 26)
        letters = chr(ord("A") + remainder) + letters
    return letters


def cell_reference(row: int, col: int) -> str:
    """0-based (row, col) to an A1-style reference."""
    if row < 0:
        raise ReportError(f"row index must be non-negative, got {row}")
    return f"{column_letter(col)}{row + 1}"


class Sheet:
    """One worksheet: a sparse grid of values plus per-cell bold flags."""

    def __init__(self, name: str):
        if not name or len(name) > 31:
            raise ReportError(f"sheet name {name!r} must be 1..31 characters")
        if any(ch in _INVALID_SHEET_CHARS for ch in name):
            raise ReportError(f"sheet name {name!r} contains invalid characters")
        self.name = name
        self._cells: dict[tuple[int, int], tuple[object, bool]] = {}
        self._next_row = 0

    def set_cell(self, row: int, col: int, value: object, bold: bool = False
                 ) -> None:
        """Place ``value`` at 0-based (row, col)."""
        if row < 0 or col < 0:
            raise ReportError("cell coordinates must be non-negative")
        self._cells[(row, col)] = (value, bold)
        self._next_row = max(self._next_row, row + 1)

    def append_row(self, values: Sequence[object], bold: bool = False) -> int:
        """Append a full row below existing content; returns its row index."""
        row = self._next_row
        for col, value in enumerate(values):
            self.set_cell(row, col, value, bold=bold)
        return row

    def append_header(self, values: Sequence[object]) -> int:
        """Append a bold header row."""
        return self.append_row(values, bold=True)

    @property
    def n_rows(self) -> int:
        return self._next_row

    def _cell_xml(self, row: int, col: int, value: object, bold: bool) -> str:
        ref = cell_reference(row, col)
        style = f' s="{HEADER_STYLE}"' if bold else ""
        if value is None or value == "":
            return ""
        if isinstance(value, bool):
            return f'<c r="{ref}"{style} t="b"><v>{int(value)}</v></c>'
        if isinstance(value, (int, float)):
            if isinstance(value, float) and (value != value):  # NaN -> "-"
                return (
                    f'<c r="{ref}"{style} t="inlineStr"><is><t>-</t></is></c>'
                )
            return f'<c r="{ref}"{style}><v>{value!r}</v></c>'
        text = escape(str(value))
        return f'<c r="{ref}"{style} t="inlineStr"><is><t>{text}</t></is></c>'

    def to_xml(self) -> str:
        """Serialise the worksheet part."""
        by_row: dict[int, list[tuple[int, object, bool]]] = {}
        for (row, col), (value, bold) in self._cells.items():
            by_row.setdefault(row, []).append((col, value, bold))
        rows_xml = []
        for row in sorted(by_row):
            cells = "".join(
                self._cell_xml(row, col, value, bold)
                for col, value, bold in sorted(by_row[row])
            )
            rows_xml.append(f'<row r="{row + 1}">{cells}</row>')
        body = "".join(rows_xml)
        return (
            '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
            '<worksheet xmlns="http://schemas.openxmlformats.org/'
            'spreadsheetml/2006/main">'
            f"<sheetData>{body}</sheetData></worksheet>"
        )


class Workbook:
    """An in-memory workbook; :meth:`save` writes the ``.xlsx`` package."""

    def __init__(self) -> None:
        self._sheets: list[Sheet] = []

    def add_sheet(self, name: str) -> Sheet:
        """Create and register a new worksheet."""
        if any(s.name == name for s in self._sheets):
            raise ReportError(f"duplicate sheet name {name!r}")
        sheet = Sheet(name)
        self._sheets.append(sheet)
        return sheet

    def save(self, path: str | Path) -> Path:
        """Write the workbook as a ``.xlsx`` (zip) package."""
        if not self._sheets:
            raise ReportError("cannot save a workbook with no sheets")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        sheet_overrides = "\n".join(
            f'<Override PartName="/xl/worksheets/sheet{i + 1}.xml" '
            'ContentType="application/vnd.openxmlformats-officedocument.'
            'spreadsheetml.worksheet+xml"/>'
            for i in range(len(self._sheets))
        )
        sheets_xml = "".join(
            f'<sheet name="{escape(s.name)}" sheetId="{i + 1}" '
            f'r:id="rId{i + 1}"/>'
            for i, s in enumerate(self._sheets)
        )
        workbook_xml = (
            '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
            '<workbook xmlns="http://schemas.openxmlformats.org/'
            'spreadsheetml/2006/main" '
            'xmlns:r="http://schemas.openxmlformats.org/officeDocument/'
            '2006/relationships">'
            f"<sheets>{sheets_xml}</sheets></workbook>"
        )
        rels = "".join(
            f'<Relationship Id="rId{i + 1}" '
            'Type="http://schemas.openxmlformats.org/officeDocument/2006/'
            'relationships/worksheet" '
            f'Target="worksheets/sheet{i + 1}.xml"/>'
            for i in range(len(self._sheets))
        )
        styles_rid = len(self._sheets) + 1
        workbook_rels = (
            '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\n'
            '<Relationships xmlns="http://schemas.openxmlformats.org/'
            'package/2006/relationships">'
            f"{rels}"
            f'<Relationship Id="rId{styles_rid}" '
            'Type="http://schemas.openxmlformats.org/officeDocument/2006/'
            'relationships/styles" Target="styles.xml"/>'
            "</Relationships>"
        )
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
            zf.writestr(
                "[Content_Types].xml",
                _CONTENT_TYPES.format(sheet_overrides=sheet_overrides),
            )
            zf.writestr("_rels/.rels", _ROOT_RELS)
            zf.writestr("xl/workbook.xml", workbook_xml)
            zf.writestr("xl/_rels/workbook.xml.rels", workbook_rels)
            zf.writestr("xl/styles.xml", _STYLES)
            for i, sheet in enumerate(self._sheets):
                zf.writestr(f"xl/worksheets/sheet{i + 1}.xml", sheet.to_xml())
        return path


def rows_to_workbook(rows: Iterable[dict[str, object]]) -> Workbook:
    """Dump homogeneous dict-rows into the ``cube`` sheet of a new
    workbook."""
    wb = Workbook()
    sheet = wb.add_sheet("cube")
    header: "list[str] | None" = None
    for row in rows:
        if header is None:
            header = list(row)
            sheet.append_header(header)
        sheet.append_row([row.get(col, "") for col in header])
    if header is None:
        sheet.append_header(["(empty)"])
    return wb
