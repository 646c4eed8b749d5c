"""Tests of the from-scratch OOXML workbook writer.

Workbooks are verified by unzipping and XML-parsing the parts — the same
thing Excel/LibreOffice do on open.
"""

from __future__ import annotations

import zipfile
import xml.etree.ElementTree as ET

import pytest

from repro.errors import ReportError
from repro.report.xlsx import (
    Sheet,
    Workbook,
    cell_reference,
    column_letter,
    rows_to_workbook,
)

NS = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"


def read_sheet_values(path, sheet_index=1):
    """Parse cell values back out of a saved workbook."""
    with zipfile.ZipFile(path) as zf:
        tree = ET.fromstring(zf.read(f"xl/worksheets/sheet{sheet_index}.xml"))
    values = {}
    for cell in tree.iter(f"{NS}c"):
        ref = cell.get("r")
        kind = cell.get("t")
        if kind == "inlineStr":
            values[ref] = cell.find(f"{NS}is/{NS}t").text
        elif kind == "b":
            values[ref] = bool(int(cell.find(f"{NS}v").text))
        else:
            values[ref] = float(cell.find(f"{NS}v").text)
    return values


class TestColumnMath:
    @pytest.mark.parametrize(
        "index, letter",
        [(0, "A"), (25, "Z"), (26, "AA"), (27, "AB"), (701, "ZZ"), (702, "AAA")],
    )
    def test_column_letters(self, index, letter):
        assert column_letter(index) == letter

    def test_cell_reference(self):
        assert cell_reference(0, 0) == "A1"
        assert cell_reference(9, 27) == "AB10"

    def test_negative_rejected(self):
        with pytest.raises(ReportError):
            column_letter(-1)
        with pytest.raises(ReportError):
            cell_reference(-1, 0)


class TestSheet:
    def test_append_rows_and_headers(self):
        sheet = Sheet("s")
        assert sheet.append_header(["a", "b"]) == 0
        assert sheet.append_row([1, 2]) == 1
        assert sheet.n_rows == 2

    def test_set_cell_positions(self):
        sheet = Sheet("s")
        sheet.set_cell(4, 2, "x")
        assert sheet.n_rows == 5

    def test_invalid_names(self):
        with pytest.raises(ReportError):
            Sheet("")
        with pytest.raises(ReportError):
            Sheet("x" * 32)
        with pytest.raises(ReportError):
            Sheet("bad/name")

    def test_negative_coordinates(self):
        sheet = Sheet("s")
        with pytest.raises(ReportError):
            sheet.set_cell(-1, 0, "x")


class TestWorkbookSave:
    def test_required_parts_present(self, tmp_path):
        wb = Workbook()
        wb.add_sheet("one").append_row(["hello"])
        path = wb.save(tmp_path / "t.xlsx")
        with zipfile.ZipFile(path) as zf:
            names = set(zf.namelist())
        assert "[Content_Types].xml" in names
        assert "_rels/.rels" in names
        assert "xl/workbook.xml" in names
        assert "xl/_rels/workbook.xml.rels" in names
        assert "xl/styles.xml" in names
        assert "xl/worksheets/sheet1.xml" in names

    def test_all_parts_are_valid_xml(self, tmp_path):
        wb = Workbook()
        wb.add_sheet("one").append_row(["hello", 1, 2.5, True])
        path = wb.save(tmp_path / "t.xlsx")
        with zipfile.ZipFile(path) as zf:
            for name in zf.namelist():
                ET.fromstring(zf.read(name))

    def test_values_round_trip(self, tmp_path):
        wb = Workbook()
        sheet = wb.add_sheet("data")
        sheet.append_header(["name", "score"])
        sheet.append_row(["ada", 3.5])
        sheet.append_row(["bob", 4])
        path = wb.save(tmp_path / "v.xlsx")
        values = read_sheet_values(path)
        assert values["A1"] == "name"
        assert values["A2"] == "ada"
        assert values["B2"] == 3.5
        assert values["B3"] == 4.0

    def test_nan_rendered_as_dash(self, tmp_path):
        wb = Workbook()
        wb.add_sheet("s").append_row([float("nan")])
        values = read_sheet_values(wb.save(tmp_path / "n.xlsx"))
        assert values["A1"] == "-"

    def test_xml_escaping(self, tmp_path):
        wb = Workbook()
        wb.add_sheet("s").append_row(["<b>&\"quoted\"</b>"])
        values = read_sheet_values(wb.save(tmp_path / "e.xlsx"))
        assert values["A1"] == "<b>&\"quoted\"</b>"

    def test_multiple_sheets(self, tmp_path):
        wb = Workbook()
        wb.add_sheet("alpha").append_row([1])
        wb.add_sheet("beta").append_row([2])
        path = wb.save(tmp_path / "m.xlsx")
        assert read_sheet_values(path, 1)["A1"] == 1.0
        assert read_sheet_values(path, 2)["A1"] == 2.0
        with zipfile.ZipFile(path) as zf:
            workbook = ET.fromstring(zf.read("xl/workbook.xml"))
        names = [s.get("name") for s in workbook.iter(f"{NS}sheet")]
        assert names == ["alpha", "beta"]

    def test_duplicate_sheet_names_rejected(self):
        wb = Workbook()
        wb.add_sheet("x")
        with pytest.raises(ReportError, match="duplicate"):
            wb.add_sheet("x")

    def test_empty_workbook_rejected(self, tmp_path):
        with pytest.raises(ReportError):
            Workbook().save(tmp_path / "nope.xlsx")

    def test_empty_cells_skipped(self, tmp_path):
        wb = Workbook()
        wb.add_sheet("s").append_row(["", None, "x"])
        values = read_sheet_values(wb.save(tmp_path / "sk.xlsx"))
        assert "A1" not in values and "B1" not in values
        assert values["C1"] == "x"

    def test_header_cells_styled_bold(self, tmp_path):
        wb = Workbook()
        sheet = wb.add_sheet("s")
        sheet.append_header(["h"])
        sheet.append_row(["v"])
        path = wb.save(tmp_path / "b.xlsx")
        with zipfile.ZipFile(path) as zf:
            xml = zf.read("xl/worksheets/sheet1.xml").decode()
        assert 's="1"' in xml


class TestUnicodeAndFuzz:
    """Property tests: arbitrary text must survive the XML round trip."""

    def test_unicode_round_trip(self, tmp_path):
        wb = Workbook()
        values = ["città", "São Paulo", "日本語", "emoji ✓", "tab\tseparated"]
        wb.add_sheet("u").append_row(values)
        back = read_sheet_values(wb.save(tmp_path / "u.xlsx"))
        for col, expected in enumerate(values):
            ref = f"{column_letter(col)}1"
            assert back[ref] == expected

    def test_random_text_round_trip(self, tmp_path):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(
            st.lists(
                st.text(
                    alphabet=st.characters(
                        blacklist_categories=("Cs", "Cc"), max_codepoint=0x2FFF
                    ),
                    min_size=1,
                    max_size=30,
                ),
                min_size=1,
                max_size=5,
            )
        )
        @settings(max_examples=30, deadline=None)
        def round_trip(texts):
            wb = Workbook()
            wb.add_sheet("s").append_row(texts)
            back = read_sheet_values(wb.save(tmp_path / "fuzz.xlsx"))
            for col, expected in enumerate(texts):
                ref = f"{column_letter(col)}1"
                assert back[ref] == expected

        round_trip()

    def test_numbers_round_trip_precisely(self, tmp_path):
        wb = Workbook()
        values = [0.1, 1e-12, 1e15, -2.5, 123456789]
        wb.add_sheet("n").append_row(values)
        back = read_sheet_values(wb.save(tmp_path / "n.xlsx"))
        for col, expected in enumerate(values):
            ref = f"{column_letter(col)}1"
            assert back[ref] == pytest.approx(expected, rel=1e-15)


class TestRowsToWorkbook:
    def test_dict_rows(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        wb = rows_to_workbook(rows)
        values = read_sheet_values(wb.save(tmp_path / "d.xlsx"))
        assert values["A1"] == "a"
        assert values["A3"] == 2.0

    def test_empty_rows(self, tmp_path):
        wb = rows_to_workbook([])
        values = read_sheet_values(wb.save(tmp_path / "0.xlsx"))
        assert values["A1"] == "(empty)"
