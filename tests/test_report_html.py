"""Tests of the self-contained HTML cube report."""

from __future__ import annotations

import html.parser

import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.errors import ReportError
from repro.etl.schema import Schema
from repro.etl.table import Table
from repro.report.html import cube_to_html


class _TableCounter(html.parser.HTMLParser):
    def __init__(self):
        super().__init__()
        self.rows = 0
        self.cells = 0

    def handle_starttag(self, tag, attrs):
        if tag == "tr":
            self.rows += 1
        if tag == "td":
            self.cells += 1


@pytest.fixture(scope="module")
def cube():
    rows = []
    rows += [("F", "x", 0)] * 9 + [("F", "x", 1)] * 1
    rows += [("M", "x", 0)] * 1 + [("M", "x", 1)] * 9
    table = Table.from_rows(["sex", "ctx", "unitID"], rows)
    schema = Schema.build(segregation=["sex"], context=["ctx"],
                          unit="unitID")
    return SegregationDataCubeBuilder(min_population=1, min_minority=1).build(table, schema)


class TestCubeToHtml:
    def test_writes_parseable_html(self, cube, tmp_path):
        path = cube_to_html(cube, tmp_path / "report.html")
        text = path.read_text()
        parser = _TableCounter()
        parser.feed(text)
        # header row + one row per cell
        assert parser.rows == 1 + len(cube)
        assert parser.cells > 0

    def test_contains_metadata_and_title(self, cube, tmp_path):
        path = cube_to_html(cube, tmp_path / "r.html")
        text = path.read_text()
        assert "<title>SCube report</title>" in text
        assert f"units: {cube.metadata.n_units}" in text
        assert "min minority" in text

    def test_index_cells_shaded(self, cube, tmp_path):
        text = cube_to_html(cube, tmp_path / "s.html").read_text()
        assert "background: rgb(" in text

    def test_nan_rendered_as_dash(self, cube, tmp_path):
        text = cube_to_html(cube, tmp_path / "d.html").read_text()
        assert ">-</td>" in text                 # the context-only cells

    def test_creates_parent_directories(self, cube, tmp_path):
        path = cube_to_html(cube, tmp_path / "a" / "b" / "r.html")
        assert path.exists()

    def test_self_contained(self, cube, tmp_path):
        text = cube_to_html(cube, tmp_path / "c.html").read_text()
        assert "http" not in text                # no external assets
        assert "<script" not in text
