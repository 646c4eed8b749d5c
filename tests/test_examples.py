"""Smoke tests: every shipped example must run end to end.

Examples are executed in-process (``runpy``) inside a temporary working
directory so the artefacts they write do not pollute the repository.
"""

from __future__ import annotations

import os
import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


@pytest.fixture()
def in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_at_least_three_examples_shipped():
    assert len(EXAMPLES) >= 3
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, in_tmp_dir, capsys):
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{name} produced no output"


def test_quickstart_writes_workbook(in_tmp_dir, capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    assert (in_tmp_dir / "schools_cube.xlsx").exists()
    out = capsys.readouterr().out
    assert "Rivertown" in out
    assert "Granularity matters" in out


def test_italian_boards_answers_three_questions(in_tmp_dir, capsys):
    runpy.run_path(
        str(EXAMPLES_DIR / "italian_boards.py"), run_name="__main__"
    )
    out = capsys.readouterr().out
    assert out.count("Q: how much are women segregated") == 3
    assert (in_tmp_dir / "italy_scube.xlsx").exists()


def test_persist_and_serve_round_trips(in_tmp_dir, capsys):
    runpy.run_path(
        str(EXAMPLES_DIR / "persist_and_serve.py"), run_name="__main__"
    )
    out = capsys.readouterr().out
    assert "parity with live cube: identical" in out
    assert "zero rebuild" in out
    assert (in_tmp_dir / "schools_snapshot" / "manifest.json").exists()


def test_big_build_streams_and_serves(in_tmp_dir, capsys):
    runpy.run_path(str(EXAMPLES_DIR / "big_build.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "without building a table" in out
    assert "spilled to scratch: True" in out
    assert "parity with live cube: identical" in out
    assert (in_tmp_dir / "big_snapshot" / "manifest.json").exists()


def test_estonian_temporal_reports_trend(in_tmp_dir, capsys):
    runpy.run_path(
        str(EXAMPLES_DIR / "estonian_temporal.py"), run_name="__main__"
    )
    out = capsys.readouterr().out
    assert "bootstrap CI" in out
    assert "random-allocation baseline" in out
