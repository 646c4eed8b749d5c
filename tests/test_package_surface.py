"""The package ships only what a system path reaches.

A system path is the package itself, the examples, the benchmarks and
perfbench; tests are not one.  Every top-level function and class of
``src/repro`` must be named by another module of those trees (as a
name, an attribute or an import; an ``__init__`` module's re-exports do
not count) or used by its own module.  A definition that no system path
reaches but that stays on purpose is listed in :data:`KEPT` with its
reason, and a listed name that becomes reached, or is no longer
defined, fails too, so the list cannot go stale.
"""

from __future__ import annotations

import ast
from collections import Counter
from collections.abc import Iterable
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SYSTEM_TREES = ("src", "examples", "benchmarks", "perfbench")

#: Definitions no system path reaches, kept on purpose: name -> reason.
KEPT = {
    "read_query": "the paper's §3 JDBC input: a finalTable read from a "
                  "SQL query",
    "write_table_sql": "loads a finalTable into a SQL table, the writer "
                       "half of the §3 JDBC input",
    "compare_cubes": "the §4 cross-comparison of the Italian and "
                     "Estonian cubes",
    "comparison_rows": "renders compare_cubes' result as table rows",
    "cube_to_html": "the Visualizer's single-file HTML report (§3), "
                    "beside the xlsx workbook",
    "validate_snapshot": "checks a snapshot directory without opening "
                         "it for serving; exported from repro",
    "make_key": "the public spelling of a CellKey for cell_by_key and "
                "value_by_key",
    "checkerboard_table": "planted data whose evenness indexes equal 1 "
                          "exactly",
    "uniform_table": "planted data whose evenness indexes equal 0 "
                     "exactly",
}


def _named(nodes: Iterable[ast.AST]) -> "Counter[str]":
    """How often each name, attribute and imported name occurs in
    ``nodes``."""
    out: "Counter[str]" = Counter()
    for node in nodes:
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rpartition(".")[2] for alias in node.names)
    return out


def unreached() -> "dict[str, list[str]]":
    """Top-level definitions of ``src/repro`` no system path reaches,
    as ``{name: [module path, ...]}``."""
    modules = {
        path: ast.parse(path.read_text(), str(path))
        for tree in SYSTEM_TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
    }
    namers: "dict[str, set[Path]]" = {}
    for path, tree in modules.items():
        # An ``__init__`` module's top-level imports are re-exports.
        statements = [
            stmt for stmt in tree.body
            if path.name != "__init__.py"
            or not isinstance(stmt, ast.ImportFrom)
        ]
        for name in _named(n for stmt in statements for n in ast.walk(stmt)):
            namers.setdefault(name, set()).add(path)
    out: "dict[str, list[str]]" = {}
    for path, tree in modules.items():
        if not path.is_relative_to(ROOT / "src"):
            continue
        in_module = _named(ast.walk(tree))
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if namers.get(node.name, set()) - {path}:
                continue
            if in_module[node.name] > _named(ast.walk(node))[node.name]:
                continue
            out.setdefault(node.name, []).append(
                str(path.relative_to(ROOT))
            )
    return out


@pytest.fixture(scope="module")
def found() -> "dict[str, list[str]]":
    return unreached()


def test_every_definition_is_reached_or_kept(found):
    stray = {
        name: where for name, where in found.items() if name not in KEPT
    }
    assert not stray, (
        "defined in src/ but named by no system path; delete them with "
        f"their tests, or list them in KEPT with a reason: {stray}"
    )


def test_kept_names_are_unreached_and_have_a_reason(found):
    stale = sorted(name for name in KEPT if name not in found)
    assert not stale, (
        f"KEPT names that are reached or no longer defined: {stale}"
    )
    assert all(reason.strip() for reason in KEPT.values())
