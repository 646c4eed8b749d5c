"""The package ships only what a system path reaches.

A system path is the package itself, the examples, the benchmarks and
perfbench; tests are not one.  Two rules, over every module of
``src/repro``:

* a top-level function or class must be named by another module of
  those trees (as a name, an attribute or an import) or used by its own
  module;
* a method (any non-dunder function in a class body) must be named by
  a module of those trees outside its own body, as an attribute or as
  a string constant: the CLI and perfbench's proxies dispatch by name,
  with ``getattr``.

An ``__init__`` module's re-exports (its top-level imports and its
``__all__``) do not count.  A definition that no system path reaches but
that stays on purpose is listed in :data:`KEPT` with its reason, a
method as ``Class.method``; a listed name that becomes reached, or is no
longer defined, fails too, so the list cannot go stale.

A third check ratchets the package's settable values: the defaulted
parameters of its functions and methods may not grow past
:data:`MAX_SETTABLE`.  A fourth fails on an import that a module of
``src/repro`` (other than an ``__init__``, whose imports are its
exports) never uses, in its code or in a string that parses as an
expression (a string annotation or type alias).
"""

from __future__ import annotations

import ast
from collections import Counter
from collections.abc import Iterable, Mapping
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
    "_QuietHandler.log_message": "overrides the wsgiref handler method "
                                 "the server calls for every request",
    "BipartiteGraph.membership_arrays": "the one read of a bipartite "
                                        "graph's edges the set "
                                        "references of E22 use",
}

#: Most defaulted parameters (positional and keyword-only) the
#: functions and methods of ``src/repro`` may have together.
MAX_SETTABLE = 255


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


def _called(nodes: Iterable[ast.AST]) -> "Counter[str]":
    """How often each attribute and each string constant occurs in
    ``nodes``: the ways a method can be reached."""
    out: "Counter[str]" = Counter()
    for node in nodes:
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _is_reexport(path: Path, stmt: ast.stmt) -> bool:
    """An ``__init__`` module's top-level import or ``__all__``."""
    if path.name != "__init__.py":
        return False
    if isinstance(stmt, ast.ImportFrom):
        return True
    return isinstance(stmt, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in stmt.targets
    )


def _modules(root: Path) -> "dict[Path, ast.Module]":
    return {
        path: ast.parse(path.read_text(), str(path))
        for tree in SYSTEM_TREES
        for path in sorted((root / tree).rglob("*.py"))
    }


def unreached(root: Path) -> "dict[str, list[str]]":
    """Definitions of ``root/src`` no system path under ``root``
    reaches: top-level ones as ``name``, methods as ``Class.method``,
    each with the module paths that define it."""
    modules = _modules(root)
    namers: "dict[str, set[Path]]" = {}
    callers: "Counter[str]" = Counter()
    for path, tree in modules.items():
        nodes = [
            node for stmt in tree.body if not _is_reexport(path, stmt)
            for node in ast.walk(stmt)
        ]
        for name in _named(nodes):
            namers.setdefault(name, set()).add(path)
        callers.update(_called(nodes))
    out: "dict[str, list[str]]" = {}
    for path, tree in modules.items():
        if not path.is_relative_to(root / "src"):
            continue
        where = str(path.relative_to(root))
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
            out.setdefault(node.name, []).append(where)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) or (
                    method.name.startswith("__")
                    and method.name.endswith("__")
                ):
                    continue
                own = _called(ast.walk(method))[method.name]
                if callers[method.name] > own:
                    continue
                out.setdefault(f"{cls.name}.{method.name}", []).append(where)
    return out


def stale(found: Mapping[str, object], kept: Mapping[str, str]) -> list[str]:
    """``kept`` entries that are reached or no longer defined."""
    return sorted(name for name in kept if name not in found)


def settable_values(root: Path) -> int:
    """Defaulted parameters of every function and method of
    ``root/src``."""
    return sum(
        len(node.args.defaults)
        + sum(default is not None for default in node.args.kw_defaults)
        for path in (root / "src").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )


def _string_names(tree: ast.AST) -> "set[str]":
    """Names used inside the strings of ``tree`` that parse as an
    expression: string annotations and string type aliases."""
    names: "set[str]" = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            names.update(
                name.id for name in ast.walk(expression)
                if isinstance(name, ast.Name)
            )
    return names


def unused_imports(root: Path) -> "dict[str, list[str]]":
    """Names each non-``__init__`` module of ``root/src`` imports but
    never uses, in its code or in a string annotation or type alias."""
    out: "dict[str, list[str]]" = {}
    for path in sorted((root / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"
            )
            for alias in node.names
        }
        used = _string_names(tree) | {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        if imported - used:
            out[str(path.relative_to(root))] = sorted(imported - used)
    return out


@pytest.fixture(scope="module")
def found() -> "dict[str, list[str]]":
    return unreached(ROOT)


def test_every_definition_is_reached_or_kept(found):
    stray = {
        name: where for name, where in found.items() if name not in KEPT
    }
    assert not stray, (
        "defined in src/ but named by no system path; delete them with "
        f"their tests, or list them in KEPT with a reason: {stray}"
    )


def test_kept_names_are_unreached_and_have_a_reason(found):
    assert not stale(found, KEPT), (
        f"KEPT names that are reached or no longer defined: "
        f"{stale(found, KEPT)}"
    )
    assert all(reason.strip() for reason in KEPT.values())


def test_settable_values_do_not_grow():
    count = settable_values(ROOT)
    assert count <= MAX_SETTABLE, (
        f"src/ has {count} defaulted parameters, more than MAX_SETTABLE="
        f"{MAX_SETTABLE}. A new option needs two system callers that "
        "need different values; a change that raises MAX_SETTABLE says "
        "why in CHANGES.md."
    )


def test_every_import_is_used():
    unused = unused_imports(ROOT)
    assert not unused, f"imported and never used; delete them: {unused}"


PLANTED_MODULE = '''
import json
import os.path
from collections.abc import Mapping


class Store:
    def reached(self, key="k"):
        return os.path.basename(key)

    def recursive(self, n):
        return self.recursive(n - 1) if n else 0

    def by_name(self) -> "Mapping[str, int]":
        return {"one": 1}

    def kept(self):
        return 2


def used():
    return Store()
'''

PLANTED_CALLER = '''
from repro.mod import used

store = used()
store.reached()
getattr(store, "by_name")()
'''


def test_guard_rules_on_a_planted_tree(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.mod import Store\n__all__ = ['Store', 'kept']\n"
    )
    (package / "mod.py").write_text(PLANTED_MODULE)
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "run.py").write_text(PLANTED_CALLER)

    found = unreached(tmp_path)
    # Store is used by its own module; ``kept`` is named only by a
    # re-export list, ``recursive`` only inside its own body.
    assert set(found) == {"Store.recursive", "Store.kept"}
    assert found["Store.recursive"] == ["src/repro/mod.py"]
    kept = {"Store.kept": "why", "Store.reached": "why", "Store.gone": "why"}
    assert stale(found, kept) == ["Store.gone", "Store.reached"]
    assert settable_values(tmp_path) == 1
    # ``json`` is imported and never used; ``os`` is used in code and
    # ``Mapping`` only in a string annotation; the ``__init__``'s import
    # is an export.
    assert unused_imports(tmp_path) == {"src/repro/mod.py": ["json"]}
