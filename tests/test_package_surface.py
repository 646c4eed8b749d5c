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
:data:`MAX_SETTABLE`, and each of them must be set to another value
than its default by some system-path call outside its own body, unless
:data:`KEPT_PARAMS` lists it with its reason.  Calls are matched by
name: a call counts when it passes the parameter by keyword, by
position or through ``*args``/``**kwargs``, but not when it passes the
default's own text, nor when it forwards a parameter of the enclosing
function that is itself unset (the rule resolves such forwards to a
fixpoint; kept parameters count as set).  Dataclass fields are not
parameters here.

A fourth fails on an import that a module of ``src/repro`` (other than
an ``__init__``, whose imports are its exports) never uses, in its code
or in a string that parses as an expression (a string annotation or
type alias).  A fifth fails on a keyword that a system-path call passes
to a function, class or dataclass imported by name from ``repro`` (or
to a method of such a class, or a function of such a module) that the
callee does not accept; callees taking ``**kwargs`` are skipped.  It
catches a benchmark that still passes a deleted parameter without
running the benchmark.
"""

from __future__ import annotations

import ast
from collections import Counter
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import NamedTuple

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

#: Defaulted parameters no system-path call sets, kept on purpose:
#: ``"function(param)"`` (``"Class.method(param)"`` for a method,
#: ``"Class(param)"`` for ``__init__``) -> reason.
KEPT_PARAMS = {
    "main(argv)": "the test seam of both CLIs (python -m repro.serve and "
                  "the wizard): tests pass an argument list",
    "serve(quiet)": "a deployment's logging choice: quiet=False prints "
                    "wsgiref's per-request access line",
    "read_query(multi_valued)": "types the paper's §3 JDBC input: which "
                                "result columns hold value sets",
    "read_query(integer)": "types the paper's §3 JDBC input: which result "
                           "columns hold integer ids",
    "bootstrap_ci(seed)": "reproducible inference: the caller picks the "
                          "draws' seed",
    "randomization_test(seed)": "reproducible inference: the caller picks "
                                "the null draws' seed",
    "CubeService.children(sa)": "reached by name dispatch (the CLI's and "
                                "perfbench's getattr), which the call "
                                "scan cannot follow",
}

#: Most defaulted parameters (positional and keyword-only) the
#: functions and methods of ``src/repro`` may have together.
MAX_SETTABLE = 190


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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class _Def(NamedTuple):
    """A function or method of ``src/repro`` and its parameters."""

    name: str       # "function", "Class.method", "Class" for __init__
    called_as: str  # the name a call spells: "Class" for __init__
    node: ast.AST
    params: "list[tuple[str, ast.expr | None]]"  # (name, default)
    n_positional: int
    where: str


def _definitions(
    root: Path, modules: "Mapping[Path, ast.Module]"
) -> "list[_Def]":
    """Every function and method of the ``root/src`` modules; a method's
    ``self`` or ``cls`` is not one of its parameters."""
    out: "list[_Def]" = []

    def visit(node: ast.AST, prefix: str, cls: "ast.ClassDef | None",
              where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child, where)
                continue
            if not isinstance(child, _FUNCTIONS):
                visit(child, prefix, cls, where)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults))
            params = list(zip(
                (a.arg for a in positional), defaults + args.defaults
            ))
            if cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in child.decorator_list
            ):
                params = params[1:]
            n_positional = len(params)
            params += zip((a.arg for a in args.kwonlyargs), args.kw_defaults)
            init = cls is not None and child.name == "__init__"
            out.append(_Def(
                prefix[:-1] if init else prefix + child.name,
                cls.name if init else child.name,
                child, params, n_positional, where,
            ))
            visit(child, f"{prefix}{child.name}.", None, where)

    for path, tree in modules.items():
        if path.is_relative_to(root / "src"):
            visit(tree, "", None, str(path.relative_to(root)))
    return out


def unset_params(
    root: Path, kept: "Iterable[str]" = ()
) -> "dict[str, list[str]]":
    """Defaulted parameters of ``root/src`` that no system-path call
    under ``root`` sets, as ``"function(param)"`` with the paths that
    define them.

    A call sets a parameter of every definition it names (by name, as
    ``f(...)`` or ``obj.f(...)``; ``cls(...)`` names the enclosing
    class) outside that definition's own body, by keyword, by position,
    or through ``*args``/``**kwargs``.  Passing the default's own text
    does not set it.  Passing a parameter of the enclosing function
    forwards that one: it sets the callee's parameter only once the
    forwarded one is set, resolved to a fixpoint.  The ``kept`` names
    count as set.
    """
    modules = _modules(root)
    defs = _definitions(root, modules)
    by_call: "dict[str, list[_Def]]" = {}
    for d in defs:
        by_call.setdefault(d.called_as, []).append(d)
    owner = {id(d.node): d for d in defs}
    sources: "dict[tuple[int, str], list[object]]" = {}

    def source(value: ast.expr, default: ast.expr, stack) -> object:
        """True, the forwarded ``(definition, parameter)``, or None."""
        if ast.unparse(value) == ast.unparse(default):
            return None
        if isinstance(value, ast.Name):
            for fn in reversed(stack):
                if value.id not in {
                    a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)
                }:
                    continue
                d = owner.get(id(fn))
                if d is not None and dict(d.params).get(value.id) is not None:
                    return (id(fn), value.id)
                return True
        return True

    def visit(call: ast.Call, stack, classes) -> None:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None
        )
        if name == "cls" and classes:
            name = classes[-1].name
        for d in by_call.get(name, ()):
            if d.node in stack:
                continue
            passed: "list[tuple[str, ast.expr | None]]" = []
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    passed += [(p, None) for p, _ in
                               d.params[i:d.n_positional]]
                    break
                if i < d.n_positional:
                    passed.append((d.params[i][0], arg))
            for keyword in call.keywords:
                if keyword.arg is None:
                    passed += [(p, None) for p, _ in d.params]
                else:
                    passed.append((keyword.arg, keyword.value))
            defaults = dict(d.params)
            for param, value in passed:
                default = defaults.get(param)
                if default is None:
                    continue
                found = True if value is None else source(
                    value, default, stack
                )
                if found is not None:
                    sources.setdefault((id(d.node), param), []).append(found)

    def walk(node: ast.AST, stack, classes) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                visit(child, stack, classes)
            walk(
                child,
                stack + [child] if isinstance(child, _FUNCTIONS) else stack,
                classes + [child] if isinstance(child, ast.ClassDef)
                else classes,
            )

    for tree in modules.values():
        walk(tree, [], [])
    kept = set(kept)
    settled = {
        (id(d.node), p) for d in defs for p, _ in d.params
        if f"{d.name}({p})" in kept
    }
    while True:
        more = {
            key for key, found in sources.items() if key not in settled
            and any(s is True or s in settled for s in found)
        }
        if not more:
            break
        settled |= more
    out: "dict[str, list[str]]" = {}
    for d in defs:
        for param, default in d.params:
            if default is not None and (id(d.node), param) not in settled:
                out.setdefault(f"{d.name}({param})", []).append(d.where)
    return out


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if getattr(target, "id", getattr(target, "attr", None)) \
                == "dataclass":
            return True
    return False


def _accepted(node: ast.AST) -> "set[str] | None":
    """The keywords a call of ``node`` may pass; None when it takes
    ``**kwargs`` or its signature is not in its own body."""
    if isinstance(node, _FUNCTIONS):
        if node.args.kwarg is not None:
            return None
        return {a.arg for a in node.args.args + node.args.kwonlyargs}
    init = next((s for s in node.body
                 if isinstance(s, _FUNCTIONS) and s.name == "__init__"),
                None)
    if init is not None:
        return _accepted(init)
    if _is_dataclass(node) and not node.bases:
        return {
            s.target.id for s in node.body if isinstance(s, ast.AnnAssign)
            and isinstance(s.target, ast.Name)
        }
    return None


def unknown_keywords(root: Path) -> "list[str]":
    """Keywords that system-path calls under ``root`` pass to a function,
    class or dataclass imported by name from ``repro`` (or to a method
    of such a class, or a function of such a module) and that the
    callee does not accept, as ``"path:line callee(keyword=)"``."""
    modules = _modules(root)
    src = {}
    for path, tree in modules.items():
        if path.is_relative_to(root / "src"):
            parts = path.relative_to(root / "src").with_suffix("").parts
            src[".".join(parts[:-1] if parts[-1] == "__init__"
                         else parts)] = tree

    def resolve(module: str, name: str) -> "ast.AST | str | None":
        if f"{module}.{name}" in src:
            return f"{module}.{name}"
        for stmt in src.get(module, ast.Module(body=[])).body:
            if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)) \
                    and stmt.name == name:
                return stmt
            if isinstance(stmt, ast.ImportFrom) and stmt.module \
                    and stmt.module.startswith("repro") and any(
                        (a.asname or a.name) == name for a in stmt.names):
                alias = next(a for a in stmt.names
                             if (a.asname or a.name) == name)
                return resolve(stmt.module, alias.name)
        return None

    out: "list[str]" = []
    for path, tree in modules.items():
        imported: "dict[str, ast.AST | str]" = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                for alias in node.names:
                    target = resolve(node.module, alias.name)
                    if target is not None:
                        imported[alias.asname or alias.name] = target
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or not call.keywords:
                continue
            func, callee = call.func, None
            if isinstance(func, ast.Name):
                callee = imported.get(func.id)
            elif isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name):
                owner = imported.get(func.value.id)
                if isinstance(owner, str):
                    callee = resolve(owner, func.attr)
                elif isinstance(owner, ast.ClassDef):
                    callee = next(
                        (s for s in owner.body if isinstance(s, _FUNCTIONS)
                         and s.name == func.attr), None,
                    )
            if callee is None or isinstance(callee, str):
                continue
            accepted = _accepted(callee)
            if accepted is None:
                continue
            out += [
                f"{path.relative_to(root)}:{call.lineno} "
                f"{ast.unparse(func)}({keyword.arg}=)"
                for keyword in call.keywords
                if keyword.arg is not None and keyword.arg not in accepted
            ]
    return sorted(out)


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


def test_every_defaulted_parameter_is_set_or_kept():
    unset = unset_params(ROOT, KEPT_PARAMS)
    assert not unset, (
        "defaulted parameters no system path sets to another value than "
        "their default; delete them and the code path they select, or "
        f"list them in KEPT_PARAMS with a reason: {unset}"
    )


def test_kept_params_are_unset_and_have_a_reason():
    assert len(KEPT_PARAMS) <= 15
    assert not stale(unset_params(ROOT), KEPT_PARAMS), (
        "KEPT_PARAMS entries that a system path sets or that are no "
        f"longer defined: {stale(unset_params(ROOT), KEPT_PARAMS)}"
    )
    assert all(reason.strip() for reason in KEPT_PARAMS.values())


def test_every_keyword_names_a_parameter():
    unknown = unknown_keywords(ROOT)
    assert not unknown, (
        f"keywords the callee does not accept (it fails when run): "
        f"{unknown}"
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


PLANTED_PARAMS = '''
from dataclasses import dataclass


def target(a, by_keyword=1, by_position=2, by_default=3, forwarded=4,
           unset=5):
    return target(a, unset=0) if a else a


def forward(x, forwarded=None):
    return target(x, forwarded=forwarded)


def spread(a, by_kwargs=6):
    return a


@dataclass
class Record:
    name: str
    size: int = 0


class Box:
    def __init__(self, width=1):
        self.width = width

    @classmethod
    def square(cls, side=1):
        return cls(width=side)
'''

PLANTED_PARAM_CALLER = '''
from repro.mod import Box, Record, forward, spread, target
from repro import mod

target(0, by_keyword=9)
target(0, 1, 7)
target(0, by_default=3)
forward(0)
spread(0, **{"by_kwargs": 1})
Record("r", size=2, colour="red")
Box.square(side=2, depth=1)
mod.target(0, missing=1)
'''


def test_parameter_rule_on_a_planted_tree(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(PLANTED_PARAMS)
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "run.py").write_text(PLANTED_PARAM_CALLER)

    # A keyword, a position, ``**kwargs`` and ``cls(...)`` set a
    # parameter; the default's own text, a call in the definition's own
    # body and a forward of an unset parameter do not.
    unset = unset_params(tmp_path)
    assert set(unset) == {
        "target(by_default)", "target(forwarded)", "target(unset)",
        "forward(forwarded)",
    }
    assert unset["target(unset)"] == ["src/repro/mod.py"]
    # A kept parameter counts as set, so its forward does too.
    assert set(unset_params(tmp_path, ["forward(forwarded)"])) == {
        "target(by_default)", "target(unset)",
    }
    kept = {"target(unset)": "why", "target(by_keyword)": "why",
            "target(gone)": "why"}
    assert stale(unset, kept) == ["target(by_keyword)", "target(gone)"]

    assert unknown_keywords(tmp_path) == [
        "examples/run.py:10 Record(colour=)",
        "examples/run.py:11 Box.square(depth=)",
        "examples/run.py:12 mod.target(missing=)",
    ]
