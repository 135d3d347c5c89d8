"""Static guard: every top-level definition in ``src/verba`` is reached from an
entry point, and every import a module makes is used.

The scan reads the source with ``ast``; of the package it only imports
``verba.__all__``.  Its roots are

* ``cli.main``;
* the names in ``verba.__all__``;
* functions decorated with a decorator defined in the package (the
  experiments registered with ``experiments.register``);
* every other module-level statement, such as the ``__main__`` guard (an
  import reaches nothing until a name it binds is used);
* every package name that perfbench's non-test modules import or read as an
  attribute of an imported package module.

A definition is a top-level ``def``, ``class`` or assignment to plain names
(dunder names excepted).  Reaching one reaches every name its source loads,
resolved through the module's own definitions and its imports, ``as``
aliases and package re-exports included.  Reaching a class reaches all of its
methods.  Local names that shadow a top-level one count as uses of it, so the
scan can miss dead code but does not report live code.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import verba

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "verba"
BENCH = ROOT / "perfbench"
PACKAGE = "__init__"

Key = tuple[str, str]  # (module stem, top-level name)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The names ``stmt`` defines at module level, or ``[]`` when it is a root."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Assign):
        targets = stmt.targets
    else:
        return []
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    if len(names) != len(targets) or any(n.startswith("__") for n in names):
        return []
    return names


def _bindings(tree: ast.Module, stems: set[str]) -> dict[str, tuple]:
    """Local name -> ``("module", stem)`` or ``("name", stem, name)`` for every
    package import anywhere in ``tree``, nested imports included."""
    out: dict[str, tuple] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module or ""
            elif node.level == 0 and (node.module or "").split(".")[0] == "verba":
                source = node.module[len("verba.") :]
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if not source and alias.name in stems:
                    out[local] = ("module", alias.name)
                else:
                    out[local] = ("name", source or PACKAGE, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "verba" and len(parts) == 2 and alias.asname:
                    out[alias.asname] = ("module", parts[1])
    return out


class _Scan:
    def __init__(self) -> None:
        self.trees = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
        stems = set(self.trees)
        self.bindings = {stem: _bindings(tree, stems) for stem, tree in self.trees.items()}
        # a later definition of a name replaces an earlier one, as at run time
        self.defs: dict[str, dict[str, ast.stmt]] = {
            stem: {name: stmt for stmt in tree.body for name in _defined_names(stmt)}
            for stem, tree in self.trees.items()
        }
        self.roots = [("cli", "main")] + [self.resolve(PACKAGE, name) for name in verba.__all__]
        for stem, tree in self.trees.items():
            for stmt in tree.body:
                if not _defined_names(stmt):
                    self.roots += self._loads(stem, stmt)
                for deco in getattr(stmt, "decorator_list", ()):
                    if self._loads(stem, deco.func if isinstance(deco, ast.Call) else deco):
                        self.roots.append((stem, stmt.name))
        for path in sorted(BENCH.rglob("*.py")):
            if not path.name.startswith("test_"):
                tree = _parse(path)
                self.bindings[str(path)] = _bindings(tree, stems)
                self.roots += self._loads(str(path), tree)

    def resolve(self, stem: str, name: str, depth: int = 0) -> Key | None:
        if name in self.defs.get(stem, {}):
            return (stem, name)
        bound = self.bindings[stem].get(name)
        if bound and bound[0] == "name" and depth < 8:
            return self.resolve(bound[1], bound[2], depth + 1)
        return None

    def _loads(self, stem: str, node: ast.AST) -> list[Key]:
        """Definitions that the names loaded inside ``node`` refer to."""
        out = []
        for sub in ast.walk(node):
            key = None
            if isinstance(sub, ast.Name):
                key = self.resolve(stem, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                bound = self.bindings[stem].get(sub.value.id)
                if bound and bound[0] == "module":
                    key = self.resolve(bound[1], sub.attr)
            if key is not None:
                out.append(key)
        return out

    def reached(self) -> set[Key]:
        seen: set[Key] = set()
        todo = [key for key in self.roots if key is not None]
        while todo:
            key = todo.pop()
            if key in seen:
                continue
            seen.add(key)
            stem, name = key
            todo += self._loads(stem, self.defs[stem][name])
        return seen

    def unreached(self) -> list[str]:
        reached = self.reached()
        return [
            f"{stem}.py:{stmt.lineno} {name}"
            for stem, defs in self.defs.items()
            for name, stmt in defs.items()
            if (stem, name) not in reached
        ]

    def unused_imports(self) -> list[str]:
        out = []
        for stem, tree in self.trees.items():
            if stem == PACKAGE:
                continue
            loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        if local not in loaded:
                            out.append(f"{stem}.py:{node.lineno} {local}")
        return out


@pytest.fixture(scope="module")
def scan() -> _Scan:
    return _Scan()


def test_every_top_level_definition_is_reached(scan):
    unreached = scan.unreached()
    assert not unreached, "reached by no entry point:\n" + "\n".join(unreached)


def test_every_import_is_used(scan):
    unused = scan.unused_imports()
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_the_scan_resolves_aliases_and_reports_a_dead_definition():
    probe = _Scan()
    reached = probe.reached()
    assert ("words", "Word") in reached  # through verba.__all__
    assert ("experiments", "_magnus_depth_table") in reached  # registered experiment
    assert probe.resolve(PACKAGE, "gamma_word") == ("templates", "gamma_word")
    probe.defs["words"]["_probe"] = ast.parse("def _probe():\n    return gen(1)\n").body[0]
    probe.trees["words"].body.append(ast.parse("import itertools as _unused").body[0])
    assert "words.py:1 _probe" in probe.unreached()
    assert "words.py:1 _unused" in probe.unused_imports()
