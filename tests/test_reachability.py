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

A second scan finds defaulted parameters that only the tests set.  A call in
``src/verba`` or in perfbench's non-test modules sets a parameter by keyword
or by position, a method's positions being shifted by ``self``.  Calls resolve
through the same imports and ``as`` aliases; a call ``obj.name(...)`` on
anything but a package module may be any method called ``name``, and a call
with ``*args`` or ``**kwargs`` sets every parameter, so again the scan can
miss a parameter no caller sets but does not report one that a caller sets.

A check keeps multiplication in one place: no subclass of
``finite.FiniteGroup`` defines ``mul`` or ``_build_table``.  A last one keeps
the environment variables the package reads to those the README's
"Environment and exit codes" table lists.
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

#: ``cli.main(argv)`` is how the tests run the command line in-process.
TEST_HOOKS = {"cli.main(argv)"}


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
        self.callers = dict(self.trees)
        for path in sorted(BENCH.rglob("*.py")):
            if not path.name.startswith("test_"):
                tree = _parse(path)
                self.callers[str(path)] = tree
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

    def _callees(self, stem: str, func: ast.expr, methods: list[str]) -> list[tuple[str, int]]:
        """Signature keys a call of ``func`` may reach, with the number of
        leading parameters that the call binds implicitly (``self``)."""
        key = None
        if isinstance(func, ast.Name):
            key = self.resolve(stem, func.id)
        elif isinstance(func, ast.Attribute):
            bound = isinstance(func.value, ast.Name) and self.bindings[stem].get(func.value.id)
            if not (bound and bound[0] == "module"):
                return [(k, 1) for k in methods if k.rsplit(".", 1)[-1] == func.attr]
            key = self.resolve(bound[1], func.attr)
        if key is None:
            return []
        if isinstance(self.defs[key[0]][key[1]], ast.ClassDef):
            return [(f"{key[0]}.{key[1]}.__init__", 1)]
        return [(f"{key[0]}.{key[1]}", 0)]

    def signatures(self) -> dict[str, ast.arguments]:
        """Every top-level function and method, by ``stem.name`` or ``stem.Class.name``."""
        out = {}
        for stem, defs in self.defs.items():
            for name, stmt in defs.items():
                if isinstance(stmt, ast.ClassDef):
                    for sub in stmt.body:
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            out[f"{stem}.{name}.{sub.name}"] = sub.args
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out[f"{stem}.{name}"] = stmt.args
        return out

    def unset_defaults(self) -> list[str]:
        """``stem.function(parameter)`` for each defaulted parameter that no
        call outside the tests sets."""
        signatures = self.signatures()
        methods = [key for key in signatures if key.count(".") == 2]
        unset = {}
        for key, args in signatures.items():
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if defaulted:
                unset[key] = {a.arg for a in defaulted}
        for stem, tree in self.callers.items():
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                spread = any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords
                )
                for key, offset in self._callees(stem, call.func, methods):
                    if key not in unset:
                        continue
                    args = signatures[key]
                    positional = args.posonlyargs + args.args
                    named = positional[offset : offset + len(call.args)]
                    if spread:
                        unset[key].clear()
                    unset[key] -= {a.arg for a in named} | {k.arg for k in call.keywords}
        return sorted(f"{key}({name})" for key, names in unset.items() for name in names)

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


def _backend_methods(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Method names of every class in ``trees`` derived from ``FiniteGroup``,
    directly or through another class of the package."""
    classes = [node for tree in trees.values() for node in tree.body]
    classes = [node for node in classes if isinstance(node, ast.ClassDef)]
    derived = {"FiniteGroup"}
    while True:
        grown = derived | {
            node.name
            for node in classes
            if any(getattr(b, "id", getattr(b, "attr", None)) in derived for b in node.bases)
        }
        if grown == derived:
            break
        derived = grown
    return {
        node.name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        for node in classes
        if node.name in derived - {"FiniteGroup"}
    }


@pytest.fixture(scope="module")
def scan() -> _Scan:
    return _Scan()


def test_every_top_level_definition_is_reached(scan):
    unreached = scan.unreached()
    assert not unreached, "reached by no entry point:\n" + "\n".join(unreached)


def test_every_import_is_used(scan):
    unused = scan.unused_imports()
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_every_defaulted_parameter_is_set_outside_the_tests(scan):
    unset = [entry for entry in scan.unset_defaults() if entry not in TEST_HOOKS]
    assert not unset, "defaulted parameters that only the tests set:\n" + "\n".join(unset)


def test_the_defaults_scan_counts_positions_keywords_self_and_aliases():
    probe = _Scan()
    source = (
        "def _probe(a, b=1, *, c=2):\n    return a\n"
        "class _Probe:\n"
        "    def __init__(self, d=3):\n        self.d = d\n"
        "    def step(self, e=4, f=5):\n        return e\n"
    )
    probe.defs["words"].update({stmt.name: stmt for stmt in ast.parse(source).body})
    probe.callers = {}
    new = {"words._probe(b)", "words._probe(c)", "words._Probe.__init__(d)"}
    new |= {"words._Probe.step(e)", "words._Probe.step(f)"}
    assert new <= set(probe.unset_defaults())
    # a position after self, a keyword, and a call through an alias
    calls = (
        "from .words import _Probe, _probe, _probe as _p\n"
        "_Probe(7).step(8)\n_probe(0, c=9)\n_p(0, 1)\n"
    )
    probe.callers["finite"] = ast.parse(calls)
    probe.bindings["finite"] = _bindings(probe.callers["finite"], set(probe.trees))
    assert new & set(probe.unset_defaults()) == {"words._Probe.step(f)"}


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


def test_finite_backends_keep_one_product_and_leave_mul_and_tables_to_the_base(scan):
    # FiniteGroup.mul alone chooses between a table and _product, and
    # FiniteGroup._build_table alone builds tables, from generator rows.
    methods = _backend_methods(scan.trees)
    assert {"PermutationGroup", "SL2Group", "TableGroup"} <= set(methods)
    base_only = {"mul", "_build_table"}
    forks = sorted(f"{cls}.{name}" for cls, names in methods.items() for name in names & base_only)
    assert not forks, "FiniteGroup subclasses override the base: " + ", ".join(forks)
    assert "_product" in methods["PermutationGroup"] & methods["SL2Group"]


def _environment_reads(tree: ast.Module) -> set[str]:
    """The variables ``os.environ[...]``, ``os.environ.get(...)`` and
    ``os.getenv(...)`` read in ``tree``; a key that is not a string literal
    reads as ``?``."""
    def is_os(node, attr):
        return (
            isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "os"
        )

    keys = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_os(node.value, "environ"):
            keys.append(node.slice)
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            if is_os(func, "getenv") or (
                isinstance(func, ast.Attribute) and func.attr == "get" and is_os(func.value, "environ")
            ):
                keys.append(node.args[0])
    return {k.value if isinstance(k, ast.Constant) and isinstance(k.value, str) else "?" for k in keys}


def test_every_environment_variable_read_is_in_the_readme_table(scan):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Environment and exit codes", 1)[1].split("\n## ", 1)[0]
    listed = {line.split("`")[1] for line in section.splitlines() if line.startswith("| `")}
    read = set().union(*map(_environment_reads, scan.trees.values()))
    assert read == listed == {"VERBA_CACHE_DIR"}
    probe = ast.parse('os.environ["A"]\nos.environ.get("B", "")\nos.getenv(name)\n')
    assert _environment_reads(probe) == {"A", "B", "?"}
