"""Guard against dead code: every top-level function and class, every
non-dunder method and every non-dunder module-level name assigned in
``src/autoform`` is referenced by name somewhere in the program outside its
own definition or assignment. The program is ``src/`` and the benchmark
harness in ``perfbench/``, without its tests: a definition that only tests
call is dead too, and fails the guard with its ``file:line name``."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "autoform"

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node: ast.AST) -> Counter:
    """Names used in ``node``: loaded or stored names, attribute names and
    imported names."""
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rsplit(".", 1)[-1]] += 1
            if sub.asname:
                names[sub.asname] += 1
    return names


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned(node: ast.stmt) -> list[str]:
    """The names a top-level assignment binds, unpacked targets included."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [
        sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)
    ]


def _definitions(tree: ast.Module):
    """(name, statement) for the top-level functions and classes, the
    non-dunder methods of those classes and the non-dunder names that
    top-level assignments bind."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            yield from ((name, node) for name in _assigned(node) if not _dunder(name))
        if not isinstance(node, _DEFINITIONS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFINITIONS) and not _dunder(member.name):
                    yield member.name, member


def unreferenced(package: dict[str, str], callers: list[str]) -> list[str]:
    """``name:line definition`` for each definition in the ``package``
    sources (module name -> source) that neither a package source nor a
    ``callers`` source references outside the definition itself."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    used: Counter = Counter()
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        used += _references(tree)
    return [
        f"{module}:{node.lineno} {name}"
        for module, tree in sorted(trees.items())
        for name, node in _definitions(tree)
        if used[name] - _references(node)[name] <= 0
    ]


def program_callers() -> list[str]:
    """The sources outside the package that count as callers: the rest of
    ``src/`` and the harness modules of ``perfbench/``, not its tests."""
    paths = [p for p in (ROOT / "src").rglob("*.py") if p.parent != PACKAGE]
    paths += [
        p
        for p in (ROOT / "perfbench").glob("*.py")
        if not p.name.startswith("test_") and p.name != "conftest.py"
    ]
    return [p.read_text(encoding="utf-8") for p in sorted(paths)]


def test_every_definition_is_referenced():
    package = {
        f"src/autoform/{p.name}": p.read_text(encoding="utf-8")
        for p in sorted(PACKAGE.glob("*.py"))
    }
    assert unreferenced(package, program_callers()) == []


def test_the_guard_flags_a_definition_only_tests_call():
    package = {
        "lib.py": (
            "def used():\n"
            "    return helper()\n"
            "def helper():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "def test_only():\n"
            "    return 2\n"
            "class Box:\n"
            "    def kept(self):\n"
            "        return 3\n"
            "    def dropped(self):\n"
            "        return 4\n"
            "READ = 5\n"
            "TEST_ONLY_RE, (PAIRED, _) = 6, (7, 8)\n"
            "ANNOTATED: int = 9\n"
            "LOOP = lambda: LOOP\n"
            "__version__ = '1'\n"
        )
    }
    program = ["from lib import used, recursive, Box, READ, PAIRED\nBox().kept()\n"]
    tests = [
        "from lib import test_only, TEST_ONLY_RE, _, ANNOTATED, LOOP\n"
        "assert test_only() == 2\nBox().dropped()\n"
    ]
    assert unreferenced(package, program) == [
        "lib.py:7 test_only",
        "lib.py:12 dropped",
        "lib.py:15 TEST_ONLY_RE",
        "lib.py:15 _",
        "lib.py:16 ANNOTATED",
        "lib.py:17 LOOP",
    ]
    assert unreferenced(package, program + tests) == []
