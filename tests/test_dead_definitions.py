"""Guard against dead code: every top-level function and class, and every
non-dunder method, defined in ``src/autoform`` is referenced by name
somewhere in the program outside its own definition. The program is
``src/`` and the benchmark harness in ``perfbench/``, without its tests:
a definition that only tests call is dead too, and fails the guard with
its ``file:line name``."""

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


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of those
    classes."""
    for node in tree.body:
        if not isinstance(node, _DEFINITIONS):
            continue
        yield node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFINITIONS) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield member


def unreferenced(package: dict[str, str], callers: list[str]) -> list[str]:
    """``name:line definition`` for each definition in the ``package``
    sources (module name -> source) that neither a package source nor a
    ``callers`` source references outside the definition itself."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    used: Counter = Counter()
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        used += _references(tree)
    return [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in sorted(trees.items())
        for node in _definitions(tree)
        if used[node.name] - _references(node)[node.name] <= 0
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
        )
    }
    program = ["from lib import used, recursive, Box\nBox().kept()\n"]
    tests = ["from lib import test_only\nassert test_only() == 2\nBox().dropped()\n"]
    assert unreferenced(package, program) == [
        "lib.py:7 test_only",
        "lib.py:12 dropped",
    ]
    assert unreferenced(package, program + tests) == []
