"""Guard against dead code: every top-level function and class, and every
non-dunder method, defined in ``src/autoform`` is referenced by name
somewhere in ``src/`` or ``tests/`` outside its own definition."""

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


def unreferenced_definitions() -> list[str]:
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    used: Counter = Counter()
    for tree in trees.values():
        used += _references(tree)
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(trees[path]):
            if used[node.name] - _references(node)[node.name] <= 0:
                dead.append(f"{path.relative_to(ROOT).as_posix()}:{node.lineno} {node.name}")
    return dead


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == []
