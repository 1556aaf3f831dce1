"""Guard on where staged edits are made, committed, dropped and flushed:
in ``src/autoform`` only the kernel and the two stages call ``.stage(``;
only the kernel's item transaction and the ``split`` command call
``.commit(``, so an edit lands once per item; only the kernel (the item
transaction and ``Snapshot.restore``) and the two stages (stage 1's
``restored_failed`` item, stage 2's failed split) call ``.discard(``; only
``verifier.py`` calls ``.sync(`` (the adapter whose tool reads the
disk)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "autoform"

CALLERS = {
    "stage": {"kernel.py", "stage1.py", "stage2.py"},
    "commit": {"kernel.py", "cli.py"},
    "discard": {"kernel.py", "stage1.py", "stage2.py"},
    "sync": {"verifier.py"},
}


def files_calling(name: str) -> set[str]:
    """Names of the package's modules holding a call ``<expr>.<name>(...)``
    or ``<name>(...)``."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == name) or (
                isinstance(func, ast.Name) and func.id == name
            ):
                found.add(path.name)
    return found


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_only_its_owner_calls(name):
    assert files_calling(name) == CALLERS[name]

