"""Guard on where staged edits are made, committed, dropped and flushed:
in ``src/autoform`` only the kernel and the two stages call ``.stage(``,
and only the kernel (``Snapshot.restore``) calls ``.restage(``;
only the kernel's item transaction and the ``split`` command call
``.commit(``, so an edit lands once per item; only the kernel (the item
transaction and ``Snapshot.restore``) and the two stages (stage 1's
``restored_failed`` item, stage 2's failed split) call ``.discard(``; only
``verifier.py`` calls ``.sync(`` (the adapter whose tool reads the
disk). No module analyses the text of a project file itself, through
``analyse`` or its ``count_holes`` and ``parse_file`` views:
``Project.analysis`` is the one path, so each content is analysed once.
Only ``verifier.py`` (``Project.analysis``), ``simlang.py`` (its own
views) and ``kernel.py`` (the objective of an absent file in
``try_patch``) call ``analyse(``, and only ``scripted.py`` (the repair
operator's read of one declaration) calls ``parse_file(``.
Only ``simlang.py`` calls ``interpret_body(``: a body's term is read with
its declaration, into the analysis, so no checker or stage interprets
bodies again on every call. Only ``instrumentation.py`` calls
``_write_line(``: every metrics line passes through that one write
point, which the kill harness of ``test_fault_injection.py``
silences once a fault fires. Exactly one function, ``Project``'s one disk
read, calls ``_read_file(``: every first read, ``exists``,
``committed_bytes`` and ``reload_bytes`` go through it, so the record of
what the disk holds is filled in one place."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "autoform"

CALLERS = {
    "stage": {"kernel.py", "stage1.py", "stage2.py"},
    "restage": {"kernel.py"},
    "commit": {"kernel.py", "cli.py"},
    "discard": {"kernel.py", "stage1.py", "stage2.py"},
    "sync": {"verifier.py"},
    "analyse": {"verifier.py", "simlang.py", "kernel.py"},
    "parse_file": {"scripted.py"},
    "interpret_body": {"simlang.py"},
    "_write_line": {"instrumentation.py"},
    "_read_file": {"verifier.py"},
}


def called_name(call: ast.Call) -> str | None:
    """``name`` for a call ``<expr>.name(...)`` or ``name(...)``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def files_calling(name: str) -> set[str]:
    """Names of the package's modules holding a call ``<expr>.<name>(...)``
    or ``<name>(...)``."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and called_name(node) == name:
                found.add(path.name)
    return found


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_only_its_owner_calls(name):
    assert files_calling(name) == CALLERS[name]


def test_one_function_reads_project_files():
    tree = ast.parse((PACKAGE / "verifier.py").read_text(encoding="utf-8"))
    readers = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and called_name(node) == "_read_file"
    }
    assert readers == {"_read"}


def read_into(scope: ast.AST) -> set[str]:
    """Names that ``scope`` assigns from an expression holding a
    ``<expr>.read(...)`` call, as in ``text = project.read(f)``."""
    names = set()
    for node in ast.walk(scope):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if any(
                isinstance(n, ast.Call) and called_name(n) == "read" for n in ast.walk(node.value)
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


ANALYSIS_VIEWS = {"analyse", "count_holes", "parse_file"}


def analysed_reads(tree: ast.AST) -> set[int]:
    """Lines of ``analyse``, ``count_holes`` or ``parse_file`` calls (bare or
    as ``simlang.<name>``) on ``<expr>.read(...)``, or on a name that the
    same function assigns from such a read."""
    found = set()
    functions = [
        n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in [tree, *functions]:
        read = read_into(scope) if scope is not tree else set()
        for node in ast.walk(scope):
            call = isinstance(node, ast.Call) and called_name(node) in ANALYSIS_VIEWS
            if not (call and node.args):
                continue
            arg = node.args[0]
            if (isinstance(arg, ast.Call) and called_name(arg) == "read") or (
                isinstance(arg, ast.Name) and arg.id in read
            ):
                found.add(node.lineno)
    return found


def test_project_files_are_analysed_through_the_project():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in sorted(analysed_reads(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert found == []


def test_the_analysis_guard_sees_both_forms_and_spares_text_callers():
    source = (
        "def direct(project):\n"
        "    parse_file(project.read('A.lean'))\n"
        "    return simlang.analyse(project.read('A.lean'))\n"
        "def through_a_name(project):\n"
        "    text = project.read('A.lean') if project.exists('A.lean') else ''\n"
        "    simlang.count_holes(text)\n"
        "    return analyse(text)\n"
        "def given_text(text):\n"
        "    return simlang.analyse(text)\n"
    )
    assert analysed_reads(ast.parse(source)) == {2, 3, 6, 7}
