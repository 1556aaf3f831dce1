"""Guard on regular-expression syntax the oldest supported Python rejects:
possessive quantifiers (``*+``, ``++``, ``?+``, ``}+``) and atomic groups
(``(?>``) compile only from Python 3.11. A pattern in ``src/autoform``
that uses them raises ``re.error`` when its module is imported on an older
interpreter, so the guard reads every pattern passed to a ``re`` function
while ``pyproject.toml`` still admits such an interpreter."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "autoform"
RE_FUNCTIONS = {
    "compile", "match", "fullmatch", "search", "sub", "subn", "split", "findall", "finditer"
}
# a quantifier followed by "+" that no backslash escapes, or "(?>"
NEWER_SYNTAX = re.compile(r"(?<!\\)[*+?}]\+|\(\?>")


def python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    m = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text)
    assert m, "pyproject.toml names no requires-python floor"
    return int(m.group(1)), int(m.group(2))


def patterns(source: str):
    """(line, string) of each string constant in the pattern argument of a
    ``re.<function>(...)`` call, including the parts of a ``%`` or ``+``
    expression that builds it."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
            and node.func.attr in RE_FUNCTIONS
            and node.args
        ):
            for part in ast.walk(node.args[0]):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield part.lineno, part.value


def test_the_guard_sees_a_possessive_quantifier_and_an_atomic_group():
    source = 're.compile(r"\\n[^x]*+(?:%s)" % "a")\nre.search("(?>ab)", s)\nre.sub("a+", "++", s)\n'
    found = [line for line, p in patterns(source) if NEWER_SYNTAX.search(p)]
    # the replacement string of re.sub is not a pattern, but the guard reads
    # only the first argument
    assert found == [1, 2]


@pytest.mark.skipif(python_floor() >= (3, 11), reason="every supported Python accepts the syntax")
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_pattern_needs_a_newer_python(path):
    bad = [
        f"{path.name}:{line}: {p!r}"
        for line, p in patterns(path.read_text(encoding="utf-8"))
        if NEWER_SYNTAX.search(p)
    ]
    assert not bad, "regex syntax newer than requires-python:\n" + "\n".join(bad)
