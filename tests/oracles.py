"""Independent test oracles, written without reference to the library's
scanner: a dumb character-by-character state machine for hole counting, a
line classifier for header detection, a regex signature extractor, and a
random file generator mixing code, comments, and strings.

Below them, reference copies of the per-call scanner, parser and checker
that the memoised file analysis replaced, and a generator of modules with
imports for multi-file projects."""

from __future__ import annotations

import random
import re

from autoform.diagnostics import (
    Diagnostic,
    DiagnosticSet,
    SourceRange,
    offset_to_pos,
    pos_to_offset,
)
from autoform.simlang import (
    DECL_KINDS,
    DEFINITION_KINDS,
    HEADER_KEYWORDS,
    HOLE_TOKEN,
    Declaration,
    ImportLine,
    ParsedFile,
    interpret_body,
    module_file,
)

IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.'")


def oracle_count_holes(text: str) -> int:
    """Count standalone 'sorry' tokens outside comments/strings.

    Explicit state machine: CODE, LINE, BLOCK(depth), STRING(escape).
    """
    state = "CODE"
    depth = 0
    escape = False
    count = 0
    word = ""
    i = 0
    n = len(text)

    def flush():
        nonlocal word, count
        if word == "sorry":
            count += 1
        word = ""

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "CODE":
            if ch == "-" and nxt == "-":
                flush()
                state = "LINE"
                i += 2
                continue
            if ch == "/" and nxt == "-":
                flush()
                state = "BLOCK"
                depth = 1
                i += 2
                continue
            if ch == '"':
                flush()
                state = "STRING"
                escape = False
                i += 1
                continue
            if ch in IDENT_CHARS:
                word += ch
            else:
                flush()
            i += 1
        elif state == "LINE":
            if ch == "\n":
                state = "CODE"
            i += 1
        elif state == "BLOCK":
            if ch == "/" and nxt == "-":
                depth += 1
                i += 2
            elif ch == "-" and nxt == "/":
                depth -= 1
                i += 2
                if depth == 0:
                    state = "CODE"
            else:
                i += 1
        elif state == "STRING":
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                state = "CODE"
            i += 1
    flush()
    return count


def oracle_header_last_line(text: str, bound: int = 64) -> int | None:
    """Last line of the contiguous header prefix by naive line classification."""
    last = None
    for lineno, line in enumerate(text.split("\n")[:bound]):
        stripped = line.strip()
        if not stripped or stripped.startswith("--"):
            continue
        first = stripped.split()[0]
        if first in ("import", "namespace", "section", "open"):
            last = lineno
        else:
            break
    return last


SIGNATURE_RE = re.compile(
    r"^(?P<sig>(?:theorem|lemma|def|abbrev|example|instance|axiom)\b[^:]*:[^:=]*?)\s*:=",
    re.MULTILINE,
)


def oracle_signatures(text: str) -> list[str]:
    """Declaration signatures (text before the body delimiter), normalized."""
    out = []
    for m in SIGNATURE_RE.finditer(text):
        out.append(" ".join(m.group("sig").split()))
    return out


WORDS = ["alpha", "beta", "gamma", "sorry", "sorryNot", "xsorry", "sorry'", "foo"]


def random_file(rng: random.Random, lines: int = 14) -> str:
    """A random mix of code-ish lines, comments, strings, and hole tokens."""
    out = []
    for _ in range(lines):
        roll = rng.random()
        if roll < 0.15:
            out.append(f"-- comment {rng.choice(WORDS)} sorry maybe")
        elif roll < 0.3:
            inner = " ".join(rng.choices(WORDS, k=rng.randint(0, 3)))
            out.append(f"/- block {inner} -/ {rng.choice(WORDS)}")
        elif roll < 0.4:
            out.append(f'def s{rng.randint(0, 99)} : Str := "{rng.choice(WORDS)} sorry \\" x"')
        elif roll < 0.5:
            opener = f"/- open {rng.choice(WORDS)}"
            closer = "-/" if rng.random() < 0.8 else ""
            out.append(f"{opener} {closer} trailing {rng.choice(WORDS)}")
        elif roll < 0.65:
            out.append(f"theorem t{rng.randint(0, 99)} : P := by sorry")
        else:
            out.append(" ".join(rng.choices(WORDS, k=rng.randint(1, 5))))
    return "\n".join(out) + "\n"


# -- reference scanner, parser and checker --------------------------------------
#
# Verbatim copies of the library's per-call implementations from before file
# analyses were memoised: every function re-scans and re-masks the whole text.
# The differential tests require the analysis-backed library to agree with
# these exactly. They share with the library only its result types, its
# constants and helpers the analysis did not replace (`interpret_body`,
# `module_file`, `offset_to_pos`, `pos_to_offset`).

_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.']*")
_REF_DOC_META_RE = re.compile(r"\[(\d+)\]\s?(.*)")


def ref_line_starts(text: str) -> list[int]:
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    return starts


def ref_noncode_spans(text: str) -> list[tuple[str, int, int]]:
    spans: list[tuple[str, int, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "-" and text.startswith("--", i):
            j = text.find("\n", i)
            j = n if j == -1 else j
            spans.append(("line", i, j))
            i = j
        elif ch == "/" and text.startswith("/-", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/-", j):
                    depth += 1
                    j += 2
                elif text.startswith("-/", j):
                    depth -= 1
                    j += 2
                else:
                    j += 1
            spans.append(("block", i, j))
            i = j
        elif ch == '"':
            j = i + 1
            closed = False
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == '"':
                    j += 1
                    closed = True
                    break
                j += 1
            if not closed:
                j = n
            spans.append(("string", i, j))
            i = j
        else:
            i += 1
    return spans


def ref_mask_noncode(text: str) -> str:
    chars = list(text)
    for _, a, b in ref_noncode_spans(text):
        for k in range(a, min(b, len(chars))):
            if chars[k] != "\n":
                chars[k] = " "
    return "".join(chars)


def ref_find_hole_ranges(text: str) -> list[SourceRange]:
    masked = ref_mask_noncode(text)
    starts = ref_line_starts(text)
    out = []
    for m in _REF_IDENT_RE.finditer(masked):
        if m.group(0) == HOLE_TOKEN:
            sl, sc = offset_to_pos(text, m.start(), starts)
            el, ec = offset_to_pos(text, m.end(), starts)
            out.append(SourceRange(sl, sc, el, ec))
    return out


def ref_header_line_span(text: str, bound: int = 64) -> tuple[int, int] | None:
    masked_lines = ref_mask_noncode(text).split("\n")
    last_header = None
    for lineno, line in enumerate(masked_lines[:bound]):
        stripped = line.strip()
        if not stripped:
            continue
        word = stripped.split()[0]
        if word in HEADER_KEYWORDS:
            last_header = lineno
        else:
            break
    if last_header is None:
        return None
    return (0, last_header)


def ref_parse_file(text: str, header_bound: int = 64) -> ParsedFile:
    masked = ref_mask_noncode(text)
    masked_lines = masked.split("\n")
    starts = ref_line_starts(text)
    n_lines = len(masked_lines)

    header_span = ref_header_line_span(text, header_bound)
    header_end = header_span[1] if header_span else -1

    imports = []
    for lineno in range(0, header_end + 1):
        parts = masked_lines[lineno].strip().split()
        if len(parts) >= 2 and parts[0] == "import":
            imports.append(ImportLine(module=parts[1], lineno=lineno))

    doc_spans = []
    for kind, a, b in ref_noncode_spans(text):
        if kind == "block" and text[a : a + 3] == "/--":
            sl, _ = offset_to_pos(text, a, starts)
            el, _ = offset_to_pos(text, max(a, b - 1), starts)
            inner = text[a + 3 : max(a + 3, b - 2)]
            doc_spans.append((sl, el, inner))

    decl_starts = []
    for lineno in range(header_end + 1, n_lines):
        parts = masked_lines[lineno].split()
        if parts and parts[0] in DECL_KINDS:
            decl_starts.append(lineno)

    declarations: list[Declaration] = []
    covered: set[int] = set(range(0, header_end + 1))
    for idx, start in enumerate(decl_starts):
        end = (decl_starts[idx + 1] - 1) if idx + 1 < len(decl_starts) else n_lines - 1
        while end > start and not masked_lines[end].strip():
            end -= 1
        doc = None
        unit_start = start
        for sl, el, inner in doc_spans:
            if el < start and all(
                not masked_lines[k].strip() for k in range(el + 1, start)
            ):
                doc = (sl, el, inner)
        if doc is not None and (not declarations or doc[0] > declarations[-1].range.end_line):
            unit_start = doc[0]
        declarations.append(
            _ref_parse_declaration(text, masked, starts, start, end, unit_start, doc)
        )
        covered.update(range(unit_start, end + 1))

    stray = tuple(
        lineno
        for lineno in range(header_end + 1, n_lines)
        if lineno not in covered and masked_lines[lineno].strip()
    )
    return ParsedFile(
        header_span=header_span,
        imports=tuple(imports),
        declarations=tuple(declarations),
        stray_lines=stray,
        line_count=n_lines,
    )


def _ref_parse_declaration(text, masked, starts, start, end, unit_start, doc) -> Declaration:
    rng = SourceRange.whole_lines(start, end)
    unit_rng = SourceRange.whole_lines(unit_start, end)
    a = starts[start]
    b = starts[end + 1] - 1 if end + 1 < len(starts) else len(text)
    masked_unit = masked[a:b]
    raw_unit = text[a:b]

    docstring = doc_index = doc_label = None
    if doc is not None:
        docstring = doc[2].strip()
        first_line = docstring.splitlines()[0] if docstring else ""
        m = _REF_DOC_META_RE.search(first_line)
        if m:
            doc_index = int(m.group(1))
            doc_label = m.group(2).strip()

    def make(kind="", name=None, type_text="", body_text="", body_rng=None, malformed=None):
        return Declaration(
            kind=kind,
            name=name,
            type_text=type_text,
            body_text=body_text,
            range=rng,
            unit_range=unit_rng,
            body_range=body_rng or rng,
            docstring=docstring,
            doc_index=doc_index,
            doc_label=doc_label,
            malformed=malformed,
        )

    kind = masked_unit.split()[0]
    assign = masked_unit.find(":=")
    if assign == -1:
        return make(kind=kind, malformed="missing ':='")
    head_masked = masked_unit[:assign]
    body_off = assign + 2
    body_sl, body_sc = offset_to_pos(text, a + body_off, starts)
    body_el, body_ec = offset_to_pos(text, b, starts)
    body_rng = SourceRange(body_sl, body_sc, body_el, body_ec)
    body_text = raw_unit[body_off:]

    head_tokens = head_masked.split()
    name = None
    if kind == "example":
        colon = head_masked.find(":")
    else:
        if len(head_tokens) < 2 or not _REF_IDENT_RE.fullmatch(head_tokens[1]):
            return make(kind=kind, body_text=body_text, body_rng=body_rng,
                        malformed="missing declaration name")
        name = head_tokens[1]
        name_pos = head_masked.find(name, len(kind))
        colon = head_masked.find(":", name_pos + len(name))
    if colon == -1:
        return make(kind=kind, name=name, body_text=body_text, body_rng=body_rng,
                    malformed="missing type ascription")
    type_text = " ".join(raw_unit[colon + 1 : assign].split())
    if not type_text:
        return make(kind=kind, name=name, body_text=body_text, body_rng=body_rng,
                    malformed="empty type")
    return make(kind=kind, name=name, type_text=type_text, body_text=body_text,
                body_rng=body_rng)


def ref_body_tokens(text: str, decl: Declaration) -> list[str]:
    masked = ref_mask_noncode(text)
    starts = ref_line_starts(text)
    a = pos_to_offset(text, decl.body_range.start_line, decl.body_range.start_col, starts)
    b = pos_to_offset(text, decl.body_range.end_line, decl.body_range.end_col, starts)
    return masked[a:b].split()


def ref_verify_file(
    project,
    file_id: str,
    builtins: dict[str, str] | None = None,
    external_modules: frozenset[str] = frozenset(),
    header_bound: int = 64,
) -> tuple[bool, DiagnosticSet]:
    """The simulated verifier's check, re-parsing every file it reads."""
    builtins = {"trivial": "True"} if builtins is None else dict(builtins)
    if not project.exists(file_id):
        full = SourceRange(0, 0, 0, 0)
        diags = DiagnosticSet.of([Diagnostic(full, "error", f"no such file: {file_id}")])
        return (False, diags)
    text = project.read(file_id)

    def exports(fid, cache, seen):
        if fid in cache:
            return cache[fid]
        if fid in seen or not project.exists(fid):
            return {}
        seen.add(fid)
        parsed = ref_parse_file(project.read(fid), header_bound)
        table: dict[str, str] = {}
        for imp in parsed.imports:
            table.update(exports(module_file(imp.module), cache, seen))
        for decl in parsed.declarations:
            if decl.name and not decl.malformed:
                table[decl.name] = decl.type_text
        cache[fid] = table
        return table

    parsed = ref_parse_file(text, header_bound)
    out: list[Diagnostic] = []
    imported: dict[str, str] = {}
    cache: dict = {}
    for imp in parsed.imports:
        if imp.module in external_modules:
            continue
        dep = module_file(imp.module)
        if not project.exists(dep):
            rng = SourceRange.whole_lines(imp.lineno, imp.lineno)
            out.append(Diagnostic(rng, "error", f"unknown module '{imp.module}'"))
            continue
        imported.update(exports(dep, cache, {file_id}))

    for lineno in parsed.stray_lines:
        rng = SourceRange.whole_lines(lineno, lineno)
        out.append(Diagnostic(rng, "error", "unexpected content outside a declaration"))

    scope_table = dict(builtins)
    scope_table.update(imported)
    for decl in parsed.declarations:
        if decl.malformed:
            out.append(Diagnostic(decl.range, "error", f"malformed declaration: {decl.malformed}"))
            continue
        if decl.name and decl.name in scope_table and decl.name not in builtins:
            out.append(Diagnostic(decl.range, "error", f"'{decl.name}' has already been declared"))
        term = interpret_body(ref_body_tokens(text, decl))
        if term.error:
            out.append(Diagnostic(decl.body_range, "error", term.error))
        elif term.is_hole:
            if decl.kind in DEFINITION_KINDS:
                out.append(Diagnostic(decl.body_range, "warning", "declaration uses placeholder"))
        elif term.reference is not None:
            ref_type = scope_table.get(term.reference)
            if ref_type is None:
                out.append(Diagnostic(decl.body_range, "error",
                                      f"unknown identifier '{term.reference}'"))
            elif ref_type != decl.type_text:
                out.append(Diagnostic(decl.body_range, "error",
                                      f"type mismatch: expected '{decl.type_text}', got '{ref_type}'"))
        if decl.name:
            scope_table[decl.name] = decl.type_text
    diags = DiagnosticSet.of(out)
    return (sum(1 for d in diags if d.severity == "error") == 0, diags)


def ref_goal_state(project, file_id: str, hole: SourceRange):
    """(goal, context) at ``hole`` when the file verifies, else None."""
    ok, _ = ref_verify_file(project, file_id)
    if not ok:
        return None
    parsed = ref_parse_file(project.read(file_id))
    target = None
    for decl in parsed.declarations:
        if decl.range.intersects(hole):
            target = decl
            break
    if target is None:
        return None
    context = tuple(
        (d.name, d.type_text)
        for d in parsed.declarations
        if d.name and d.range.start < target.range.start
    )
    return (target.type_text, context)


DECL_LINES = [
    "def d{k} : T{t} := sorry",
    "theorem t{k} : T{t} := by exact d{r}",
    "lemma l{k} : T{t} := d{r}",
    "abbrev a{k} : T{t} := by sorry",
    "example : True := trivial",
    "instance i{k} : T{t} := by\n  exact d{r}",
    "theorem m{k} :\n    T{t} :=\n  by sorry",
    "def bad{k} : T{t}",
    "lemma := sorry",
    "theorem e{k} : := sorry",
    "def s{k} : T{t} := \"sorry\" -- sorry",
    "theorem j{k} : T{t} := d{r} extra junk",
]


def random_module(rng: random.Random, imports: list[str], decls: int = 8) -> str:
    """A module with a header importing ``imports`` and a random mix of
    well-formed, malformed, holed and referencing declarations, docstrings,
    comments and stray lines."""
    out = [f"import {m}" for m in imports]
    if rng.random() < 0.3:
        out.insert(rng.randint(0, len(out)), "-- header note")
    if out:
        out.append("")
    for k in range(decls):
        roll = rng.random()
        if roll < 0.5:
            out.append(f"/-- [{rng.randint(0, 40)}] Item {k} sorry -/")
        elif roll < 0.6:
            out.append("/- plain block sorry -/")
        elif roll < 0.65:
            out.append("stray sorry line")
        line = rng.choice(DECL_LINES).format(k=k, t=rng.randint(0, 2), r=rng.randint(0, 9))
        out.append(line)
        if rng.random() < 0.6:
            out.append("")
    return "\n".join(out) + ("\n" if rng.random() < 0.9 else "")
