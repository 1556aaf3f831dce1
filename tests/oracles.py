"""Independent test oracles, written without reference to the library's
scanner: a dumb character-by-character state machine for hole counting, a
line classifier for header detection, a regex signature extractor, and a
random file generator mixing code, comments, and strings.

Below them, reference copies of the per-call scanner, parser and checker
that the single-pass file analysis replaced, the parser with its own file
and declaration records (``ref_view`` reads an analysis into them), and a
generator of modules with
imports for multi-file projects. Then a reference copy of the stage-2 item
loop as nested ``for``/``else`` rounds, with the target lookup it used.
Then reference copies of the metrics-stream read and the accounting report
from before each became one pass. Last, reference copies of the records of
the check and attempt loop from before each stopped being a frozen
dataclass, the project listing from before it became one ``os.scandir``
walk, and the dataset records, parse and dump from before the records
became tuples and the dump one compact record per line."""

from __future__ import annotations

import json
import random
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from autoform import simlang
from autoform.accounting import (
    DEFAULT_ALPHAS,
    KNOWN_SCHEMAS,
    ORACLE_EVENT,
    STAGE2_STATUSES,
    VERIFIER_EVENT,
    AccountingReport,
    MetricsBundle,
    UnknownSchemaError,
    _stage_fields,
    cost_alpha,
)
from autoform.corpus import CONTEXT_KEYS, RECORD_KEYS, DatasetError
from autoform.diagnostics import (
    SEVERITIES,
    Diagnostic,
    DiagnosticSet,
    Scope,
    SourceRange,
    err_count,
    pos_to_offset,
    select_error,
)
from autoform.instrumentation import MetricsWriter
from autoform.kernel import PatchOutOfScopeError, SnapshotRestoreError, try_patch
from autoform.operators import OPERATOR_KINDS, OperatorRequest, OperatorSet
from autoform.simlang import (
    DECL_KINDS,
    DEFINITION_KINDS,
    HEADER_KEYWORDS,
    HOLE_TOKEN,
    ImportLine,
    interpret_body,
    module_file,
)
from autoform.stage2 import (
    AmbiguousTargetError,
    ProofTask,
    Stage2Config,
    Stage2ItemResult,
    split_if_large_and_resolve,
)
from autoform.verifier import Entry, Project, Verifier, header_scope

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
# Verbatim copies of the library's per-call implementations from before the
# single-pass file analysis: every function re-scans and re-masks the whole text.
# The differential tests require the analysis-backed library to agree with
# these exactly. They share with the library only its result types, its
# constants and helpers the analysis did not replace (`interpret_body`,
# `module_file`, `pos_to_offset`). `ref_offset_to_pos` is the library's
# former `offset_to_pos`, which only this reference used. The library applies
# `interpret_body` inside the analysis, once per declaration read; the
# reference checker applies it to every body on every call.

_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.']*")
_REF_DOC_META_RE = re.compile(r"\[(\d+)\]\s?(.*)")


def ref_line_starts(text: str) -> list[int]:
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    return starts


def ref_offset_to_pos(text: str, offset: int, starts: list[int]) -> tuple[int, int]:
    """(line, column) of ``offset``, clamped to the text; ``starts`` are
    the text's line offsets."""
    offset = max(0, min(offset, len(text)))
    line = bisect_right(starts, offset) - 1
    return line, offset - starts[line]


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
            sl, sc = ref_offset_to_pos(text, m.start(), starts)
            el, ec = ref_offset_to_pos(text, m.end(), starts)
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


# The reference parser's records: the library's declaration and file records
# from before each declaration held its body term and placeholders and the
# file record was folded into the analysis.


@dataclass(frozen=True)
class RefDeclaration:
    kind: str
    name: str | None
    type_text: str
    range: SourceRange          # declaration lines, excluding docstring
    unit_range: SourceRange     # docstring + declaration lines
    body_range: SourceRange
    docstring: str | None = None
    doc_index: int | None = None
    doc_label: str | None = None
    malformed: str | None = None


@dataclass(frozen=True)
class RefParsedFile:
    header_span: tuple[int, int] | None
    imports: tuple[ImportLine, ...]
    declarations: tuple[RefDeclaration, ...]
    stray_lines: tuple[int, ...]    # non-blank code lines outside header/units


def ref_view(analysis: simlang.Analysis) -> RefParsedFile:
    """The fields of ``analysis`` that the reference parser computes, in its
    records: every field but each declaration's term and holes."""
    return RefParsedFile(
        header_span=analysis.header_span,
        imports=analysis.imports,
        declarations=tuple(
            RefDeclaration(
                d.kind, d.name, d.type_text, d.range, d.unit_range, d.body_range,
                d.docstring, d.doc_index, d.doc_label, d.malformed,
            )
            for d in analysis.declarations
        ),
        stray_lines=analysis.stray_lines,
    )


def ref_parse_file(text: str, header_bound: int = 64) -> RefParsedFile:
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
            sl, _ = ref_offset_to_pos(text, a, starts)
            el, _ = ref_offset_to_pos(text, max(a, b - 1), starts)
            inner = text[a + 3 : max(a + 3, b - 2)]
            doc_spans.append((sl, el, inner))

    decl_starts = []
    for lineno in range(header_end + 1, n_lines):
        parts = masked_lines[lineno].split()
        if parts and parts[0] in DECL_KINDS:
            decl_starts.append(lineno)

    declarations: list[RefDeclaration] = []
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
    return RefParsedFile(
        header_span=header_span,
        imports=tuple(imports),
        declarations=tuple(declarations),
        stray_lines=stray,
    )


def _ref_parse_declaration(text, masked, starts, start, end, unit_start, doc) -> RefDeclaration:
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

    def make(kind="", name=None, type_text="", body_rng=None, malformed=None):
        return RefDeclaration(
            kind=kind,
            name=name,
            type_text=type_text,
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
    body_sl, body_sc = ref_offset_to_pos(text, a + body_off, starts)
    body_el, body_ec = ref_offset_to_pos(text, b, starts)
    body_rng = SourceRange(body_sl, body_sc, body_el, body_ec)

    head_tokens = head_masked.split()
    name = None
    if kind == "example":
        colon = head_masked.find(":")
    else:
        if len(head_tokens) < 2 or not _REF_IDENT_RE.fullmatch(head_tokens[1]):
            return make(kind=kind, body_rng=body_rng, malformed="missing declaration name")
        name = head_tokens[1]
        name_pos = head_masked.find(name, len(kind))
        colon = head_masked.find(":", name_pos + len(name))
    if colon == -1:
        return make(kind=kind, name=name, body_rng=body_rng, malformed="missing type ascription")
    type_text = " ".join(raw_unit[colon + 1 : assign].split())
    if not type_text:
        return make(kind=kind, name=name, body_rng=body_rng, malformed="empty type")
    return make(kind=kind, name=name, type_text=type_text, body_rng=body_rng)


def ref_body_tokens(text: str, decl: RefDeclaration) -> list[str]:
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
        # (names, whether the walk meets a file still on it: a cycle)
        if fid in cache:
            return cache[fid]
        if fid in seen:
            return {}, True
        if not project.exists(fid):
            return {}, False
        seen.add(fid)
        parsed = ref_parse_file(project.read(fid), header_bound)
        table: dict[str, str] = {}
        cyclic = False
        for imp in parsed.imports:
            dep = module_file(imp.module)
            if dep is None:
                continue
            names, cycle = exports(dep, cache, seen)
            table.update(names)
            cyclic = cyclic or cycle
        for decl in parsed.declarations:
            if decl.name and not decl.malformed:
                table[decl.name] = decl.type_text
        cache[fid] = (table, cyclic)
        return table, cyclic

    parsed = ref_parse_file(text, header_bound)
    out: list[Diagnostic] = []
    imported: dict[str, str] = {}
    cache: dict = {}
    for imp in parsed.imports:
        if imp.module in external_modules:
            continue
        dep = module_file(imp.module)
        rng = SourceRange.whole_lines(imp.lineno, imp.lineno)
        if dep is None:
            out.append(Diagnostic(rng, "error", f"invalid module name '{imp.module}'"))
            continue
        if not project.exists(dep):
            out.append(Diagnostic(rng, "error", f"unknown module '{imp.module}'"))
            continue
        names, cyclic = exports(dep, cache, {file_id})
        if cyclic:
            out.append(Diagnostic(rng, "error", f"import cycle through '{imp.module}'"))
        imported.update(names)

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


# -- reference stage-2 item loop ---------------------------------------------
# The item loop before it became one flat loop, verbatim but for the names
# of the two helpers it calls and the record of accepted proposals. Its
# lookup falls back to the unique holed declaration even when the file has
# labels, and its lookup after an accepted proposal lets
# AmbiguousTargetError escape, with the item's result attached as ``result``.
# The lookup returns a record of its own, the target hole and the name of
# its declaration.


@dataclass(frozen=True)
class RefHoleTarget:
    range: SourceRange
    declaration: str


def ref_locate_target_hole(
    project: Project, file_id: str, task: ProofTask
) -> RefHoleTarget | None:
    """Find the task's placeholder: by docstring label, falling back to the
    unique holed declaration when labels are absent. None when already closed."""
    analysis = simlang.analyse(project.read(file_id))
    units = [(d, d.holes) for d in analysis.declarations]

    labeled = [(d, holes) for d, holes in units if d.doc_label == task.label]
    if len(labeled) > 1:
        raise AmbiguousTargetError(f"label {task.label!r} matches {len(labeled)} declarations")
    if labeled:
        decl, holes = labeled[0]
        if not holes:
            return None
        return RefHoleTarget(range=holes[0], declaration=decl.name or "")

    holed = [(d, holes) for d, holes in units if holes]
    if len(holed) == 1:
        decl, holes = holed[0]
        return RefHoleTarget(range=holes[0], declaration=decl.name or "")
    if not holed:
        return None
    raise AmbiguousTargetError(
        f"no label match for {task.label!r} and {len(holed)} positional candidates"
    )


def ref_hole_scope(project: Project, file_id: str, hole: SourceRange, verifier: Verifier) -> Scope:
    return Scope.of(hole).union(header_scope(simlang.analyse(project.read(file_id))))


def ref_run_stage2_item(
    project: Project,
    file_id: str,
    task: ProofTask,
    config: Stage2Config,
    operators: OperatorSet,
    verifier: Verifier,
    metrics: MetricsWriter,
) -> Stage2ItemResult:
    """Close one proof item's hole under the verifier-call budget; its edits
    stay staged for the item's commit. Every exit but the ``skipped``,
    ``solved`` and ``already_closed`` ones leaves the status ``unsolved``."""
    result = Stage2ItemResult(index=task.index, label=task.label, file=file_id)
    try:
        file_id = split_if_large_and_resolve(
            project, file_id, task, config.split_threshold, metrics
        )
        result.file = file_id
    except Exception as exc:  # split failure: drop what it staged, log, continue unsplit
        project.discard()
        metrics.emit("warning", {"reason": f"split failed: {exc}", "lean_file": file_id})

    if not project.exists(file_id):
        # stage 1 left no file for this section: nothing to verify or patch
        metrics.emit(
            "warning",
            {"reason": f"no such file: {file_id}", "lean_file": file_id, "index": task.index},
        )
        result.status = "skipped"
        return result

    _, diags = verifier.verify_file(project, file_id)
    result.verifier_calls += 1

    goal_payload = None
    while result.verifier_calls < config.t:
        if err_count(diags) > 0:
            if result.fix_attempts >= config.t:
                # a fixer that never yields an applicable patch consumes no
                # verifier budget; bound its attempts so the item terminates
                return result
            diag = select_error(diags)
            text = project.read(file_id)
            scope = Scope.of(diag.range).union(header_scope(simlang.analyse(text)))
            fix_req = OperatorRequest(
                kind="fix_compile_error",
                payload={
                    "task_id": str(task.index),
                    "file": file_id,
                    "file_text": text,
                    "diagnostic": diag.as_dict(),
                    "target_range": diag.range,
                },
            )
            response = operators.invoke(fix_req)
            result.fix_attempts += 1
            if response.ok and response.patch is not None:
                try:
                    outcome = try_patch(2, project, file_id, scope, response.patch, diags, verifier)
                    result.verifier_calls += 1
                    diags = outcome.diagnostics_after
                except PatchOutOfScopeError:
                    pass
            continue

        try:
            hole = ref_locate_target_hole(project, file_id, task)
        except AmbiguousTargetError as exc:
            metrics.emit(
                "warning", {"reason": str(exc), "lean_file": file_id, "index": task.index}
            )
            result.status = "skipped"
            return result
        if hole is None:
            result.status = "solved" if result.proof_attempts > 0 else "already_closed"
            return result
        if result.proof_attempts >= config.attempt_bound:
            return result

        goal = verifier.goal_state(project, file_id, hole.range)
        goal_payload = goal.as_dict() if goal is not None else None

        plan_req = OperatorRequest(
            kind="plan",
            payload={"task_id": str(task.index), "task": task.payload(), "goal_state": goal_payload},
        )
        plan_resp = operators.invoke(plan_req)
        result.plans += 1
        plan_text = plan_resp.text if plan_resp.ok else ""

        for _ in range(config.c):
            for _ in range(config.r):
                propose_req = OperatorRequest(
                    kind="propose_proof_patch",
                    payload={
                        "task_id": str(task.index),
                        "file": file_id,
                        "file_text": project.read(file_id),
                        "hole": hole.range,
                        "declaration": hole.declaration,
                        "plan": plan_text,
                        "task": task.payload(),
                        "goal_state": goal_payload,
                        "target_range": hole.range,
                        "attempt": result.proof_attempts + 1,
                    },
                )
                proposal = operators.invoke(propose_req)
                result.proof_attempts += 1
                accepted = False
                if proposal.ok and proposal.patch is not None:
                    scope = ref_hole_scope(project, file_id, hole.range, verifier)
                    try:
                        outcome = try_patch(
                            2, project, file_id, scope, proposal.patch, diags, verifier
                        )
                        result.verifier_calls += 1
                        diags = outcome.diagnostics_after
                        accepted = outcome.accepted
                    except PatchOutOfScopeError:
                        pass
                if accepted:
                    result.accepted_attempts.append(result.proof_attempts)
                    try:
                        closed = ref_locate_target_hole(project, file_id, task) is None
                    except AmbiguousTargetError as exc:
                        exc.result = result
                        raise
                    if closed:
                        result.status = "solved"
                        return result
                if result.verifier_calls >= config.t:
                    return result
                if result.proof_attempts >= config.attempt_bound:
                    return result
                if err_count(diags) > 0:
                    break
            else:
                replan_req = OperatorRequest(
                    kind="replan",
                    payload={
                        "task_id": str(task.index),
                        "task": task.payload(),
                        "plan": plan_text,
                        "goal_state": goal_payload,
                        "diagnostics": [d.as_dict() for d in diags],
                    },
                )
                replan = operators.invoke(replan_req)
                result.plans += 1
                if replan.ok and replan.text:
                    plan_text = replan.text
                continue
            break  # compile errors surfaced: back to the outer loop's fixer
    return result


# -- reference metrics read and report ----------------------------------------
# The metrics-stream read and the accounting report before each became one
# pass, verbatim but for the ``ref_`` names. The read splits the durable text
# into a list of lines and decodes each stripped line; the report scans the
# events about a dozen times. They share with the library its result types,
# its constants, ``_stage_fields`` and ``cost_alpha``. Two behaviours of
# theirs were bugs: a ``project_check``, ``oracle_result`` or
# ``task_tokens`` event with no ``data`` raises ``KeyError``, and with no
# filter the report's ``run_ids`` leave out a run that has no ``run_start``
# although its calls are counted.

_ref_raw_decode = json.JSONDecoder().raw_decode


def _ref_decode_line(line: str) -> object:
    try:
        obj, end = _ref_raw_decode(line)
        if end == len(line):
            return obj
    except json.JSONDecodeError:
        pass
    return json.loads(line)


def ref_read_events(path: str | Path) -> list[dict]:
    events = []
    path = Path(path)
    if not path.exists():
        return events
    text = path.read_text(encoding="utf-8")
    durable, sep, _tail = text.rpartition("\n")
    if not sep:
        return events
    for lineno, line in enumerate(durable.split("\n")):
        line = line.strip()
        if not line:
            continue
        try:
            obj = _ref_decode_line(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno + 1}: bad metrics line: {exc}") from exc
        events.append(obj)
    return events


def ref_runs_in(events: list[dict]) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for ev in events:
        if ev.get("event") == "run_start":
            out[ev["run_id"]] = ev.get("data", {})
    return out


def _ref_schema_of(run_start_data: dict) -> int:
    version = run_start_data.get("schema_version", 1)
    if version not in KNOWN_SCHEMAS:
        raise UnknownSchemaError(f"unknown metrics schema version {version!r}")
    return version


def ref_select_events(events: list[dict], run_ids: set[str] | None = None) -> list[dict]:
    if run_ids is None:
        return list(events)
    return [ev for ev in events if ev.get("run_id") in run_ids]


def _ref_legacy_reconstruction(events: list[dict], run_id: str) -> int:
    total = 0
    for ev in events:
        if ev.get("run_id") == run_id and ev.get("event") == "item_end":
            total += 1 + int(ev.get("data", {}).get("b_attempts", 0))
    return total


def _ref_count(events: list[dict], run_ids: set[str] | None, label: str) -> int:
    starts = ref_runs_in(events)
    if run_ids is None:
        run_ids = set(starts)
        run_ids.update(ev["run_id"] for ev in events if "run_id" in ev)
    labelled = Counter(ev.get("run_id") for ev in events if ev.get("event") == label)
    total = 0
    for run_id in sorted(run_ids):
        schema = _ref_schema_of(starts.get(run_id, {}))
        if schema == 1:
            total += _ref_legacy_reconstruction(events, run_id)
        else:
            total += labelled[run_id]
    return total


def ref_count_verifier_calls(events: list[dict], run_ids: set[str] | None = None) -> int:
    return _ref_count(events, run_ids, VERIFIER_EVENT)


def ref_count_oracle_calls(events: list[dict], run_ids: set[str] | None = None) -> int:
    return _ref_count(events, run_ids, ORACLE_EVENT)


def ref_total_tokens(events: list[dict], run_ids: set[str] | None = None) -> int:
    chosen = ref_select_events(events, run_ids)
    backfill = [ev for ev in chosen if ev.get("event") == "task_tokens"]
    if backfill:
        return sum(int(ev["data"].get("tokens_used_total", 0)) for ev in backfill)
    return sum(
        int(ev["data"].get("tokens_used", 0) or 0)
        for ev in chosen
        if ev.get("event") == ORACLE_EVENT
    )


def _ref_item_ends(events: list[dict]) -> list[dict]:
    return [ev.get("data", {}) for ev in events if ev.get("event") == "item_end"]


def _ref_bundle(events: list[dict], stages: dict[int, dict]) -> MetricsBundle:
    pb: bool | None = None
    for ev in events:
        if ev.get("event") == "project_check":
            pb = bool(ev["data"].get("ok"))
    return MetricsBundle(pb=pb, scc=stages[1]["scc"], arr=stages[1]["arr"], psr=stages[2]["psr"])


def ref_build_report(
    events: list[dict],
    run_ids: set[str] | None = None,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
) -> AccountingReport:
    chosen = ref_select_events(events, run_ids)
    v = ref_count_verifier_calls(events, run_ids)
    q = ref_count_oracle_calls(events, run_ids)
    stages = _stage_fields(_ref_item_ends(chosen))
    s1, s2 = stages[1], stages[2]
    solved = s1["compiled"] + s2["solved"] + s2["already_closed"]
    ids = tuple(sorted(run_ids)) if run_ids is not None else tuple(sorted(ref_runs_in(chosen)))
    return AccountingReport(
        run_ids=ids,
        targets=solved + s1["restored_failed"] + s2["unsolved"] + s2["skipped"],
        solved=solved,
        verifier_calls=v,
        oracle_calls=q,
        tokens=ref_total_tokens(events, run_ids),
        metrics=_ref_bundle(chosen, stages),
        costs={alpha: cost_alpha(v, q, alpha) for alpha in alphas},
    )


def ref_per_problem_rows(events: list[dict], run_ids: set[str] | None = None) -> list[dict]:
    chosen = ref_select_events(events, run_ids)
    lengths: dict[int, int] = {}
    for ev in chosen:
        if ev.get("event") == "item_start" and "nonempty_lines" in ev.get("data", {}):
            lengths[int(ev["data"]["index"])] = int(ev["data"]["nonempty_lines"])
    rows = []
    for ev in chosen:
        if ev.get("event") != "item_end":
            continue
        data = ev.get("data", {})
        if data.get("status") not in STAGE2_STATUSES:
            continue
        index = int(data["index"])
        rows.append(
            {
                "index": index,
                "label": data.get("label", ""),
                "lean_file": data.get("lean_file", ""),
                "nonempty_lines": lengths.get(index, ""),
                "outcome": data.get("status", ""),
            }
        )
    rows.sort(key=lambda r: r["index"])
    return rows


# -- reference records ---------------------------------------------------------
# The records of the check and attempt loop as the frozen dataclasses they
# were before each became an immutable tuple or slotted class, verbatim but
# for the ``Ref``/``ref_`` names and for ``RefPatchProposal``, which holds its
# one ``range`` as the library's patch does. They share with the library its
# constants and its kernel errors. ``ref_repr`` gives a reference record's repr with
# the library's class names.

@dataclass(frozen=True, order=True)
class RefSourceRange:
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self) -> None:
        if self.end_line < self.start_line or (
            self.end_line == self.start_line and self.end_col < self.start_col
        ):
            raise ValueError(f"range start {self.start} after end {self.end}")

    @property
    def start(self) -> tuple[int, int]:
        return (self.start_line, self.start_col)

    @property
    def end(self) -> tuple[int, int]:
        return (self.end_line, self.end_col)

    def _span(self) -> tuple[tuple[int, int], tuple[int, int]]:
        # widen zero-width ranges to one column for overlap tests
        if self.start == self.end:
            return self.start, (self.end_line, self.end_col + 1)
        return self.start, self.end

    def intersects(self, other: "RefSourceRange") -> bool:
        sa, ea = self._span()
        sb, eb = other._span()
        return max(sa, sb) < min(ea, eb)

    def contains(self, other: "RefSourceRange") -> bool:
        return self.start <= other.start and other.end <= self.end

    def as_dict(self) -> dict:
        return {
            "start_line": self.start_line,
            "start_col": self.start_col,
            "end_line": self.end_line,
            "end_col": self.end_col,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RefSourceRange":
        return cls(d["start_line"], d["start_col"], d["end_line"], d["end_col"])

    @classmethod
    def whole_lines(cls, first: int, last: int) -> "RefSourceRange":
        """Range covering lines [first, last] entirely."""
        return cls(first, 0, last + 1, 0)


@dataclass(frozen=True)
class RefDiagnostic:
    range: RefSourceRange
    severity: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}: {self.severity!r}")

    def sort_key(self) -> tuple:
        r = self.range
        return (r.start_line, r.start_col, r.end_line, r.end_col, self.severity, self.message)

    def as_dict(self) -> dict:
        return {"range": self.range.as_dict(), "severity": self.severity, "message": self.message}


@dataclass(frozen=True)
class RefDiagnosticSet:
    """Finite multiset of diagnostics; duplicates are counted, not collapsed.

    Equality is order-insensitive (normalized by position/severity/message).
    """

    items: tuple[RefDiagnostic, ...] = ()
    # the number of error-severity items, counted once when the set is built
    error_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        errors = sum(1 for d in self.items if d.severity == "error")
        object.__setattr__(self, "error_count", errors)

    @classmethod
    def of(cls, items: Iterable[RefDiagnostic]) -> "RefDiagnosticSet":
        return cls(tuple(items))

    def normalized(self) -> tuple[RefDiagnostic, ...]:
        return tuple(sorted(self.items, key=RefDiagnostic.sort_key))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefDiagnosticSet):
            return NotImplemented
        return self.normalized() == other.normalized()

    def __hash__(self) -> int:
        return hash(self.normalized())

    def __iter__(self) -> Iterator[RefDiagnostic]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def errors(self) -> tuple[RefDiagnostic, ...]:
        return tuple(d for d in self.items if d.severity == "error")

    def union(self, other: "RefDiagnosticSet") -> "RefDiagnosticSet":
        return RefDiagnosticSet(self.items + other.items)


REF_EMPTY_DIAGNOSTICS = RefDiagnosticSet()


def ref_err_count(diagnostics: RefDiagnosticSet) -> int:
    """Number of error-severity diagnostics, multiset-counted."""
    return diagnostics.error_count


def ref_select_error(diagnostics: RefDiagnosticSet) -> RefDiagnostic:
    """The first error by ``RefDiagnostic.sort_key``; ValueError when there is none."""
    return min(diagnostics.errors(), key=RefDiagnostic.sort_key)


def _ref_normalize_ranges(ranges: Sequence[RefSourceRange]) -> tuple[RefSourceRange, ...]:
    if len(ranges) == 1:
        return tuple(ranges)  # one range is normalized already
    ordered = sorted(ranges, key=lambda r: (r.start, r.end))
    merged: list[RefSourceRange] = []
    for r in ordered:
        if merged and r.start <= merged[-1].end:
            last = merged[-1]
            end = r.end
            if end == last.end and r.start == end and last.start != end:
                # a point at the end of a range joins it as its one-column footprint
                end = (r.end_line, r.end_col + 1)
            if end > last.end:
                merged[-1] = RefSourceRange(*last.start, *end)
        else:
            merged.append(r)
    return tuple(merged)


@dataclass(frozen=True)
class RefScope:
    """Finite union of ranges within one file; normalized to disjoint ranges."""

    ranges: tuple[RefSourceRange, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranges", _ref_normalize_ranges(self.ranges))

    @classmethod
    def of(cls, *ranges: RefSourceRange) -> "RefScope":
        return cls(tuple(ranges))

    @property
    def is_empty(self) -> bool:
        return not self.ranges

    def union(self, other: "RefScope") -> "RefScope":
        return RefScope(self.ranges + other.ranges)

    def with_range(self, r: RefSourceRange) -> "RefScope":
        return RefScope(self.ranges + (r,))

    def intersects(self, r: RefSourceRange) -> bool:
        return any(sr.intersects(r) for sr in self.ranges)

    def covers(self, r: RefSourceRange) -> bool:
        """True iff r lies entirely within one normalized scope range."""
        return any(sr.contains(r) for sr in self.ranges)


def ref_localize(diagnostics: RefDiagnosticSet, scope: RefScope) -> RefDiagnosticSet:
    """Restrict a diagnostic multiset to items whose range intersects the scope."""
    if scope.is_empty:
        return REF_EMPTY_DIAGNOSTICS
    return RefDiagnosticSet.of(d for d in diagnostics if scope.intersects(d.range))


@dataclass(frozen=True)
class RefObjectivePair:
    primary: int
    secondary: int

    def __post_init__(self) -> None:
        if self.primary < 0 or self.secondary < 0:
            raise ValueError("objective components must be non-negative")


@dataclass(frozen=True)
class RefPatchProposal:
    file: str
    range: RefSourceRange
    replacement: str
    origin: str = ""


@dataclass(frozen=True)
class RefSnapshot:
    file: str
    # the item's staged entry of the file before the attempt: its bytes, and
    # the text and analysis made of them, so a restore keeps the analysis
    staged: Entry | None
    committed: bytes | None  # what the disk must hold after a restore; None: absent

    @classmethod
    def capture(cls, project: Project, file_id: str) -> "RefSnapshot":
        return cls(file_id, project.staged_entry(file_id), project.committed_bytes(file_id))

    def restore(self, project: Project) -> None:
        """Put back the pre-attempt view: drop the candidate (a synced one by
        writing the committed bytes back) and re-stage the item's earlier
        edit, entry and all. Either way the disk is read back to check."""
        project.discard(self.file)
        if self.staged is not None:
            project.restage(self.file, self.staged)
        if not self.matches(project):
            raise SnapshotRestoreError(f"restore of {self.file} did not reproduce snapshot")

    def matches(self, project: Project) -> bool:
        """Whether the bytes on disk, not the project's cached copy, are the
        committed bytes: the check that a restore really landed."""
        return project.reload_bytes(self.file) == self.committed


@dataclass(frozen=True)
class RefAttemptOutcome:
    accepted: bool
    before: RefObjectivePair
    after: RefObjectivePair
    diagnostics_after: RefDiagnosticSet


@dataclass(frozen=True)
class RefOperatorRequest:
    kind: str
    payload: dict

    def __post_init__(self) -> None:
        if self.kind not in OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")

    def json_payload(self) -> dict:
        def conv(v):
            if isinstance(v, RefSourceRange):
                return v.as_dict()
            if isinstance(v, RefScope):
                return [r.as_dict() for r in v.ranges]
            if isinstance(v, dict):
                return {k: conv(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [conv(x) for x in v]
            return v

        return {"kind": self.kind, "payload": conv(self.payload)}


@dataclass(frozen=True)
class RefOperatorResponse:
    ok: bool
    patch: RefPatchProposal | None = None
    text: str | None = None
    tokens_used: int | None = None
    transcript_ref: str | None = None
    error: str | None = None

    @classmethod
    def failed(cls, error: str, transcript_ref: str | None = None) -> "RefOperatorResponse":
        return cls(ok=False, error=error, transcript_ref=transcript_ref)


_REF_NAME_RE = re.compile(
    r"\bRef(?=(?:SourceRange|DiagnosticSet|Diagnostic|Scope|ObjectivePair|PatchProposal"
    r"|Snapshot|AttemptOutcome|OperatorRequest|OperatorResponse|SectionContext|DatasetRecord)\()"
)


def ref_repr(record: object) -> str:
    return _REF_NAME_RE.sub("", repr(record))


# -- reference project listing -------------------------------------------------
# ``Project.files`` before it became one ``os.scandir`` walk, verbatim but for
# taking the root as an argument: ``rglob`` builds a ``Path`` per entry, and
# each match costs an ``is_file`` stat and a ``relative_to``.


def ref_project_files(root: Path) -> list[str]:
    if not root.exists():
        return []
    return sorted(
        str(p.relative_to(root)).replace("\\", "/")
        for p in root.rglob("*.lean")
        if p.is_file()
    )


# -- reference dataset records ---------------------------------------------------
# The dataset records as the frozen dataclasses they were before each became
# an immutable tuple, with the parse and the indented dump of that time,
# verbatim but for the ``Ref``/``ref_`` names. They share with the library
# its key tables and ``DatasetError``.


@dataclass(frozen=True)
class RefSectionContext:
    chapter_number: int = 0
    chapter: str = ""
    section_number: str = ""
    section: str = ""
    subsection_number: str = ""
    subsection: str = ""

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in CONTEXT_KEYS}

    @classmethod
    def from_dict(cls, d: dict) -> "RefSectionContext":
        return cls(
            chapter_number=int(d.get("chapter_number", 0) or 0),
            chapter=str(d.get("chapter", "")),
            section_number=str(d.get("section_number", "")),
            section=str(d.get("section", "")),
            subsection_number=str(d.get("subsection_number", "")),
            subsection=str(d.get("subsection", "")),
        )


@dataclass(frozen=True)
class RefDatasetRecord:
    index: int
    label: str
    env: str
    number_components: tuple[int, ...] = ()
    extracted_labels: tuple[str, ...] = ()
    context: RefSectionContext = field(default_factory=RefSectionContext)
    content: str = ""
    dependencies: tuple[str, ...] = ()
    proof: str = ""
    extra: tuple[tuple[str, object], ...] = ()

    def as_dict(self) -> dict:
        d = {
            "index": self.index,
            "label": self.label,
            "env": self.env,
            "number_components": list(self.number_components),
            "extracted_labels": list(self.extracted_labels),
            "context": self.context.as_dict(),
            "content": self.content,
            "dependencies": list(self.dependencies),
            "proof": self.proof,
        }
        d.update(dict(self.extra))
        return d


def ref_parse_record(obj: dict, position: int) -> RefDatasetRecord:
    if not isinstance(obj, dict):
        raise DatasetError(f"record at position {position} is not an object")
    for key in ("index", "label", "env", "content"):
        if key not in obj:
            raise DatasetError(f"record at position {position} missing required field {key!r}")
    content = obj["content"]
    if not isinstance(content, str) or not content:
        raise DatasetError(f"record at position {position} has empty content")
    try:
        index = int(obj["index"])
    except (TypeError, ValueError):
        raise DatasetError(f"record at position {position} has non-integer index") from None
    extra = tuple(sorted((k, v) for k, v in obj.items() if k not in RECORD_KEYS))
    return RefDatasetRecord(
        index=index,
        label=str(obj["label"]),
        env=str(obj["env"]),
        number_components=tuple(int(n) for n in obj.get("number_components", []) or []),
        extracted_labels=tuple(str(s) for s in obj.get("extracted_labels", []) or []),
        context=RefSectionContext.from_dict(obj.get("context", {}) or {}),
        content=content,
        dependencies=tuple(str(s) for s in obj.get("dependencies", []) or []),
        proof=str(obj.get("proof", "") or ""),
        extra=extra,
    )


def ref_parse_dataset(data: object) -> list[RefDatasetRecord]:
    if not isinstance(data, list):
        raise DatasetError("dataset container must be a JSON array of records")
    records = [ref_parse_record(obj, pos) for pos, obj in enumerate(data)]
    seen: dict[int, int] = {}
    for pos, rec in enumerate(records):
        if rec.index in seen:
            raise DatasetError(
                f"duplicate index {rec.index} at positions {seen[rec.index]} and {pos}"
            )
        seen[rec.index] = pos
    records.sort(key=lambda r: r.index)
    return records


def ref_dump_dataset(records: list[RefDatasetRecord], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps([r.as_dict() for r in records], indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
