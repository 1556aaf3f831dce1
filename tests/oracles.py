"""Independent test oracles, written without reference to the library's
scanner: a dumb character-by-character state machine for hole counting, a
line classifier for header detection, a regex signature extractor, and a
random file generator mixing code, comments, and strings.

Below them, reference copies of the per-call scanner, parser and checker
that the single-pass file analysis replaced, and a generator of modules with
imports for multi-file projects. Last, a reference copy of the stage-2 item
loop as nested ``for``/``else`` rounds, with the target lookup it used."""

from __future__ import annotations

import random
import re

from autoform import simlang
from autoform.diagnostics import (
    Diagnostic,
    DiagnosticSet,
    Scope,
    SourceRange,
    err_count,
    offset_to_pos,
    pos_to_offset,
)
from autoform.instrumentation import MetricsWriter
from autoform.kernel import PatchOutOfScopeError, try_patch
from autoform.operators import OperatorRequest, OperatorSet
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
from autoform.stage2 import (
    AmbiguousTargetError,
    HoleTarget,
    ProofTask,
    Stage2Config,
    Stage2ItemResult,
    select_error,
    split_if_large_and_resolve,
)
from autoform.verifier import Project, Verifier, header_scope

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
# `module_file`, `offset_to_pos`, `pos_to_offset`). The library applies
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
            names, cycle = exports(module_file(imp.module), cache, seen)
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


def ref_locate_target_hole(project: Project, file_id: str, task: ProofTask) -> HoleTarget | None:
    """Find the task's placeholder: by docstring label, falling back to the
    unique holed declaration when labels are absent. None when already closed."""
    analysis = simlang.analyse(project.read(file_id))
    units = list(zip(analysis.parsed.declarations, analysis.decl_holes))

    labeled = [(d, holes) for d, holes in units if d.doc_label == task.label]
    if len(labeled) > 1:
        raise AmbiguousTargetError(f"label {task.label!r} matches {len(labeled)} declarations")
    if labeled:
        decl, holes = labeled[0]
        if not holes:
            return None
        return HoleTarget(file=file_id, range=holes[0], declaration=decl.name or "")

    holed = [(d, holes) for d, holes in units if holes]
    if len(holed) == 1:
        decl, holes = holed[0]
        return HoleTarget(file=file_id, range=holes[0], declaration=decl.name or "")
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
