"""Lexing and parsing for the miniature declaration language.

A file is a header (import/namespace/section/open lines) followed by
declaration units of the form ``kind name : type := body``. Bodies are
either a placeholder token or a small term referencing a previously
declared name. Comments (``--`` line, ``/- -/`` block, nesting allowed)
and double-quoted strings are opaque: placeholder tokens inside them do
not count as holes.

The header is the contiguous prefix of header-keyword lines within the
first ``HEADER_BOUND`` lines; the bound is a property of the language, not
of a run.

``analyse`` reads a file text once, in one linear pass, and memoises the
result by content; ``parse_file`` and ``count_holes`` are views over that
analysis. A text that extends or edits a memoised one is read only between
the declarations the edit cannot reach on either side, so appending a
declaration costs that declaration, and patching one in the middle of a
file costs it and its predecessor, not the file.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter

from .diagnostics import SourceRange, line_starts, offset_to_pos, pos_to_offset

HOLE_TOKEN = "sorry"
DECL_KINDS = ("theorem", "lemma", "def", "abbrev", "example", "instance", "axiom")
DEFINITION_KINDS = frozenset({"def", "abbrev"})
HEADER_KEYWORDS = ("import", "namespace", "section", "open")
HEADER_BOUND = 64
ANALYSIS_MEMO_SIZE = 8

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.']*")
_DOC_META_RE = re.compile(r"\[(\d+)\]\s?(.*)")
_NONCODE_OPEN_RE = re.compile(r'--|/-|"')
_BLOCK_DELIM_RE = re.compile(r"/-|-/")
_STRING_STOP_RE = re.compile(r'[\\"]')
_NOT_NEWLINE_RE = re.compile("[^\n]")


def noncode_spans(
    text: str, start: int = 0, end: int | None = None
) -> list[tuple[str, int, int]]:
    """Spans of comments and string literals as (kind, start, end) offsets.

    This is the comment/string scanner: one left-to-right pass that jumps
    from delimiter to delimiter. Block comments nest; a backslash escapes
    the next character of a string; an unterminated block comment or
    string runs to the end of the text. The scan begins at offset
    ``start``, which must lie outside every span of the whole text, and
    opens no span at or after ``end``; a span opened before ``end`` still
    runs to its own end.
    """
    spans: list[tuple[str, int, int]] = []
    n = len(text)
    i = start
    limit = n if end is None else end
    while (opener := _NONCODE_OPEN_RE.search(text, i, limit)) is not None:
        i = opener.start()
        token = opener.group()
        if token == "--":
            j = text.find("\n", i)
            j = n if j == -1 else j
            spans.append(("line", i, j))
        elif token == "/-":
            depth, j = 1, i + 2
            while depth:
                delim = _BLOCK_DELIM_RE.search(text, j)
                if delim is None:
                    j = n
                    break
                j = delim.end()
                depth += 1 if delim.group() == "/-" else -1
            spans.append(("block", i, j))
        else:
            j = i + 1
            while True:
                stop = _STRING_STOP_RE.search(text, j)
                if stop is None:
                    j = n
                    break
                if stop.group() == "\\":
                    j = stop.start() + 2
                    continue
                j = stop.end()
                break
            spans.append(("string", i, j))
        i = j
    return spans


def count_holes(text: str) -> int:
    return len(analyse(text).hole_ranges)


@dataclass(frozen=True)
class Declaration:
    kind: str
    name: str | None
    type_text: str
    body_text: str
    range: SourceRange          # declaration lines, excluding docstring
    unit_range: SourceRange     # docstring + declaration lines
    body_range: SourceRange
    docstring: str | None = None
    doc_index: int | None = None
    doc_label: str | None = None
    malformed: str | None = None


@dataclass(frozen=True)
class ImportLine:
    module: str
    lineno: int


@dataclass(frozen=True)
class ParsedFile:
    # (first, last) line numbers of the header prefix, or None. Blank and
    # comment-only lines inside the prefix are tolerated; the span ends at
    # the last header-keyword line before the first code line, capped at
    # HEADER_BOUND lines.
    header_span: tuple[int, int] | None
    imports: tuple[ImportLine, ...]
    declarations: tuple[Declaration, ...]
    stray_lines: tuple[int, ...]    # non-blank code lines outside header/units
    line_count: int


def parse_file(text: str) -> ParsedFile:
    return analyse(text).parsed


@dataclass(frozen=True)
class Analysis:
    """Everything read from one file text, computed in one linear pass.

    ``body_terms`` and ``decl_holes`` run parallel to
    ``parsed.declarations``: each declaration's body term, interpreted once
    from its masked tokens when its unit is read, and the placeholder ranges
    inside each declaration.
    """

    masked: str
    line_starts: tuple[int, ...]
    noncode: tuple[tuple[str, int, int], ...]
    hole_ranges: tuple[SourceRange, ...]
    parsed: ParsedFile
    body_terms: tuple[BodyTerm, ...]
    decl_holes: tuple[tuple[SourceRange, ...], ...]


def analyse(text: str) -> Analysis:
    """The analysis of ``text``.

    Results are memoised by text in a least-recently-used memo of at most
    ``ANALYSIS_MEMO_SIZE`` entries. On a miss, the analysis starts from the
    memoised analysis that lets it keep the most text: it keeps that
    analysis's declaration units the edit cannot reach before it
    (``_kept_units``) and after it (``_kept_tail``), and reads only the
    lines between. After the edit, it keeps the units from the first one
    whose first line no comment or string of the base crosses; it keeps
    none there when a comment or string of ``text`` crosses that line, or
    when the edit would change that unit's docstring or unit start. It
    reads the whole text when no unit can be kept. Either way the result
    equals a fresh analysis of ``text``, field for field. An analysis is
    immutable and a pure function of the text, so sharing one between
    callers is safe.
    """
    analysis = _memo.get(text)
    if analysis is None:
        analysis = _analyse(text, *_resume_point(text))
        _memo[text] = analysis
        if len(_memo) > ANALYSIS_MEMO_SIZE:
            _memo.popitem(last=False)
    else:
        _memo.move_to_end(text)
    return analysis


def _mask(text: str, spans: list[tuple[str, int, int]], start: int, end: int) -> str:
    """``text[start:end]`` with every character of ``spans`` but newlines
    blanked; the spans lie within it."""
    parts = []
    done = start
    for _, a, b in spans:
        parts.append(text[done:a])
        parts.append(_NOT_NEWLINE_RE.sub(" ", text[a:b]))
        done = b
    parts.append(text[done:end])
    return "".join(parts)


def _header_span(masked_lines: list[str]) -> tuple[int, int] | None:
    last_header = None
    for lineno, line in enumerate(masked_lines[:HEADER_BOUND]):
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


def _analyse(
    text: str, base: Analysis | None = None, kept: int = 0, tail: int = 0
) -> Analysis:
    """The analysis of ``text``, read in one left-to-right pass.

    With ``kept`` > 0, the pass reuses the first ``kept`` declaration units
    of ``base`` and starts at the line after them. The caller
    (``_kept_units``) guarantees that ``text`` has the same lines as the
    base's text up to that point, and that no comment or string of the base
    crosses it, so everything read before it is the same in both texts.

    With ``tail`` > 0, the pass also reuses the last ``tail`` units of
    ``base`` and stops at the line where the first of them starts. The
    caller (``_kept_tail``) guarantees that ``text`` ends with the base's
    text from the line break before that line, and that no comment or
    string of the base crosses that line's start. The pass checks what also
    depends on the lines it reads: that no comment or string of ``text``
    crosses that line's start either, and that the first kept unit would
    get the same docstring and unit start if it were read now. If both
    hold, everything from that line on is the base's, moved by the change
    in length and line count; otherwise the pass reads to the end of the
    text as with ``tail`` = 0.
    """
    stop = len(text)
    if tail:
        first_tail = base.parsed.declarations[-tail]
        tail_line = first_tail.range.start_line
        tail_start = base.line_starts[tail_line]
        stop = tail_start + len(text) - len(base.masked)
    if kept:
        # lines before ``first`` come from the base and are never read again
        declarations = list(base.parsed.declarations[:kept])
        first = declarations[-1].range.end_line
        resume = base.line_starts[first]
        spans = list(base.noncode[: bisect_left(base.noncode, resume, key=itemgetter(1))])
        kept_holes = bisect_left(base.hole_ranges, first, key=attrgetter("start_line"))
        holes = list(base.hole_ranges[:kept_holes])
        stray_lines = base.parsed.stray_lines
        stray = list(stray_lines[: bisect_left(stray_lines, first)])
        bodies = list(base.body_terms[:kept])
        decl_holes = list(base.decl_holes[:kept])
        starts = list(base.line_starts[:first]) + line_starts(text, resume, stop)
        header_span, imports = base.parsed.header_span, list(base.parsed.imports)
        prefix = base.masked[:resume]
    else:
        declarations, spans, holes, stray, bodies, decl_holes = [], [], [], [], [], []
        first = resume = 0
        starts = line_starts(text, 0, stop)
        prefix = ""
    new_spans = noncode_spans(text, resume, stop)
    if tail and _crosses(new_spans, stop):
        return _analyse(text, base, kept)
    fresh = _mask(text, new_spans, resume, stop)
    masked = prefix + fresh
    # blank stand-ins for the kept lines keep line numbers as list indexes
    masked_lines = [""] * first + fresh.split("\n")
    if tail:
        masked_lines.pop()  # the start of the first kept tail line
    n_lines = len(masked_lines)

    new_holes = []
    for m in _IDENT_RE.finditer(masked, resume):
        if m.group(0) == HOLE_TOKEN:
            sl, sc = offset_to_pos(text, m.start(), starts)
            el, ec = offset_to_pos(text, m.end(), starts)
            new_holes.append(SourceRange(sl, sc, el, ec))

    if not kept:
        # a kept tail starts with a declaration line, which ends the header
        header_span = _header_span(masked_lines)
        imports = []
        for lineno in range(header_span[1] + 1 if header_span else 0):
            parts = masked_lines[lineno].strip().split()
            if len(parts) >= 2 and parts[0] == "import":
                imports.append(ImportLine(module=parts[1], lineno=lineno))
    header_end = header_span[1] if header_span else -1

    # docstring spans by (start_line, end_line); both lines ascend with the
    # span order because noncode spans are disjoint and sorted. Of the
    # base's docstrings, only one that ends on the last kept line, where it
    # shares a line with code, can still attach to a declaration read now.
    doc_spans = []
    for kind, a, b in reversed(spans):
        if b <= starts[first - 1]:
            break
        if kind == "block" and text.startswith("/--", a):
            doc_spans.append(_doc_span(text, a, b, starts))
            break
    for kind, a, b in new_spans:
        if kind == "block" and text.startswith("/--", a):
            doc_spans.append(_doc_span(text, a, b, starts))

    # last_code[k]: the last non-blank masked line before line k, or -1; a
    # kept unit's last line is code
    last_code = [-1] * (n_lines + 1)
    last_code[first] = first - 1
    for lineno in range(first, n_lines):
        last_code[lineno + 1] = lineno if masked_lines[lineno].strip() else last_code[lineno]

    decl_starts = []
    for lineno in range(max(header_end + 1, first), n_lines):
        parts = masked_lines[lineno].split()
        if parts and parts[0] in DECL_KINDS:
            decl_starts.append(lineno)
    if tail:
        decl_starts.append(n_lines)

    covered = bytearray(n_lines)
    covered[: header_end + 1] = b"\x01" * (header_end + 1)
    next_doc = 0
    for idx, start in enumerate(decl_starts):
        # the docstring is the last one ending above the declaration, if
        # only blank lines separate the two; when that one is cut off by
        # code, every earlier one is too, so one forward pointer suffices
        while next_doc < len(doc_spans) and doc_spans[next_doc][1] < start:
            next_doc += 1
        doc = None
        if next_doc and last_code[start] <= doc_spans[next_doc - 1][1]:
            doc = doc_spans[next_doc - 1]
        unit_start = start
        if doc is not None and (not declarations or doc[0] > declarations[-1].range.end_line):
            unit_start = doc[0]
        if start == n_lines:
            # the first kept tail unit: what the lines read now decide of it
            # must be what they decided in the base
            if (doc[2].strip() if doc else None) != first_tail.docstring or (
                start - unit_start != tail_line - first_tail.unit_range.start_line
            ):
                return _analyse(text, base, kept)
            covered[unit_start:] = b"\x01" * (n_lines - unit_start)
            break
        end = decl_starts[idx + 1] - 1 if idx + 1 < len(decl_starts) else n_lines - 1
        # trim trailing blank lines off the unit
        while end > start and not masked_lines[end].strip():
            end -= 1
        declarations.append(
            _parse_declaration(text, masked, starts, start, end, unit_start, doc)
        )
        covered[unit_start : end + 1] = b"\x01" * (end + 1 - unit_start)

    stray.extend(
        lineno
        for lineno in range(max(header_end + 1, first), n_lines)
        if not covered[lineno] and masked_lines[lineno].strip()
    )

    # the holes of a declaration read now are new: they lie in its lines
    hole_starts = [h.start for h in new_holes]
    for decl in declarations[kept:]:
        body = decl.body_range
        a = pos_to_offset(text, body.start_line, body.start_col, starts)
        b = pos_to_offset(text, body.end_line, body.end_col, starts)
        bodies.append(interpret_body(masked[a:b].split()))
        # a placeholder is one token on one line, so it lies in a
        # declaration iff it starts inside the declaration's lines
        lo = bisect_left(hole_starts, decl.range.start)
        hi = bisect_left(hole_starts, decl.range.end, lo)
        decl_holes.append(tuple(new_holes[lo:hi]))

    if tail:
        # the kept tail: the same columns, ``chars`` further on, ``lines``
        # lines further down
        chars, lines = stop - tail_start, n_lines - tail_line
        tail_starts = base.line_starts[tail_line + 1 :]
        tail_spans = base.noncode[bisect_left(base.noncode, tail_start, key=itemgetter(1)) :]
        if chars:
            tail_starts = [offset + chars for offset in tail_starts]
            tail_spans = [(kind, a + chars, b + chars) for kind, a, b in tail_spans]
        tail_decls = base.parsed.declarations[-tail:]
        tail_decl_holes = base.decl_holes[-tail:]
        tail_holes = base.hole_ranges[
            bisect_left(base.hole_ranges, tail_line, key=attrgetter("start_line")) :
        ]
        tail_stray = base.parsed.stray_lines[bisect_left(base.parsed.stray_lines, tail_line) :]
        if lines:
            tail_decls = [_moved_declaration(decl, lines) for decl in tail_decls]
            tail_decl_holes = [_moved_ranges(hs, lines) for hs in tail_decl_holes]
            tail_holes = _moved_ranges(tail_holes, lines)
            tail_stray = [lineno + lines for lineno in tail_stray]
        masked += base.masked[tail_start:]
        starts.extend(tail_starts)
        new_spans.extend(tail_spans)
        new_holes.extend(tail_holes)
        stray.extend(tail_stray)
        declarations.extend(tail_decls)
        bodies.extend(base.body_terms[-tail:])
        decl_holes.extend(tail_decl_holes)
        n_lines += base.parsed.line_count - tail_line

    parsed = ParsedFile(
        header_span=header_span,
        imports=tuple(imports),
        declarations=tuple(declarations),
        stray_lines=tuple(stray),
        line_count=n_lines,
    )
    return Analysis(
        masked=masked,
        line_starts=tuple(starts),
        noncode=tuple(spans + new_spans),
        hole_ranges=tuple(holes + new_holes),
        parsed=parsed,
        body_terms=tuple(bodies),
        decl_holes=tuple(decl_holes),
    )


def _moved_ranges(ranges: Sequence[SourceRange], lines: int) -> tuple[SourceRange, ...]:
    return tuple(
        SourceRange(r.start_line + lines, r.start_col, r.end_line + lines, r.end_col)
        for r in ranges
    )


def _moved_declaration(decl: Declaration, lines: int) -> Declaration:
    """``decl`` moved ``lines`` lines down."""
    rng, unit_rng, body_rng = _moved_ranges(
        (decl.range, decl.unit_range, decl.body_range), lines
    )
    return replace(decl, range=rng, unit_range=unit_rng, body_range=body_rng)


def _doc_span(text: str, a: int, b: int, starts: list[int]) -> tuple[int, int, str]:
    """(start_line, end_line, inner text) of the docstring span [a, b)."""
    sl, _ = offset_to_pos(text, a, starts)
    el, _ = offset_to_pos(text, max(a, b - 1), starts)
    return sl, el, text[a + 3 : max(a + 3, b - 2)]


def _resume_point(text: str) -> tuple[Analysis | None, int, int]:
    """The memoised analysis to start ``text``'s analysis from, and how many
    of its declaration units to keep at the front and at the end: the one
    that keeps the most text, or (None, 0, 0) when none keeps a unit."""
    best: tuple[Analysis | None, int, int] = (None, 0, 0)
    best_reused = 0
    for base_text, base in _memo.items():
        decls = base.parsed.declarations
        if not decls:
            continue
        starts = base.line_starts
        kept = tail = 0
        # a base keeps front units only if text keeps its first two
        # declaration lines, and tail units only if text ends with its last
        # declaration from the line break before it: one startswith and one
        # endswith reject every other text
        after = decls[1].range.start_line + 1 if len(decls) > 1 else len(starts)
        if after < len(starts) and text.startswith(base_text[: starts[after]]):
            kept = _kept_units(text, base_text, base)
        resume = starts[decls[kept - 1].range.end_line] if kept else 0
        last = starts[decls[-1].range.start_line]
        if last and text.endswith(base_text[last - 1 :]):
            tail = _kept_tail(text, base_text, base, kept, resume)
        reused = resume
        if tail:
            reused += len(base_text) - starts[decls[-tail].range.start_line]
        if reused > best_reused:
            best, best_reused = (base, kept, tail), reused
    return best


def _kept_units(text: str, base_text: str, base: Analysis) -> int:
    """How many of a candidate ``base``'s declaration units ``text`` keeps
    at the front.

    Let d be the line of the first character where the two texts differ; a
    candidate's second declaration starts before d. The base's declarations
    that start before line d are kept, except the last of them, whose end
    can still move. None is kept (0) when a comment or string of the base
    crosses the offset where the kept units end: the scan would resume
    inside it.
    """
    decls = base.parsed.declarations
    starts = base.line_starts
    lo, hi = 1, len(decls) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        # does text have the base's lines through declaration mid's first?
        after = decls[mid].range.start_line + 1
        if after < len(starts) and text.startswith(base_text[: starts[after]]):
            lo = mid
        else:
            hi = mid - 1
    resume = starts[decls[lo - 1].range.end_line]
    if _crosses(base.noncode, resume):
        return 0
    return lo


def _kept_tail(text: str, base_text: str, base: Analysis, kept: int, resume: int) -> int:
    """How many of a candidate ``base``'s declaration units ``text`` keeps
    at the end, after the ``kept`` front units that end at ``resume``.

    A unit after the front units is kept, with every unit after it, when
    ``text`` ends with the base's text from the line break before the
    unit's first line, at an offset of ``text`` not before ``resume``. The
    first such unit is found by bisection; a candidate's last unit is one.
    A comment or string of the base that crosses the start of that unit's
    first line would not let the scan there start afresh, so the tail then
    starts at the first unit after the span instead; none is kept (0) when
    no unit starts after it.
    """
    decls = base.parsed.declarations
    starts = base.line_starts
    grow = len(text) - len(base_text)

    def first_offset(decl: Declaration) -> int:
        return starts[decl.range.start_line]

    def keeps(idx: int) -> bool:
        at = first_offset(decls[idx])
        return 0 < at and resume <= at + grow and text.endswith(base_text[at - 1 :])

    lo, hi = kept, len(decls) - 1
    if not keeps(hi):
        return 0
    while lo < hi:
        mid = (lo + hi) // 2
        if keeps(mid):
            hi = mid
        else:
            lo = mid + 1
    while lo < len(decls):
        at = first_offset(decls[lo])
        if not _crosses(base.noncode, at):
            return len(decls) - lo
        span_end = base.noncode[bisect_left(base.noncode, at, key=itemgetter(1)) - 1][2]
        lo = bisect_left(decls, span_end, lo + 1, key=first_offset)
    return 0


def _crosses(spans: Sequence[tuple[str, int, int]], offset: int) -> bool:
    """Whether a span of ``spans`` starts before ``offset`` and ends after it."""
    i = bisect_left(spans, offset, key=itemgetter(1))
    return bool(i) and spans[i - 1][2] > offset


_memo: OrderedDict[str, Analysis] = OrderedDict()


def _parse_declaration(
    text: str,
    masked: str,
    starts: list[int],
    start: int,
    end: int,
    unit_start: int,
    doc: tuple[int, int, str] | None,
) -> Declaration:
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
        m = _DOC_META_RE.search(first_line)
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
    name: str | None = None
    colon: int
    if kind == "example":
        colon = head_masked.find(":")
    else:
        if len(head_tokens) < 2 or not _IDENT_RE.fullmatch(head_tokens[1]):
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


@dataclass(frozen=True)
class BodyTerm:
    """Interpreted declaration body: a hole, a reference, or unsupported."""

    is_hole: bool = False
    reference: str | None = None
    error: str | None = None


def interpret_body(body_masked_tokens: Sequence[str]) -> BodyTerm:
    tokens = list(body_masked_tokens)
    if tokens and tokens[0] == "by":
        tokens = tokens[1:]
    if tokens and tokens[0] == "exact":
        tokens = tokens[1:]
    if len(tokens) != 1:
        return BodyTerm(error="unsupported term")
    tok = tokens[0]
    if tok == HOLE_TOKEN:
        return BodyTerm(is_hole=True)
    if _IDENT_RE.fullmatch(tok):
        return BodyTerm(reference=tok)
    return BodyTerm(error=f"unsupported term {tok!r}")


def module_name(file_id: str) -> str:
    """Dotted module name of a project-relative file path."""
    path = file_id[:-5] if file_id.endswith(".lean") else file_id
    return path.replace("/", ".")


def module_file(module: str) -> str:
    return module.replace(".", "/") + ".lean"
