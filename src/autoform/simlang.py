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

``analyse`` reads a file text once, in one linear pass, and keeps no
state: the ``Project`` keeps each file's analysis with its bytes, so each
content is analysed once. ``parse_file`` is ``analyse`` without a base. An
``Analysis`` holds the file's header span, imports, declarations and stray
lines; each ``Declaration`` holds its body term and its placeholders. A
file's placeholders are its ``hole_ranges``, and its line count is
``len(line_starts)``. The pass masks comments and strings, finds the
declaration lines with one search, and reads each declaration unit once;
positions come from the line numbers the pass already has, and
placeholders are found by substring search with an identifier-boundary
check.

A text that edits another is read only between the declarations the edit
cannot reach on either side, so appending a declaration, or patching one
in the middle of a file, costs that declaration, not the file. The base is
the text the edit replaced, which the caller passes (``Project.analysis``
passes the entry a staged edit replaced); with no base the text is read
whole.

A part of a split is built from the split file's text and analysis
(``split_units``, ``split_part``): its units are the file's, held
verbatim, so their declarations, placeholders and comment and string spans
are moved into the part, not read again; only the part's few head lines
are read.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter

from .diagnostics import SourceRange, line_starts

HOLE_TOKEN = "sorry"
DECL_KINDS = ("theorem", "lemma", "def", "abbrev", "example", "instance", "axiom")
DEFINITION_KINDS = frozenset({"def", "abbrev"})
HEADER_KEYWORDS = ("import", "namespace", "section", "open")
HEADER_BOUND = 64

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.']*")
_MODULE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*(?:\.[A-Za-z_][A-Za-z0-9_']*)*")
_IDENT_STARTS = frozenset(string.ascii_letters + "_")
_IDENT_CHARS = _IDENT_STARTS | frozenset(string.digits + ".'")
# the line break before a line whose first word is a declaration kind
_DECL_LINE_RE = re.compile(r"\n[^\S\n]*(?:%s)(?!\S)" % "|".join(DECL_KINDS))
_DOC_META_RE = re.compile(r"\[(\d+)\]\s?(.*)")
_NONCODE_OPEN_RE = re.compile(r'--|/-|"')
_BLOCK_DELIM_RE = re.compile(r"/-|-/")
_STRING_STOP_RE = re.compile(r'[\\"]')
_NOT_NEWLINE_RE = re.compile("[^\n]")
_new_tuple = tuple.__new__


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


@dataclass(frozen=True)
class Declaration:
    kind: str
    name: str | None
    type_text: str
    range: SourceRange          # declaration lines, excluding docstring
    unit_range: SourceRange     # docstring + declaration lines
    body_range: SourceRange
    term: BodyTerm              # the body, interpreted from its masked tokens
    holes: tuple[SourceRange, ...]  # placeholders on the declaration lines
    docstring: str | None = None
    doc_index: int | None = None
    doc_label: str | None = None
    malformed: str | None = None


def declaration_at(declarations: Sequence[Declaration], rng: SourceRange) -> int | None:
    """The index of the declaration ``rng`` meets, or None: declarations are
    disjoint and in order, so only the first that ends after ``rng`` starts can."""
    i = bisect_right(declarations, rng.start, key=lambda d: d.range.end)
    return i if i < len(declarations) and declarations[i].range.intersects(rng) else None


@dataclass(frozen=True)
class ImportLine:
    module: str
    lineno: int


@dataclass(frozen=True)
class Analysis:
    """Everything read from one file text, computed in one linear pass."""

    masked: str
    line_starts: tuple[int, ...]
    noncode: tuple[tuple[str, int, int], ...]
    hole_ranges: tuple[SourceRange, ...]
    # (first, last) line numbers of the header prefix, or None. Blank and
    # comment-only lines inside the prefix are tolerated; the span ends at
    # the last header-keyword line before the first code line, capped at
    # HEADER_BOUND lines.
    header_span: tuple[int, int] | None
    imports: tuple[ImportLine, ...]
    declarations: tuple[Declaration, ...]
    stray_lines: tuple[int, ...]    # non-blank code lines outside header/units


def parse_file(text: str) -> Analysis:
    return analyse(text)


def analyse(text: str, base: tuple[str, Analysis] | None = None) -> Analysis:
    """The analysis of ``text``, a pure function of it.

    The analysis starts from ``base``, a text and its analysis that the
    caller knows ``text`` was made from (``Project.analysis`` passes the
    entry a staged edit replaced); without one it reads the whole text.
    It keeps the base's declaration units the edit cannot reach before it
    (``_kept_units``) and after it (``_kept_tail``), and reads only the
    lines between. Before the edit, it keeps every unit whose lines ``text``
    keeps through the unit's last line; it keeps one fewer when code
    follows the last of them, which then ends further down. When a comment
    or string of the base runs on past their end or to the end of the base
    text, it keeps only the units that end above the line where that span
    starts. After the edit, it keeps the units from the first one
    whose first line no comment or string of the base crosses; it keeps
    none there when a comment or string of ``text`` crosses that line, or
    when the edit would change that unit's docstring or unit start. It
    reads the whole text when no unit can be kept. Either way the result
    equals a fresh analysis of ``text``, field for field. An analysis is
    immutable, so sharing one between callers is safe.
    """
    return _analyse(text, *_resume_point(text, base))


def _mask(text: str, spans: list[tuple[str, int, int]], start: int, end: int) -> str:
    """``text[start:end]`` with every character of ``spans`` but newlines
    blanked; the spans lie within it."""
    parts = []
    done = start
    for _, a, b in spans:
        parts.append(text[done:a])
        if text.find("\n", a, b) == -1:
            parts.append(" " * (b - a))
        else:
            parts.append(_NOT_NEWLINE_RE.sub(" ", text[a:b]))
        done = b
    parts.append(text[done:end])
    return "".join(parts)


def _header(
    masked: str, starts: list[int], n_lines: int
) -> tuple[tuple[int, int] | None, list[ImportLine]]:
    """The header span and the imports in it."""
    last_header = None
    imports = []
    for lineno in range(min(n_lines, HEADER_BOUND)):
        end = starts[lineno + 1] - 1 if lineno + 1 < len(starts) else len(masked)
        words = masked[starts[lineno] : end].split()
        if not words:
            continue
        if words[0] not in HEADER_KEYWORDS:
            break
        last_header = lineno
        if words[0] == "import" and len(words) >= 2:
            imports.append(ImportLine(module=words[1], lineno=lineno))
    return (None if last_header is None else (0, last_header)), imports


def _analyse(
    text: str, base: Analysis | None = None, kept: int = 0, tail: int = 0
) -> Analysis:
    """The analysis of ``text``, read in one left-to-right pass.

    With ``kept`` > 0, the pass reuses the first ``kept`` declaration units
    of ``base`` and starts at the line after them. The caller
    (``_kept_units``) guarantees that ``text`` has the same lines as the
    base's text up to that point. The pass checks the rest. If a comment or
    string of the base crosses that point, or runs to the end of the base
    text, where ``text`` may carry it on, it keeps only the units that end
    above the line where that comment or string starts. If the lines it
    reads hold code above the first declaration line, that code extends
    the last kept unit, so it keeps one unit fewer. Otherwise everything
    before that point is the same in both texts.

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

    The lines read are found by offset: one search finds the declaration
    lines, each unit is read once by ``_parse_declaration``, and a
    position is a line the pass already knows plus a column.
    """
    stop = len(text)
    if tail:
        first_tail = base.declarations[-tail]
        tail_line = first_tail.range.start_line
        tail_start = base.line_starts[tail_line]
        stop = tail_start + len(text) - len(base.masked)
    if kept:
        # lines before ``first`` come from the base and are never read again
        first = base.declarations[kept - 1].range.end_line
        resume = base.line_starts[first]
        spans = list(base.noncode[: bisect_left(base.noncode, resume, key=itemgetter(1))])
        if spans and spans[-1][2] >= resume:
            # a comment or string of the base crosses the resume offset, or
            # runs to the end of the base text, where text may carry it on:
            # keep only the units that end above the line it starts on
            kept = bisect_right(
                base.declarations,
                spans[-1][1],
                hi=kept,
                key=lambda d: base.line_starts[d.range.end_line],
            )
            return _analyse(text, base, kept, tail)
        declarations = list(base.declarations[:kept])
        kept_holes = bisect_left(base.hole_ranges, first, key=attrgetter("start_line"))
        holes = list(base.hole_ranges[:kept_holes])
        stray_lines = base.stray_lines
        stray = list(stray_lines[: bisect_left(stray_lines, first)])
        starts = list(base.line_starts[:first]) + line_starts(text, resume, stop)
        header_span, imports = base.header_span, base.imports
        prefix = base.masked[:resume]
    else:
        declarations, spans, holes, stray = [], [], [], []
        first = resume = 0
        starts = line_starts(text, 0, stop)
        prefix = ""
    new_spans = noncode_spans(text, resume, stop)
    if tail and _crosses(new_spans, stop):
        return _analyse(text, base, kept)
    fresh = _mask(text, new_spans, resume, stop)
    masked = prefix + fresh
    # lines [first, n_lines) are read now; with a tail, ``starts`` also
    # holds the start of the tail's first line, ``stop``
    n_lines = len(starts) - 1 if tail else len(starts)

    if not kept:
        # a kept tail starts with a declaration line, which ends the header
        header_span, imports = _header(masked, starts, n_lines)
    header_end = header_span[1] if header_span else -1

    # a declaration line starts with its kind, and no header line does; a
    # line break put before the lines read lets one search find them all
    decl_starts = []
    lineno = first
    for m in _DECL_LINE_RE.finditer("\n" + fresh):
        lineno = bisect_left(starts, resume + m.start(), lineno)
        decl_starts.append(lineno)
    if tail:
        decl_starts.append(n_lines)

    # docstring spans as (offset of the last character, start, end), in
    # order of both offsets because noncode spans are disjoint and sorted.
    # Of the base's docstrings, only one that ends on the last kept line,
    # where it shares a line with code, can still attach to a declaration
    # read now.
    doc_spans = []
    for kind, a, b in reversed(spans):
        if b <= starts[first - 1]:
            break
        if kind == "block" and text.startswith("/--", a):
            doc_spans.append((max(a, b - 1), a, b))
            break
    for kind, a, b in new_spans:
        if kind == "block" and text.startswith("/--", a):
            doc_spans.append((max(a, b - 1), a, b))

    # the lines above the first declaration: placeholders, and the last
    # line with code (a kept unit's last line is code)
    above = starts[decl_starts[0]] if decl_starts else stop
    code = masked[resume:above].rstrip()
    if kept and code:
        # the code belongs to the last kept unit, whose end moves: read it again
        return _analyse(text, base, kept - 1, tail)
    new_holes = list(_holes(masked, resume, above, first, starts))
    last_code = first + code.count("\n") if code else first - 1

    first_unit = n_lines
    next_doc = 0
    for idx, start in enumerate(decl_starts):
        at = starts[start]
        # the docstring is the last one ending above the declaration, if
        # only blank lines separate the two; when that one is cut off by
        # code, every earlier one is too, so one forward pointer suffices
        while next_doc < len(doc_spans) and doc_spans[next_doc][0] < at:
            next_doc += 1
        doc = None
        if next_doc:
            doc_last, a, b = doc_spans[next_doc - 1]
            if last_code < 0 or doc_last >= starts[last_code]:
                doc = (start - masked.count("\n", a, at), text[a + 3 : max(a + 3, b - 2)])
        unit_start = start
        if doc is not None and (not declarations or doc[0] > declarations[-1].range.end_line):
            unit_start = doc[0]
        if not idx:
            first_unit = unit_start
        if start == n_lines:
            # the first kept tail unit: what the lines read now decide of it
            # must be what they decided in the base
            if (doc[1].strip() if doc else None) != first_tail.docstring or (
                start - unit_start != tail_line - first_tail.unit_range.start_line
            ):
                return _analyse(text, base, kept)
            break
        # the unit ends on its last line with code before the next one
        after = decl_starts[idx + 1] if idx + 1 < len(decl_starts) else n_lines
        limit = starts[after] - 1 if after < len(starts) else stop
        end = last_code = start + masked[at:limit].rstrip().count("\n")
        decl = _parse_declaration(text, masked, starts, start, end, unit_start, doc, at)
        declarations.append(decl)
        new_holes.extend(decl.holes)

    # only a line above the first unit can be outside every unit and hold code
    lo = max(header_end + 1, first)
    if lo < first_unit:
        region = masked[starts[lo] : starts[first_unit] if first_unit < len(starts) else stop]
        stray.extend(lo + k for k, line in enumerate(region.split("\n")) if line.strip())

    if tail:
        # the kept tail: the same columns, ``chars`` further on, ``lines``
        # lines further down
        chars, lines = stop - tail_start, n_lines - tail_line
        tail_starts = base.line_starts[tail_line + 1 :]
        tail_spans = base.noncode[bisect_left(base.noncode, tail_start, key=itemgetter(1)) :]
        if chars:
            tail_starts = [offset + chars for offset in tail_starts]
            tail_spans = [(kind, a + chars, b + chars) for kind, a, b in tail_spans]
        tail_decls = base.declarations[-tail:]
        tail_holes = base.hole_ranges[
            bisect_left(base.hole_ranges, tail_line, key=attrgetter("start_line")) :
        ]
        tail_stray = base.stray_lines[bisect_left(base.stray_lines, tail_line) :]
        if lines:
            tail_decls = [_moved_declaration(decl, lines) for decl in tail_decls]
            tail_holes = _moved_ranges(tail_holes, lines)
            tail_stray = [lineno + lines for lineno in tail_stray]
        masked += base.masked[tail_start:]
        starts.extend(tail_starts)
        new_spans.extend(tail_spans)
        new_holes.extend(tail_holes)
        stray.extend(tail_stray)
        declarations.extend(tail_decls)

    return Analysis(
        masked=masked,
        line_starts=tuple(starts),
        noncode=tuple(spans + new_spans),
        hole_ranges=tuple(holes + new_holes),
        header_span=header_span,
        imports=tuple(imports),
        declarations=tuple(declarations),
        stray_lines=tuple(stray),
    )


def split_units(text: str, analysis: Analysis) -> list[tuple[Declaration, int]]:
    """Each declaration of ``text`` with the first of the lines a split
    takes for its unit, which end on the declaration's last line: the
    unit's first line, or that of a docstring that starts on the line right
    after the declaration before, and so lies above the unit on lines of
    its own. A docstring that shares a line with the code before it is not
    taken."""
    starts, spans = analysis.line_starts, analysis.noncode
    units = []
    below = 0  # the first line after the declaration before
    for decl in analysis.declarations:
        first = decl.unit_range.start_line
        if decl.docstring is not None and first == decl.range.start_line:
            # the docstring is the last one that ends above the declaration
            at = starts[first]
            i = bisect_left(spans, at, key=itemgetter(1))
            while i:
                i -= 1
                kind, a, b = spans[i]
                if kind == "block" and b <= at and text.startswith("/--", a):
                    break
            doc_line = bisect_right(starts, a) - 1
            if doc_line >= below:
                first = doc_line
        units.append((decl, first))
        below = decl.range.end_line
    return units


def split_part(
    text: str,
    analysis: Analysis,
    head: Sequence[str],
    units: Sequence[tuple[Declaration, int]],
) -> tuple[str, Analysis]:
    """The text of one part of a split of ``text``, and its analysis.

    The part is the ``head`` lines and a blank line, when there is a head,
    then the ``units`` (``split_units``), each held verbatim with one blank
    line between, and a line break. The head is read afresh, as it is only
    a few lines. Each unit's declaration, placeholders and comment and
    string spans are ``analysis``'s, moved by the unit's line and character
    offsets in the part (``_moved_part``). When ``analysis`` cannot vouch
    for a unit in its new place, the part is read whole instead. Either way
    the analysis equals ``analyse`` of the part's text.
    """
    starts = analysis.line_starts
    head_text = "\n".join(head) + "\n\n" if head else ""
    # each unit's offsets in ``text``: from its first line to its last line's end
    bounds = [
        (
            starts[first],
            starts[decl.range.end_line] - 1 if decl.range.end_line < len(starts) else len(text),
        )
        for decl, first in units
    ]
    part_text = head_text + "\n\n".join(text[a:b] for a, b in bounds) + "\n"
    moved = _moved_part(text, analysis, head_text, len(head), units, bounds)
    return part_text, moved or _analyse(part_text)


def _moved_part(
    text: str,
    analysis: Analysis,
    head_text: str,
    head_lines: int,
    units: Sequence[tuple[Declaration, int]],
    bounds: list[tuple[int, int]],
) -> Analysis | None:
    """The analysis of the part ``split_part`` builds: ``head_text`` read
    afresh, then the units of ``analysis`` at ``bounds``, moved. None when
    ``analysis`` cannot vouch for a unit in its new place: a comment or
    string crosses one of the unit's ends, or may be unterminated at the
    end of ``text``; the unit's docstring is not among its lines; its lines
    start in the header. None too when the head does not read as a header
    with nothing open at its end, or there is no unit."""
    fresh = _analyse(head_text)
    if (
        not units
        or fresh.declarations
        or fresh.stray_lines
        or fresh.header_span != ((0, head_lines - 1) if head_lines else None)
        or (fresh.noncode and fresh.noncode[-1][2] > len(head_text) - 2)
    ):
        return None
    starts, spans = analysis.line_starts, analysis.noncode
    header_end = analysis.header_span[1] if analysis.header_span else -1
    masked = [fresh.masked]
    part_starts = list(fresh.line_starts[:-1])
    part_spans = list(fresh.noncode)
    holes = list(fresh.hole_ranges)
    declarations = []
    offset, line = len(head_text), len(part_starts)
    # one walk over the spans, from the last one that starts before the first unit
    j = max(bisect_left(spans, bounds[0][0], key=itemgetter(1)) - 1, 0)
    for (decl, first), (a, b) in zip(units, bounds):
        if first <= header_end or (decl.docstring is not None and first == decl.range.start_line):
            return None
        while j < len(spans) and spans[j][1] < a:  # above the unit: none may run into it
            if spans[j][2] > a:
                return None
            j += 1
        lo = j
        while j < len(spans) and spans[j][1] < b:
            j += 1
        if j > lo:
            kind, _, last_end = spans[j - 1]
            if last_end > b or (last_end == len(text) and kind != "line"):
                return None
        chars, lines = offset - a, line - first
        end_line = decl.range.end_line
        masked.append(analysis.masked[a:b])
        masked.append("\n\n")
        part_starts.extend([start + chars for start in starts[first:end_line]])
        part_starts.append(offset + b - a + 1)  # the blank line after the unit
        part_spans.extend([(kind, x + chars, y + chars) for kind, x, y in spans[lo:j]])
        moved = _moved_declaration(decl, lines) if lines else decl
        if first != decl.unit_range.start_line:
            # a docstring taken from above the unit starts it in the part
            unit_rng = SourceRange(first + lines, 0, end_line + lines, 0)
            moved = replace(moved, unit_range=unit_rng)
        declarations.append(moved)
        holes.extend(moved.holes)
        offset += b - a + 2
        line += end_line - first + 1
    masked[-1] = "\n"  # the last unit ends the part with one line break
    return Analysis(
        masked="".join(masked),
        line_starts=tuple(part_starts),
        noncode=tuple(part_spans),
        hole_ranges=tuple(holes),
        header_span=fresh.header_span,
        imports=fresh.imports,
        declarations=tuple(declarations),
        stray_lines=(),
    )


def _moved_range(r: SourceRange, lines: int) -> SourceRange:
    # a range moved by whole lines is still a range: no check is needed
    start_line, start_col, end_line, end_col = r
    return _new_tuple(SourceRange, (start_line + lines, start_col, end_line + lines, end_col))


def _moved_ranges(ranges: Sequence[SourceRange], lines: int) -> tuple[SourceRange, ...]:
    return tuple([_moved_range(r, lines) for r in ranges])


def _moved_declaration(decl: Declaration, lines: int) -> Declaration:
    """``decl`` moved ``lines`` lines down, with its placeholders. The copy
    takes the fields of ``decl`` as they are, which costs a fraction of
    ``replace``, whose ``__init__`` sets each field again."""
    moved = object.__new__(Declaration)
    moved.__dict__.update(
        decl.__dict__,
        range=_moved_range(decl.range, lines),
        unit_range=_moved_range(decl.unit_range, lines),
        body_range=_moved_range(decl.body_range, lines),
        holes=_moved_ranges(decl.holes, lines),
    )
    return moved


def _resume_point(
    text: str, base: tuple[str, Analysis] | None = None
) -> tuple[Analysis | None, int, int]:
    """The analysis to start ``text``'s analysis from, and how many of its
    declaration units to keep at the front and at the end: ``base``'s when
    it keeps some of its text, else (None, 0, 0)."""
    if base is None:
        return None, 0, 0
    base_text, analysis = base
    decls = analysis.declarations
    if not decls:
        return None, 0, 0
    starts = analysis.line_starts
    # the base keeps front units only if text keeps its first unit's lines
    # (``_kept_units``), and tail units only if text ends with its last
    # declaration from the line break before it: one startswith and one
    # endswith reject every other text
    kept = _kept_units(text, base_text, analysis)
    resume = starts[decls[kept - 1].range.end_line] if kept else 0
    last = starts[decls[-1].range.start_line]
    tail = 0
    if last and text.endswith(base_text[last - 1 :]):
        tail = _kept_tail(text, base_text, analysis, kept, resume)
    if not kept and not tail:
        return None, 0, 0
    return analysis, kept, tail


def _kept_units(text: str, base_text: str, base: Analysis) -> int:
    """How many of the ``base``'s declaration units ``text`` keeps at the
    front: every unit whose lines ``text`` keeps through the unit's last
    line, found by bisection; none (0) when it does not keep the first
    unit's. ``_analyse`` checks what the kept lines alone do not decide:
    that the scan can resume after them, and that the last kept unit still
    ends where it did.
    """
    decls = base.declarations
    starts = base.line_starts

    def keeps(k: int) -> bool:
        # does text have the base's lines through unit k - 1's last line?
        after = decls[k - 1].range.end_line
        return after < len(starts) and text.startswith(base_text[: starts[after]])

    if not keeps(1):
        return 0
    lo, hi = 1, len(decls)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if keeps(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _kept_tail(text: str, base_text: str, base: Analysis, kept: int, resume: int) -> int:
    """How many of the ``base``'s declaration units ``text`` keeps at the
    end, after the ``kept`` front units that end at ``resume``.

    A unit after the front units is kept, with every unit after it, when
    ``text`` ends with the base's text from the line break before the
    unit's first line, at an offset of ``text`` not before ``resume``. The
    first such unit is found by bisection; the base's last unit is one.
    A comment or string of the base that crosses the start of that unit's
    first line would not let the scan there start afresh, so the tail then
    starts at the first unit after the span instead; none is kept (0) when
    no unit starts after it.
    """
    decls = base.declarations
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


def _parse_declaration(
    text: str,
    masked: str,
    starts: list[int],
    start: int,
    end: int,
    unit_start: int,
    doc: tuple[int, str] | None,
    a: int,
) -> Declaration:
    """The declaration on lines [start, end], which begin at offset ``a``,
    read once, with its body term and its placeholders. ``doc`` is its
    docstring's (first line, inner text), or None."""
    b = starts[end + 1] - 1 if end + 1 < len(starts) else len(masked)
    unit = masked[a:b]
    rng = SourceRange(start, 0, end + 1, 0)
    unit_rng = rng if unit_start == start else SourceRange(unit_start, 0, end + 1, 0)

    docstring = doc_index = doc_label = None
    if doc is not None:
        docstring = doc[1].strip()
        m = _DOC_META_RE.search(docstring.splitlines()[0]) if docstring else None
        if m:
            doc_index = int(m.group(1))
            doc_label = m.group(2).strip()

    kind = unit.split(None, 1)[0]
    name = None
    type_text = ""
    body_rng = rng
    malformed = None
    assign = unit.find(":=")
    if assign == -1:
        malformed = "missing ':='"
        body = unit
    else:
        # the body runs from after ":=" to the end of the unit's last line
        body_off = assign + 2
        line_break = unit.rfind("\n", 0, body_off)
        body_line = start + unit.count("\n", 0, line_break + 1)
        body_rng = SourceRange(body_line, body_off - line_break - 1, end, b - starts[end])
        body = unit[body_off:]
        head = unit[:assign]
        colon = -1
        if kind == "example":
            colon = head.find(":")
        else:
            words = head.split(None, 2)
            if len(words) < 2 or not _IDENT_RE.fullmatch(words[1]):
                malformed = "missing declaration name"
            else:
                name = words[1]
                colon = head.find(":", head.find(name, len(kind)) + len(name))
        if malformed is None:
            if colon == -1:
                malformed = "missing type ascription"
            else:
                type_text = " ".join(text[a + colon + 1 : a + assign].split())
                if not type_text:
                    malformed = "empty type"
    return Declaration(
        kind=kind,
        name=name,
        type_text=type_text,
        range=rng,
        unit_range=unit_rng,
        body_range=body_rng,
        term=interpret_body(body.split()),
        holes=_holes(masked, a, b, start, starts),
        docstring=docstring,
        doc_index=doc_index,
        doc_label=doc_label,
        malformed=malformed,
    )


def _holes(masked: str, a: int, b: int, line: int, starts: list[int]) -> tuple[SourceRange, ...]:
    """The placeholders in ``masked[a:b]``, where ``a`` starts line ``line``."""
    holes = []
    i = masked.find(HOLE_TOKEN, a, b)
    while i != -1:
        if _is_hole(masked, i):
            line += masked.count("\n", a, i)
            a = i
            col = i - starts[line]
            holes.append(SourceRange(line, col, line, col + len(HOLE_TOKEN)))
        i = masked.find(HOLE_TOKEN, i + len(HOLE_TOKEN), b)
    return tuple(holes)


def _is_hole(masked: str, i: int) -> bool:
    """Whether the placeholder token at offset ``i`` is a whole identifier
    in a left-to-right identifier scan (``_IDENT_RE``): no identifier
    character follows it, and no identifier that the scan starts before it
    runs into it. Such an identifier starts at a letter or underscore in
    the run of identifier characters right before ``i``; digits, dots and
    primes alone start none."""
    after = i + len(HOLE_TOKEN)
    if after < len(masked) and masked[after] in _IDENT_CHARS:
        return False
    while i and masked[i - 1] in _IDENT_CHARS:
        i -= 1
        if masked[i] in _IDENT_STARTS:
            return False
    return True


@dataclass(frozen=True)
class BodyTerm:
    """Interpreted declaration body: a hole, a reference, or unsupported."""

    is_hole: bool = False
    reference: str | None = None
    error: str | None = None


# terms are immutable, so every body of these forms shares one
_HOLE_TERM = BodyTerm(is_hole=True)
_UNSUPPORTED_TERM = BodyTerm(error="unsupported term")


def interpret_body(body_masked_tokens: Sequence[str]) -> BodyTerm:
    tokens = list(body_masked_tokens)
    if tokens and tokens[0] == "by":
        tokens = tokens[1:]
    if tokens and tokens[0] == "exact":
        tokens = tokens[1:]
    if len(tokens) != 1:
        return _UNSUPPORTED_TERM
    tok = tokens[0]
    if tok == HOLE_TOKEN:
        return _HOLE_TERM
    if _IDENT_RE.fullmatch(tok):
        return BodyTerm(reference=tok)
    return BodyTerm(error=f"unsupported term {tok!r}")


def module_name(file_id: str) -> str:
    """Dotted module name of a project-relative file path."""
    path = file_id[:-5] if file_id.endswith(".lean") else file_id
    return path.replace("/", ".")


def module_file(module: str) -> str | None:
    """Project-relative file path of a dotted module name, or None when the
    name is not identifiers joined by dots: such a name (``.root.x`` would
    be ``/root/x.lean``) could lead out of the project root."""
    if not _MODULE_RE.fullmatch(module):
        return None
    return module.replace(".", "/") + ".lean"
