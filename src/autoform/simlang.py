"""Lexing and parsing for the miniature declaration language.

A file is a header (import/namespace/section/open lines) followed by
declaration units of the form ``kind name : type := body``. Bodies are
either a placeholder token or a small term referencing a previously
declared name. Comments (``--`` line, ``/- -/`` block, nesting allowed)
and double-quoted strings are opaque: placeholder tokens inside them do
not count as holes.

``analyse`` reads a file text once, in one linear pass, and memoises the
result by content; the other readers here are views over that analysis.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

from .diagnostics import SourceRange, line_starts, offset_to_pos, pos_to_offset

HOLE_TOKEN = "sorry"
DECL_KINDS = ("theorem", "lemma", "def", "abbrev", "example", "instance", "axiom")
DEFINITION_KINDS = frozenset({"def", "abbrev"})
HEADER_KEYWORDS = ("import", "namespace", "section", "open")
DEFAULT_HEADER_BOUND = 64
ANALYSIS_MEMO_SIZE = 8

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.']*")
_DOC_META_RE = re.compile(r"\[(\d+)\]\s?(.*)")
_NONCODE_OPEN_RE = re.compile(r'--|/-|"')
_BLOCK_DELIM_RE = re.compile(r"/-|-/")
_STRING_STOP_RE = re.compile(r'[\\"]')
_NOT_NEWLINE_RE = re.compile("[^\n]")


def noncode_spans(text: str) -> list[tuple[str, int, int]]:
    """Spans of comments and string literals as (kind, start, end) offsets.

    This is the comment/string scanner: one left-to-right pass that jumps
    from delimiter to delimiter. Block comments nest; a backslash escapes
    the next character of a string; an unterminated block comment or
    string runs to the end of the text.
    """
    spans: list[tuple[str, int, int]] = []
    n = len(text)
    i = 0
    while (opener := _NONCODE_OPEN_RE.search(text, i)) is not None:
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


def mask_noncode(text: str) -> str:
    """Replace comment/string content with spaces, preserving line structure."""
    return analyse(text).masked


def find_hole_ranges(text: str) -> list[SourceRange]:
    """Ranges of placeholder tokens outside comments and strings."""
    return list(analyse(text).hole_ranges)


def count_holes(text: str) -> int:
    return len(analyse(text).hole_ranges)


def header_line_span(text: str, bound: int = DEFAULT_HEADER_BOUND) -> tuple[int, int] | None:
    """(first, last) line numbers of the contiguous header prefix, or None.

    Blank and comment-only lines inside the prefix are tolerated; the span
    ends at the last header-keyword line before the first code line, capped
    at ``bound`` lines.
    """
    return analyse(text, bound).parsed.header_span


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

    @property
    def signature_text(self) -> str:
        """Everything before the body delimiter, whitespace-normalized."""
        return " ".join(
            filter(None, [self.kind, self.name or "", ":", _norm_type(self.type_text)])
        )


def _norm_type(t: str) -> str:
    return " ".join(t.split())


@dataclass(frozen=True)
class ImportLine:
    module: str
    lineno: int


@dataclass(frozen=True)
class ParsedFile:
    header_span: tuple[int, int] | None
    imports: tuple[ImportLine, ...]
    declarations: tuple[Declaration, ...]
    stray_lines: tuple[int, ...]    # non-blank code lines outside header/units
    line_count: int


def parse_file(text: str, header_bound: int = DEFAULT_HEADER_BOUND) -> ParsedFile:
    return analyse(text, header_bound).parsed


@dataclass(frozen=True)
class Analysis:
    """Everything read from one file text, computed in one linear pass.

    ``body_tokens`` and ``decl_holes`` run parallel to
    ``parsed.declarations``: the masked tokens of each declaration's body
    and the placeholder ranges inside each declaration.
    """

    masked: str
    line_starts: tuple[int, ...]
    noncode: tuple[tuple[str, int, int], ...]
    hole_ranges: tuple[SourceRange, ...]
    parsed: ParsedFile
    body_tokens: tuple[tuple[str, ...], ...]
    decl_holes: tuple[tuple[SourceRange, ...], ...]


def analyse(text: str, header_bound: int = DEFAULT_HEADER_BOUND) -> Analysis:
    """The analysis of ``text`` under ``header_bound``.

    Results are memoised by (text, header_bound) in a least-recently-used
    memo of at most ``ANALYSIS_MEMO_SIZE`` entries. An analysis is immutable
    and a pure function of its key, so sharing one between callers is safe.
    """
    return _memo(text, header_bound)


def _mask(text: str, spans: list[tuple[str, int, int]]) -> str:
    parts = []
    done = 0
    for _, a, b in spans:
        parts.append(text[done:a])
        parts.append(_NOT_NEWLINE_RE.sub(" ", text[a:b]))
        done = b
    parts.append(text[done:])
    return "".join(parts)


def _header_span(masked_lines: list[str], bound: int) -> tuple[int, int] | None:
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


def _analyse(text: str, header_bound: int) -> Analysis:
    spans = noncode_spans(text)
    masked = _mask(text, spans)
    masked_lines = masked.split("\n")
    starts = line_starts(text)
    n_lines = len(masked_lines)

    holes = []
    for m in _IDENT_RE.finditer(masked):
        if m.group(0) == HOLE_TOKEN:
            sl, sc = offset_to_pos(text, m.start(), starts)
            el, ec = offset_to_pos(text, m.end(), starts)
            holes.append(SourceRange(sl, sc, el, ec))

    header_span = _header_span(masked_lines, header_bound)
    header_end = header_span[1] if header_span else -1

    imports = []
    for lineno in range(0, header_end + 1):
        parts = masked_lines[lineno].strip().split()
        if len(parts) >= 2 and parts[0] == "import":
            imports.append(ImportLine(module=parts[1], lineno=lineno))

    # docstring spans by (start_line, end_line); both lines ascend with the
    # span order because noncode spans are disjoint and sorted
    doc_spans = []
    for kind, a, b in spans:
        if kind == "block" and text.startswith("/--", a):
            sl, _ = offset_to_pos(text, a, starts)
            el, _ = offset_to_pos(text, max(a, b - 1), starts)
            inner = text[a + 3 : max(a + 3, b - 2)]
            doc_spans.append((sl, el, inner))

    # last_code[k]: the last non-blank masked line before line k, or -1
    last_code = [-1] * (n_lines + 1)
    for lineno, line in enumerate(masked_lines):
        last_code[lineno + 1] = lineno if line.strip() else last_code[lineno]

    decl_starts = []
    for lineno in range(header_end + 1, n_lines):
        parts = masked_lines[lineno].split()
        if parts and parts[0] in DECL_KINDS:
            decl_starts.append(lineno)

    declarations: list[Declaration] = []
    covered = bytearray(n_lines)
    covered[: header_end + 1] = b"\x01" * (header_end + 1)
    next_doc = 0
    for idx, start in enumerate(decl_starts):
        end = (decl_starts[idx + 1] - 1) if idx + 1 < len(decl_starts) else n_lines - 1
        # trim trailing blank lines off the unit
        while end > start and not masked_lines[end].strip():
            end -= 1
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
        declarations.append(
            _parse_declaration(text, masked, starts, start, end, unit_start, doc)
        )
        covered[unit_start : end + 1] = b"\x01" * (end + 1 - unit_start)

    stray = tuple(
        lineno
        for lineno in range(header_end + 1, n_lines)
        if not covered[lineno] and masked_lines[lineno].strip()
    )

    hole_starts = [h.start for h in holes]
    bodies = []
    decl_holes = []
    for decl in declarations:
        body = decl.body_range
        a = pos_to_offset(text, body.start_line, body.start_col, starts)
        b = pos_to_offset(text, body.end_line, body.end_col, starts)
        bodies.append(tuple(masked[a:b].split()))
        # a placeholder is one token on one line, so it lies in a
        # declaration iff it starts inside the declaration's lines
        lo = bisect_left(hole_starts, decl.range.start)
        hi = bisect_left(hole_starts, decl.range.end, lo)
        decl_holes.append(tuple(holes[lo:hi]))

    parsed = ParsedFile(
        header_span=header_span,
        imports=tuple(imports),
        declarations=tuple(declarations),
        stray_lines=stray,
        line_count=n_lines,
    )
    return Analysis(
        masked=masked,
        line_starts=tuple(starts),
        noncode=tuple(spans),
        hole_ranges=tuple(holes),
        parsed=parsed,
        body_tokens=tuple(bodies),
        decl_holes=tuple(decl_holes),
    )


_memo = functools.lru_cache(maxsize=ANALYSIS_MEMO_SIZE)(_analyse)


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
    type_text = _norm_type(raw_unit[colon + 1 : assign])
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


def extract_signatures(text: str) -> list[str]:
    """Independent of acceptance: the signature text of every declaration."""
    parsed = parse_file(text)
    return [d.signature_text for d in parsed.declarations]
