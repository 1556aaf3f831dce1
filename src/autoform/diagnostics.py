"""Range-annotated diagnostics, scopes, and localization.

Positions are zero-based (line, column) pairs. Ranges are half-open in
document order: a range covers [start, end). Zero-width ranges (insertion
points) are treated as one column wide for intersection tests so that a
diagnostic pinned to a single position still localizes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

SEVERITIES = ("error", "warning", "info")

_NEWLINE_RE = re.compile("\n")


@dataclass(frozen=True, order=True)
class SourceRange:
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self) -> None:
        if self.start > self.end:
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

    def intersects(self, other: "SourceRange") -> bool:
        sa, ea = self._span()
        sb, eb = other._span()
        return max(sa, sb) < min(ea, eb)

    def contains(self, other: "SourceRange") -> bool:
        return self.start <= other.start and other.end <= self.end

    def as_dict(self) -> dict:
        return {
            "start_line": self.start_line,
            "start_col": self.start_col,
            "end_line": self.end_line,
            "end_col": self.end_col,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SourceRange":
        return cls(d["start_line"], d["start_col"], d["end_line"], d["end_col"])

    @classmethod
    def whole_lines(cls, first: int, last: int) -> "SourceRange":
        """Range covering lines [first, last] entirely."""
        return cls(first, 0, last + 1, 0)


@dataclass(frozen=True)
class Diagnostic:
    range: SourceRange
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
class DiagnosticSet:
    """Finite multiset of diagnostics; duplicates are counted, not collapsed.

    Equality is order-insensitive (normalized by position/severity/message).
    """

    items: tuple[Diagnostic, ...] = ()

    @classmethod
    def of(cls, items: Iterable[Diagnostic]) -> "DiagnosticSet":
        return cls(tuple(items))

    def normalized(self) -> tuple[Diagnostic, ...]:
        return tuple(sorted(self.items, key=Diagnostic.sort_key))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiagnosticSet):
            return NotImplemented
        return self.normalized() == other.normalized()

    def __hash__(self) -> int:
        return hash(self.normalized())

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.items if d.severity == "error")

    def union(self, other: "DiagnosticSet") -> "DiagnosticSet":
        return DiagnosticSet(self.items + other.items)


EMPTY_DIAGNOSTICS = DiagnosticSet()


def err_count(diagnostics: DiagnosticSet) -> int:
    """Number of error-severity diagnostics, multiset-counted."""
    return sum(1 for d in diagnostics if d.severity == "error")


def _normalize_ranges(ranges: Iterable[SourceRange]) -> tuple[SourceRange, ...]:
    ordered = sorted(ranges, key=lambda r: (r.start, r.end))
    merged: list[SourceRange] = []
    for r in ordered:
        if merged and r.start <= merged[-1].end:
            last = merged[-1]
            if r.end > last.end:
                merged[-1] = SourceRange(last.start_line, last.start_col, r.end_line, r.end_col)
        else:
            merged.append(r)
    return tuple(merged)


@dataclass(frozen=True)
class Scope:
    """Finite union of ranges within one file; normalized to disjoint ranges."""

    ranges: tuple[SourceRange, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranges", _normalize_ranges(self.ranges))

    @classmethod
    def of(cls, *ranges: SourceRange) -> "Scope":
        return cls(tuple(ranges))

    @property
    def is_empty(self) -> bool:
        return not self.ranges

    def union(self, other: "Scope") -> "Scope":
        return Scope(self.ranges + other.ranges)

    def with_range(self, r: SourceRange) -> "Scope":
        return Scope(self.ranges + (r,))

    def intersects(self, r: SourceRange) -> bool:
        return any(sr.intersects(r) for sr in self.ranges)

    def covers(self, r: SourceRange) -> bool:
        """True iff r lies entirely within one normalized scope range."""
        return any(sr.contains(r) for sr in self.ranges)


def localize(diagnostics: DiagnosticSet, scope: Scope) -> DiagnosticSet:
    """Restrict a diagnostic multiset to items whose range intersects the scope."""
    if scope.is_empty:
        return EMPTY_DIAGNOSTICS
    return DiagnosticSet.of(d for d in diagnostics if scope.intersects(d.range))


def line_starts(text: str) -> list[int]:
    starts = [0]
    starts.extend(m.end() for m in _NEWLINE_RE.finditer(text))
    return starts


def pos_to_offset(text: str, line: int, col: int, starts: list[int] | None = None) -> int:
    """Character offset of (line, col), clamped to the document."""
    if starts is None:
        starts = line_starts(text)
    if line < 0:
        return 0
    if line >= len(starts):
        return len(text)
    base = starts[line]
    limit = starts[line + 1] - 1 if line + 1 < len(starts) else len(text)
    return min(base + max(col, 0), max(limit, base))


def offset_to_pos(text: str, offset: int, starts: list[int] | None = None) -> tuple[int, int]:
    if starts is None:
        starts = line_starts(text)
    offset = max(0, min(offset, len(text)))
    lo, hi = 0, len(starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if starts[mid] <= offset:
            lo = mid
        else:
            hi = mid - 1
    return lo, offset - starts[lo]


def apply_replacement(text: str, rng: SourceRange, replacement: str) -> str:
    """Replace the half-open region covered by rng with new text."""
    starts = line_starts(text)
    a = pos_to_offset(text, rng.start_line, rng.start_col, starts)
    b = pos_to_offset(text, rng.end_line, rng.end_col, starts)
    if b < a:
        a, b = b, a
    return text[:a] + replacement + text[b:]


def range_text(text: str, rng: SourceRange) -> str:
    starts = line_starts(text)
    a = pos_to_offset(text, rng.start_line, rng.start_col, starts)
    b = pos_to_offset(text, rng.end_line, rng.end_col, starts)
    return text[a:b]
