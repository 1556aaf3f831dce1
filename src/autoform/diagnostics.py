"""Range-annotated diagnostics, scopes, and localization.

Positions are zero-based (line, column) pairs. Ranges are half-open in
document order: a range covers [start, end). Zero-width ranges (insertion
points) are treated as one column wide for intersection tests so that a
diagnostic pinned to a single position still localizes; a scope that merges
such a point into the range ending at it keeps that column.

The check and attempt loop builds several of these records per verifier
call, so each is immutable without a per-field ``object.__setattr__``.
``SourceRange`` and ``Diagnostic`` are tuple subclasses whose ``__new__``
validates; ``DiagnosticSet`` and ``Scope`` count or normalise once, at
construction, in slotted classes that refuse assignment. Between records
of one class, a tuple record compares, hashes, sorts and reprs as a frozen
dataclass of the same fields would. It is also a tuple, though: it equals
the plain tuple of its fields, iterates over them and has a ``len``. No
caller may rely on any of the three, and code that converts values by type
must test for a record before its generic tuple case, as
``OperatorRequest.json_payload`` tests for ``SourceRange`` and ``Scope``.

Diagnostics sort by their fields: range (start, then end), severity,
message. ``DiagnosticSet.normalized`` and ``select_error`` use that order.
"""

from __future__ import annotations

import re
from collections import namedtuple
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

SEVERITIES = ("error", "warning", "info")

_NEWLINE_RE = re.compile("\n")

# builds a record's tuple without running its validating __new__ again
_new_tuple = tuple.__new__


class SourceRange(namedtuple("SourceRange", "start_line start_col end_line end_col")):
    # a SourceRange sorts by (start, end): the order of its fields
    __slots__ = ()

    def __new__(cls, start_line: int, start_col: int, end_line: int, end_col: int):
        if end_line < start_line or (end_line == start_line and end_col < start_col):
            raise ValueError(
                f"range start {(start_line, start_col)} after end {(end_line, end_col)}"
            )
        return _new_tuple(cls, (start_line, start_col, end_line, end_col))

    # (start_line, start_col) and (end_line, end_col), read in C
    start = property(itemgetter(0, 1))
    end = property(itemgetter(2, 3))

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


class Diagnostic(namedtuple("Diagnostic", "range severity message")):
    # a Diagnostic sorts by (range, severity, message): the order of its fields
    __slots__ = ()

    def __new__(cls, range: SourceRange, severity: str, message: str):
        if severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}: {severity!r}")
        return _new_tuple(cls, (range, severity, message))

    def as_dict(self) -> dict:
        return {"range": self.range.as_dict(), "severity": self.severity, "message": self.message}


class _Frozen:
    """Refuses assignment to, and deletion of, the slots of a record; its
    constructor fills them through the slot descriptors."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class DiagnosticSet(_Frozen):
    """Finite multiset of diagnostics; duplicates are counted, not collapsed.

    Equality is order-insensitive (normalized by position/severity/message).
    The error-severity and warning-severity items are counted once, when
    the set is built, as ``error_count`` and ``warning_count``.
    """

    __slots__ = ("items", "error_count", "warning_count")

    def __init__(self, items: tuple[Diagnostic, ...] = ()) -> None:
        errors = warnings = 0
        for d in items:
            severity = d.severity
            if severity == "error":
                errors += 1
            elif severity == "warning":
                warnings += 1
        _set_items(self, items)
        _set_error_count(self, errors)
        _set_warning_count(self, warnings)

    @classmethod
    def of(cls, items: Iterable[Diagnostic]) -> "DiagnosticSet":
        return cls(tuple(items))

    def normalized(self) -> tuple[Diagnostic, ...]:
        return tuple(sorted(self.items))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiagnosticSet):
            return NotImplemented
        return self.normalized() == other.normalized()

    def __hash__(self) -> int:
        return hash(self.normalized())

    def __repr__(self) -> str:
        return f"DiagnosticSet(items={self.items!r})"

    def __reduce__(self):
        return (self.__class__, (self.items,))

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.items if d.severity == "error")

    def union(self, other: "DiagnosticSet") -> "DiagnosticSet":
        return DiagnosticSet(self.items + other.items)


# the setters of the slot descriptors, which _Frozen.__setattr__ does not guard
_set_items = DiagnosticSet.items.__set__
_set_error_count = DiagnosticSet.error_count.__set__
_set_warning_count = DiagnosticSet.warning_count.__set__

EMPTY_DIAGNOSTICS = DiagnosticSet()


def err_count(diagnostics: DiagnosticSet) -> int:
    """Number of error-severity diagnostics, multiset-counted."""
    return diagnostics.error_count


def select_error(diagnostics: DiagnosticSet) -> Diagnostic:
    """The first error in the order of diagnostics; ValueError when there is none."""
    return min(diagnostics.errors())


def _normalize_ranges(ranges: Sequence[SourceRange]) -> tuple[SourceRange, ...]:
    if len(ranges) < 2:
        return tuple(ranges)  # no range or one range is normalized already
    merged: list[SourceRange] = []
    for r in sorted(ranges):  # by (start, end): a SourceRange sorts by its fields
        if merged and r.start <= merged[-1].end:
            last = merged[-1]
            end = r.end
            if end == last.end and r.start == end and last.start != end:
                # a point at the end of a range joins it as its one-column footprint
                end = (r.end_line, r.end_col + 1)
            if end > last.end:
                merged[-1] = SourceRange(*last.start, *end)
        else:
            merged.append(r)
    return tuple(merged)


class Scope(_Frozen):
    """Finite union of ranges within one file; normalized to disjoint ranges."""

    __slots__ = ("ranges",)

    def __init__(self, ranges: tuple[SourceRange, ...] = ()) -> None:
        _set_ranges(self, _normalize_ranges(ranges))

    @classmethod
    def of(cls, *ranges: SourceRange) -> "Scope":
        return cls(ranges)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ranges == other.ranges

    def __hash__(self) -> int:
        return hash((self.ranges,))

    def __repr__(self) -> str:
        return f"Scope(ranges={self.ranges!r})"

    def __reduce__(self):
        return (self.__class__, (self.ranges,))

    @property
    def is_empty(self) -> bool:
        return not self.ranges

    def union(self, other: "Scope") -> "Scope":
        return Scope(self.ranges + other.ranges)

    def with_range(self, r: SourceRange) -> "Scope":
        return Scope(self.ranges + (r,))

    def intersects(self, r: SourceRange) -> bool:
        for sr in self.ranges:
            if sr.intersects(r):
                return True
        return False

    def covers(self, r: SourceRange) -> bool:
        """True iff r lies entirely within one normalized scope range."""
        for sr in self.ranges:
            if sr.contains(r):
                return True
        return False


_set_ranges = Scope.ranges.__set__


def localize(diagnostics: DiagnosticSet, scope: Scope) -> DiagnosticSet:
    """Restrict a diagnostic multiset to items whose range intersects the scope."""
    if scope.is_empty:
        return EMPTY_DIAGNOSTICS
    return DiagnosticSet.of(d for d in diagnostics if scope.intersects(d.range))


def line_starts(text: str, start: int = 0, end: int | None = None) -> list[int]:
    """Offsets of the lines of ``text`` from the line that begins at
    ``start`` on, through the line after the last line break before ``end``."""
    starts = [start]
    stop = len(text) if end is None else end
    starts.extend(m.end() for m in _NEWLINE_RE.finditer(text, start, stop))
    return starts


def pos_to_offset(text: str, line: int, col: int, starts: Sequence[int]) -> int:
    """Character offset of (line, col), clamped to the document whose line
    offsets are ``starts``."""
    if line < 0:
        return 0
    if line >= len(starts):
        return len(text)
    base = starts[line]
    limit = starts[line + 1] - 1 if line + 1 < len(starts) else len(text)
    return min(base + max(col, 0), max(limit, base))


def apply_replacement(text: str, rng: SourceRange, replacement: str, starts: Sequence[int]) -> str:
    """Replace the half-open region covered by rng with new text; ``starts``
    are the line offsets of ``text``."""
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
