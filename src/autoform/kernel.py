"""The refinement primitive: objectives, priority order, and the
snapshot -> apply -> verify -> accept/revert patch executor.

A patch is a whole-region text replacement for one contiguous range. It is
committed only when the stage objective strictly improves under the
priority order; anything else is rolled back byte-exactly. Primary metric
is always the file error count; the secondary is the localized error count
(stage 1) or the file hole count (stage 2), so a patch that increases
compilation errors is never accepted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import simlang
from .diagnostics import (
    DiagnosticSet,
    Scope,
    SourceRange,
    apply_replacement,
    err_count,
    localize,
)
from .verifier import Project, Verifier

DEFAULT_MAX_SCOPE_EXPANSIONS = 3


class PatchOutOfScopeError(ValueError):
    """Patch targets bytes outside the permitted scope; rejected before application."""


class SnapshotRestoreError(RuntimeError):
    """A rollback failed to reproduce the pre-edit bytes; the run must abort."""


@dataclass(frozen=True)
class ObjectivePair:
    primary: int
    secondary: int

    def __post_init__(self) -> None:
        if self.primary < 0 or self.secondary < 0:
            raise ValueError("objective components must be non-negative")

    def as_tuple(self) -> tuple[int, int]:
        return (self.primary, self.secondary)


def prec(a: ObjectivePair, b: ObjectivePair) -> bool:
    """Strict lexicographic priority order: a comes before b."""
    return a.primary < b.primary or (a.primary == b.primary and a.secondary < b.secondary)


def stage1_objective(diagnostics: DiagnosticSet, scope: Scope) -> ObjectivePair:
    return ObjectivePair(err_count(diagnostics), err_count(localize(diagnostics, scope)))


def stage2_objective(diagnostics: DiagnosticSet, file_text: str) -> ObjectivePair:
    return ObjectivePair(err_count(diagnostics), simlang.count_holes(file_text))


@dataclass(frozen=True)
class PatchProposal:
    file: str
    scope: Scope
    replacement: str
    origin: str = ""

    def target_range(self) -> SourceRange:
        if len(self.scope.ranges) != 1:
            raise PatchOutOfScopeError(
                f"patch must target one contiguous range, got {len(self.scope.ranges)}"
            )
        return self.scope.ranges[0]


def fingerprint(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Snapshot:
    file: str
    content: bytes | None  # None when the file did not exist
    digest: str

    @classmethod
    def capture(cls, project: Project, file_id: str) -> "Snapshot":
        if project.exists(file_id):
            data = project.read_bytes(file_id)
            return cls(file_id, data, fingerprint(data))
        return cls(file_id, None, "absent")

    def restore(self, project: Project) -> None:
        if self.content is None:
            project.delete(self.file)
        else:
            project.write_bytes(self.file, self.content)
        if not self.matches(project):
            raise SnapshotRestoreError(f"restore of {self.file} did not reproduce snapshot")

    def matches(self, project: Project) -> bool:
        """Whether the bytes on disk, not the project's cached copy, are the
        snapshot's: the check that a restore really landed."""
        data = project.reload_bytes(self.file)
        return (fingerprint(data) if data is not None else "absent") == self.digest


@dataclass(frozen=True)
class AttemptOutcome:
    accepted: bool
    before: ObjectivePair
    after: ObjectivePair
    diagnostics_after: DiagnosticSet


def try_patch(
    stage: int,
    project: Project,
    file_id: str,
    scope: Scope,
    patch: PatchProposal,
    diagnostics_before: DiagnosticSet,
    verifier: Verifier,
) -> AttemptOutcome:
    """Apply one candidate patch under the accept/revert contract.

    Exactly one verifier call is made. On rejection the file is restored
    byte-exactly and the returned diagnostics are the pre-patch ones, so
    they always describe the committed state. If the verifier raises, the
    file is restored before the exception propagates.
    """
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    if patch.file != file_id:
        raise ValueError(f"patch file {patch.file!r} does not match target {file_id!r}")
    target = patch.target_range()
    if not scope.covers(target):
        raise PatchOutOfScopeError(f"patch range {target} not covered by permitted scope")

    snap = Snapshot.capture(project, file_id)
    text_before = project.read(file_id) if snap.content is not None else ""
    if stage == 1:
        before = stage1_objective(diagnostics_before, scope)
    else:
        before = stage2_objective(diagnostics_before, text_before)

    project.write(file_id, apply_replacement(text_before, target, patch.replacement))
    try:
        ok, diags_after = verifier.verify_file(project, file_id)
        if stage == 1:
            after = stage1_objective(diags_after, scope)
        else:
            after = stage2_objective(diags_after, project.read(file_id))
    except BaseException:
        # an uncertified patch never stays on disk, whatever interrupted the check
        snap.restore(project)
        raise

    if prec(after, before):
        return AttemptOutcome(True, before, after, diags_after)
    snap.restore(project)
    return AttemptOutcome(False, before, after, diagnostics_before)


def _line_distance(r: SourceRange, scope: Scope) -> int:
    if scope.is_empty:
        return 0
    best = None
    for sr in scope.ranges:
        if sr.intersects(r):
            return 0
        if r.start_line > sr.end_line:
            d = r.start_line - sr.end_line
        else:
            d = sr.start_line - r.end_line
        d = abs(d)
        best = d if best is None else min(best, d)
    return best if best is not None else 0


def expand_scope(scope: Scope, diagnostics: DiagnosticSet, header: Scope) -> Scope:
    """Grow a scope that localizes nothing: add the nearest error range plus
    the header region. Pure; the caller enforces the per-item expansion cap.
    """
    errors = diagnostics.errors()
    if not errors:
        return scope
    nearest = min(errors, key=lambda d: (_line_distance(d.range, scope), d.range.start))
    return scope.with_range(nearest.range).union(header)
