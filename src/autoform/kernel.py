"""The refinement primitive: objectives, priority order, and the
snapshot -> stage -> verify -> keep/restore patch executor, inside an item.

A patch (``PatchProposal``) replaces the text of one contiguous range,
its ``range``, which the attempt's scope must cover; the line offsets of
the replacement come from the ``Project``'s analysis of the file. The
patched text is staged in the ``Project``, the item's working copy, and
verified once. It stays staged, for the item to commit, only when the
stage objective strictly improves under the priority order. Anything else
puts back the pre-attempt view, and the file is read back from disk to
check that it holds its committed bytes. An adapter whose tool reads the
disk syncs the staged text to it first; where that changed the file, the
restore writes the committed bytes back. Primary metric is always the file error count; the
secondary is the localized error count (stage 1) or the file hole count
(stage 2), so a patch that increases compilation errors is never accepted.
``run_item`` makes a dataset item one transaction of the ``Project``, and
``run_items`` runs a stage's items in order from a start cursor. The
``item_end`` line of an item, written to the file after its commit, is
the durable record that moves the cursor past it.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import Callable, Iterable, NamedTuple

from . import simlang
from .diagnostics import (
    DiagnosticSet,
    Scope,
    SourceRange,
    apply_replacement,
    err_count,
    localize,
)
from .instrumentation import MetricsWriter
from .verifier import Entry, Project, Verifier

DEFAULT_MAX_SCOPE_EXPANSIONS = 3


class PatchOutOfScopeError(ValueError):
    """Patch targets bytes outside the permitted scope; rejected before application."""


class SnapshotRestoreError(RuntimeError):
    """A rollback failed to reproduce the pre-edit bytes; the run must abort."""


# The records of an attempt are immutable tuples, with the caveats the
# ``diagnostics`` module gives for its records.
class ObjectivePair(namedtuple("ObjectivePair", "primary secondary")):
    __slots__ = ()

    def __new__(cls, primary: int, secondary: int):
        if primary < 0 or secondary < 0:
            raise ValueError("objective components must be non-negative")
        return tuple.__new__(cls, (primary, secondary))


def prec(a: ObjectivePair, b: ObjectivePair) -> bool:
    """Strict lexicographic priority order: a comes before b."""
    return a.primary < b.primary or (a.primary == b.primary and a.secondary < b.secondary)


def stage1_objective(diagnostics: DiagnosticSet, scope: Scope) -> ObjectivePair:
    return ObjectivePair(err_count(diagnostics), err_count(localize(diagnostics, scope)))


def stage2_objective(diagnostics: DiagnosticSet, analysis: simlang.Analysis) -> ObjectivePair:
    """The file error count, then the hole count of the file's analysis."""
    return ObjectivePair(err_count(diagnostics), len(analysis.hole_ranges))


class PatchProposal(NamedTuple):
    file: str
    range: SourceRange
    replacement: str
    origin: str = ""


class Snapshot(NamedTuple):
    file: str
    # the item's staged entry of the file before the attempt: its bytes, and
    # the text and analysis made of them, so a restore keeps the analysis
    staged: Entry | None
    committed: bytes | None  # what the disk must hold after a restore; None: absent

    @classmethod
    def capture(cls, project: Project, file_id: str) -> "Snapshot":
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


class AttemptOutcome(NamedTuple):
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

    Exactly one verifier call is made, on the staged candidate. An accepted
    candidate stays staged in the item's working copy, for the item to
    commit. On rejection the pre-attempt view is put back and the returned
    diagnostics are the pre-patch ones, so they always describe that view.
    If the verifier raises, the view is put back before it propagates.
    """
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    if patch.file != file_id:
        raise ValueError(f"patch file {patch.file!r} does not match target {file_id!r}")
    if not scope.covers(patch.range):
        raise PatchOutOfScopeError(f"patch range {patch.range} not covered by permitted scope")

    exists = project.exists(file_id)
    text_before = project.read(file_id) if exists else ""
    # the project keeps the analysis of the text, so the objective and the
    # line offsets cost no scan of it
    analysis = project.analysis(file_id) if exists else simlang.analyse("")
    if stage == 1:
        before = stage1_objective(diagnostics_before, scope)
    else:
        before = stage2_objective(diagnostics_before, analysis)
    # captured after the reads above, so a staged edit's entry holds its
    # text and analysis and a restore puts both back
    snap = Snapshot.capture(project, file_id)

    candidate = apply_replacement(
        text_before, patch.range, patch.replacement, analysis.line_starts
    )
    project.stage(file_id, candidate)
    try:
        ok, diags_after = verifier.verify_file(project, file_id)
        if stage == 1:
            after = stage1_objective(diags_after, scope)
        else:
            after = stage2_objective(diags_after, project.analysis(file_id))
    except BaseException:
        # an uncertified patch never stays staged, whatever interrupted the check
        snap.restore(project)
        raise

    if prec(after, before):
        return AttemptOutcome(True, before, after, diags_after)
    snap.restore(project)
    return AttemptOutcome(False, before, after, diagnostics_before)


def run_item(project: Project, metrics: MetricsWriter, start: dict, work: Callable):
    """One dataset item as one transaction: the ``item_start`` line with
    ``start``, then ``work()``, the stage's work, which returns the item's
    result and leaves its edits staged. They are committed once, before the
    ``item_end`` line with the result's ``end_fields()`` and ``seconds``,
    which moves the resume cursor past the item; if anything raises, they
    are discarded and no ``item_end`` line follows."""
    started = time.monotonic()
    metrics.emit("item_start", start)
    try:
        result = work()
        project.commit()
    except BaseException:
        # a crash inside the item leaves the project as the item found it
        project.discard()
        raise
    metrics.emit(
        "item_end", {**result.end_fields(), "seconds": round(time.monotonic() - started, 6)}
    )
    return result


def run_items(
    items: Iterable[tuple[int, object]],
    run_one: Callable,
    start_index: int | None,
    max_items: int | None,
) -> list:
    """``run_one`` on each ``(index, item)`` in order, skipping indices below
    ``start_index`` and stopping after ``max_items`` results."""
    results = []
    for index, item in items:
        if start_index is not None and index < start_index:
            continue
        if max_items is not None and len(results) >= max_items:
            break
        results.append(run_one(item))
    return results


def _line_distance(r: SourceRange, scope: Scope) -> int:
    if scope.is_empty:
        return 0
    best = None
    for sr in scope.ranges:
        if sr.intersects(r):
            return 0
        # the lines between the two by position: a whole-lines range ends
        # at column 0 of the line after it, and an error on that line is 0 away
        if r.start >= sr.end:
            d = r.start_line - sr.end_line
        else:
            d = sr.start_line - r.end_line
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
