"""Proof repair under matched statements: close placeholder holes with
bounded plan/execute/repair loops and optional splitting of oversized files.

Statement signatures are never edited here; a proof patch is scoped to the
hole's range plus the file header, and the kernel rejects anything that
does not strictly improve (errors first, then hole count). The budgets
are the run's ``RunConfig.budget_t``, ``budget_r`` and ``budget_c``. The
verifier call budget T caps everything an item does, including its
initial check; executor proof-patch attempts are additionally capped at
R * C. The item's split and accepted patches are staged in the
``Project``; the item runs as one transaction of the kernel
(``kernel.run_item``), which commits them once before its ``item_end``
line and discards them if the item raises.
That line's ``a_accepted`` lists the ordinals, among the item's
``a_attempts`` proof proposals, of those the kernel accepted.

An item is one loop. Each pass first looks the target hole up, if it is
about to plan or its last proposal was accepted: a closed target ends the
item ``solved`` (``already_closed`` before any proposal), and a label that
matches two declarations, or none in a labelled file, ends it ``skipped``.
Then the pass ends the item when T is spent, fixes one compile error if
there is one, ends the item after R * C proposals, plans (goal query, then
``plan``) when it holds no plan or replans after every R proposals, and
makes one proof proposal. Proposals are made only on a file without
errors, and the kernel accepts no patch that adds one, so errors are fixed
before the plan is made and one plan serves the item: C rounds of R
proposals reach the attempt bound, which ends the item before a C-th
replan or a fresh plan could be due.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from . import simlang
from .corpus import DatasetRecord, LemmaMapEntry, is_proof_target
from .diagnostics import Scope, err_count, select_error
from .instrumentation import MetricsWriter
from .kernel import PatchOutOfScopeError, run_item, run_items, try_patch
from .operators import OperatorRequest, OperatorSet
from .stage1 import target_file
from .verifier import Project, Verifier, header_scope

if TYPE_CHECKING:
    from .pipeline import RunConfig

DEFAULT_R = 10
DEFAULT_C = 21
DEFAULT_T = DEFAULT_R * DEFAULT_C + 9
DEFAULT_SPLIT_THRESHOLD = 1200


@dataclass(frozen=True)
class ProofTask:
    index: int
    label: str
    reference_proof: str = ""
    lemma_hints: LemmaMapEntry | None = None

    def payload(self) -> dict:
        d = {"index": self.index, "label": self.label, "reference_proof": self.reference_proof}
        if self.lemma_hints is not None:
            d["navigation_cues"] = {
                "decl_hints": list(self.lemma_hints.decl_hints),
                "notes": self.lemma_hints.notes,
            }
        return d


class AmbiguousTargetError(RuntimeError):
    """The task label matches two declarations, or none in a file that has
    labels; the item is skipped."""


@dataclass
class Stage2ItemResult:
    index: int
    label: str
    status: str = "unsolved"  # solved | unsolved | already_closed | skipped
    verifier_calls: int = 0
    proof_attempts: int = 0
    fix_attempts: int = 0
    plans: int = 0
    file: str = ""
    # the proof_attempts ordinals of the proposals the kernel accepted
    accepted_attempts: list[int] = field(default_factory=list)

    def end_fields(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "status": self.status,
            "verifier_calls": self.verifier_calls,
            "a_attempts": self.proof_attempts,
            "a_accepted": self.accepted_attempts,
            "b_attempts": self.fix_attempts,
            "c_plans": self.plans,
            "lean_file": self.file,
        }


def locate_target_hole(
    project: Project, file_id: str, task: ProofTask
) -> simlang.Declaration | None:
    """The declaration holding the task's placeholder, its first hole: found
    by docstring label, falling back to the unique holed declaration only in
    a file without labels. None when already closed."""
    declarations = project.analysis(file_id).declarations

    labeled = [d for d in declarations if d.doc_label == task.label]
    if len(labeled) > 1 or (not labeled and any(d.doc_label for d in declarations)):
        raise AmbiguousTargetError(f"label {task.label!r} matches {len(labeled)} declarations")
    if labeled:
        return labeled[0] if labeled[0].holes else None

    holed = [d for d in declarations if d.holes]
    if len(holed) == 1:
        return holed[0]
    if not holed:
        return None
    raise AmbiguousTargetError(
        f"no label match for {task.label!r} and {len(holed)} positional candidates"
    )


def split_if_large_and_resolve(
    project: Project,
    file_id: str,
    task: ProofTask | None,
    threshold: int,
    metrics: MetricsWriter | None = None,
) -> str:
    """Partition an oversized file at declaration boundaries: one whose
    analysis has more than ``threshold`` lines. Only such a file's text is
    read into lines.

    Parts are named ``<stem>_part<K>.lean`` with a linear import chain
    (each part imports its predecessor) and the original path becomes a
    thin aggregate importing every part; all are staged. Returns the part
    containing the task's target, or the input file when no split happens.
    The declaration multiset across parts equals the original file's. A
    split never stages over another file: if a part's name holds a file
    whose declarations are not the part's, nothing is staged and a warning
    line names it. A file with the part's declarations is that part, left
    by a commit of this split that did not finish, and is written again.
    A part whose module name reads back as another path (a dot in the
    file's directory or stem) raises ValueError before anything is staged.
    """
    if not project.exists(file_id):
        return file_id
    analysis = project.analysis(file_id)
    if len(analysis.line_starts) <= threshold:
        return file_id

    if analysis.stray_lines or not analysis.declarations:
        return file_id  # cannot attribute every line to a unit; abort split
    lines = project.read(file_id).split("\n")
    header_lines = []
    if analysis.header_span is not None:
        header_lines = lines[analysis.header_span[0] : analysis.header_span[1] + 1]

    units = []
    for decl in analysis.declarations:
        unit_text = "\n".join(lines[decl.unit_range.start_line : decl.range.end_line + 1])
        units.append((decl, unit_text))

    groups: list[list[tuple[simlang.Declaration, str]]] = [[]]
    used = len(header_lines)
    for decl, unit_text in units:
        unit_lines = unit_text.count("\n") + 2
        if groups[-1] and used + unit_lines > threshold:
            groups.append([])
            used = len(header_lines)
        groups[-1].append((decl, unit_text))
        used += unit_lines
    if len(groups) < 2:
        return file_id

    stem = file_id[:-5] if file_id.endswith(".lean") else file_id
    part_ids = [f"{stem}_part{k}.lean" for k in range(1, len(groups) + 1)]
    # each part is imported by its module name, which must name the part again
    for pid in part_ids:
        if simlang.module_file(simlang.module_name(pid)) != pid:
            raise ValueError(f"cannot split {file_id}: {pid} is not importable by module name")
    # every name is looked up, so the project knows the parts are absent
    taken = [
        pid
        for pid, group in zip(part_ids, groups)
        if project.exists(pid)
        and _signatures(project.analysis(pid).declarations)
        != _signatures(decl for decl, _ in group)
    ]
    if taken:
        if metrics is not None:
            metrics.emit(
                "warning",
                {"reason": f"split part exists: {taken[0]}", "lean_file": file_id},
            )
        return file_id
    for k, group in enumerate(groups):
        head = list(header_lines)
        if k > 0:
            head.append(f"import {simlang.module_name(part_ids[k - 1])}")
        body = "\n\n".join(unit_text for _, unit_text in group)
        content = "\n".join(head) + ("\n\n" if head else "") + body + "\n"
        project.stage(part_ids[k], content)

    aggregate = "\n".join(f"import {simlang.module_name(pid)}" for pid in part_ids) + "\n"
    project.stage(file_id, aggregate)
    if metrics is not None:
        metrics.emit("split", {"lean_file": file_id, "parts": part_ids, "lines": len(lines)})

    if task is None:
        return file_id
    for k, group in enumerate(groups):
        for decl, _ in group:
            if decl.doc_label == task.label:
                return part_ids[k]
    for pid in part_ids:
        if project.analysis(pid).hole_ranges:
            return pid
    return file_id


def _signatures(declarations) -> list[tuple[str, str | None, str]]:
    return [(decl.kind, decl.name, decl.type_text) for decl in declarations]


def run_stage2_item(
    project: Project,
    file_id: str,
    task: ProofTask,
    config: RunConfig,
    operators: OperatorSet,
    verifier: Verifier,
    metrics: MetricsWriter,
) -> Stage2ItemResult:
    """Close one proof item's hole under the verifier-call budget; its edits
    stay staged for the item's commit. Every exit but the ``skipped``,
    ``solved`` and ``already_closed`` ones leaves the status ``unsolved``."""
    result = Stage2ItemResult(index=task.index, label=task.label, file=file_id)

    def skip(reason: str) -> Stage2ItemResult:
        metrics.emit("warning", {"reason": reason, "lean_file": file_id, "index": task.index})
        result.status = "skipped"
        return result

    scoped = (None, None, None)  # (target range, file analysis, their scope)

    def attempt(kind: str, payload: dict) -> bool:
        """Invoke ``kind`` on the file and put the patch it returns, if any,
        through the kernel, scoped to ``payload["target_range"]`` plus the
        header. Returns whether the patch was accepted. The scope is kept
        while the target and the file's analysis stay the same: a rejected
        patch restores the entry, and so the analysis, it replaced."""
        nonlocal diags, scoped
        text = project.read(file_id)
        response = operators.invoke(
            OperatorRequest(
                kind=kind,
                payload={"task_id": str(task.index), "file": file_id, "file_text": text, **payload},
            )
        )
        if not response.ok or response.patch is None:
            return False
        target, analysis = payload["target_range"], project.analysis(file_id)
        if target != scoped[0] or analysis is not scoped[1]:
            scoped = (target, analysis, Scope.of(target).union(header_scope(analysis)))
        try:
            outcome = try_patch(2, project, file_id, scoped[2], response.patch, diags, verifier)
        except PatchOutOfScopeError:
            return False  # rejected unchecked: no verifier call
        result.verifier_calls += 1
        diags = outcome.diagnostics_after
        return outcome.accepted

    try:
        file_id = split_if_large_and_resolve(
            project, file_id, task, config.split_threshold, metrics
        )
        result.file = file_id
    except Exception as exc:  # split failure: drop what it staged, log, continue unsplit
        project.discard()
        metrics.emit("warning", {"reason": f"split failed: {exc}", "lean_file": file_id})

    if not project.exists(file_id):
        return skip(f"no such file: {file_id}")  # stage 1 left no file for this section

    _, diags = verifier.verify_file(project, file_id)
    result.verifier_calls += 1

    # the declaration located when planning; its first hole is the target
    decl = plan = goal_payload = None
    accepted = False
    while True:
        # look the target up before planning and after every accepted proposal
        planning = decl is None and result.verifier_calls < config.budget_t and not err_count(diags)
        if planning or accepted:
            try:
                found = locate_target_hole(project, file_id, task)
            except AmbiguousTargetError as exc:
                return skip(str(exc))
            if found is None:
                result.status = "solved" if result.proof_attempts else "already_closed"
                return result
            if planning:
                decl = found

        if result.verifier_calls >= config.budget_t:
            return result
        if err_count(diags):
            if result.fix_attempts >= config.budget_t:
                # a fixer that never yields an applicable patch consumes no
                # verifier budget; bound its attempts so the item terminates
                return result
            diag = select_error(diags)
            result.fix_attempts += 1
            attempt("fix_compile_error", {"diagnostic": diag.as_dict(), "target_range": diag.range})
            continue
        if result.proof_attempts >= config.budget_r * config.budget_c:
            return result

        if planning:
            goal = verifier.goal_state(project, file_id, decl.holes[0])
            goal_payload = goal.as_dict() if goal is not None else None
            plan_resp = operators.invoke(
                OperatorRequest(
                    kind="plan",
                    payload={
                        "task_id": str(task.index),
                        "task": task.payload(),
                        "goal_state": goal_payload,
                    },
                )
            )
            result.plans += 1
            plan = plan_resp.text if plan_resp.ok else ""
        elif result.proof_attempts % config.budget_r == 0:
            replan = operators.invoke(
                OperatorRequest(
                    kind="replan",
                    payload={
                        "task_id": str(task.index),
                        "task": task.payload(),
                        "plan": plan,
                        "goal_state": goal_payload,
                        "diagnostics": [d.as_dict() for d in diags],
                    },
                )
            )
            result.plans += 1
            if replan.ok and replan.text:
                plan = replan.text

        result.proof_attempts += 1
        accepted = attempt(
            "propose_proof_patch",
            {
                "hole": decl.holes[0],
                "declaration": decl.name or "",
                "plan": plan,
                "task": task.payload(),
                "goal_state": goal_payload,
                "target_range": decl.holes[0],
                "attempt": result.proof_attempts,
            },
        )
        if accepted:
            result.accepted_attempts.append(result.proof_attempts)


def proof_task(record: DatasetRecord, lemma_map: dict[str, LemmaMapEntry]) -> ProofTask:
    """The record's task, with its lemma-map hints: the entry under its
    index, else the one under its label."""
    hints = lemma_map.get(str(record.index)) or lemma_map.get(record.label)
    return ProofTask(record.index, record.label, record.proof, hints)


def run_stage2(
    records: list[DatasetRecord],
    project: Project,
    config: RunConfig,
    operators: OperatorSet,
    verifier: Verifier,
    metrics: MetricsWriter,
    start_index: int | None = None,
    lemma_map: dict[str, LemmaMapEntry] | None = None,
) -> list[Stage2ItemResult]:
    """Process proof items in increasing index order (Stage 2), at most
    ``config.max_items`` of them from ``start_index`` on. A record's task,
    with its lemma-map hints, is built when its item runs: a segment builds
    none for the items before ``start_index`` or after its last one."""
    config.check()
    lemma_map = lemma_map or {}

    def run_one(record: DatasetRecord) -> Stage2ItemResult:
        file_id, task = target_file(record), proof_task(record, lemma_map)
        text = project.read(file_id) if project.exists(file_id) else ""
        start = {
            "index": task.index,
            "label": task.label,
            "lean_file": file_id,
            "nonempty_lines": sum(1 for ln in text.split("\n") if ln.strip()),
        }
        work = partial(
            run_stage2_item, project, file_id, task, config, operators, verifier, metrics
        )
        return run_item(project, metrics, start, work)

    items = ((r.index, r) for r in records if is_proof_target(r))
    return run_items(items, run_one, start_index, config.max_items)
