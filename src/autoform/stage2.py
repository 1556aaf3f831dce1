"""Proof repair under matched statements: close placeholder holes with
bounded plan/execute/repair loops and optional splitting of oversized files.

Statement signatures are never edited here; a proof patch is scoped to the
hole's range plus the file header, and the kernel rejects anything that
does not strictly improve (errors first, then hole count). The verifier
call budget T caps everything an item does, including its initial check;
executor proof-patch attempts are additionally capped at R * C. The item's
split and accepted patches are staged in the ``Project``; the item runs as
one transaction of the kernel (``kernel.run_item``), which commits them
once before its ``item_end`` line and discards them if the item raises.
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

from . import simlang
from .corpus import DatasetRecord, LemmaMapEntry, is_proof_target
from .diagnostics import Diagnostic, DiagnosticSet, Scope, SourceRange, err_count
from .instrumentation import MetricsWriter
from .kernel import PatchOutOfScopeError, run_item, run_items, try_patch
from .operators import OperatorRequest, OperatorSet
from .stage1 import target_file
from .verifier import Project, Verifier, header_scope

DEFAULT_R = 10
DEFAULT_C = 21
DEFAULT_T = DEFAULT_R * DEFAULT_C + 9
DEFAULT_SPLIT_THRESHOLD = 1200


@dataclass
class Stage2Config:
    t: int = DEFAULT_T
    r: int = DEFAULT_R
    c: int = DEFAULT_C
    split_threshold: int = DEFAULT_SPLIT_THRESHOLD

    def __post_init__(self) -> None:
        if min(self.t, self.r, self.c) < 1:
            raise ValueError("budgets T, R, C must all be at least 1")
        if self.split_threshold < 1:
            raise ValueError("split threshold must be at least 1")

    @property
    def attempt_bound(self) -> int:
        return self.r * self.c


@dataclass(frozen=True)
class ProofTask:
    index: int
    label: str
    reference_proof: str = ""
    lemma_hints: LemmaMapEntry | None = None

    @classmethod
    def from_record(cls, record: DatasetRecord, hints: LemmaMapEntry | None = None) -> "ProofTask":
        return cls(
            index=record.index,
            label=record.label,
            reference_proof=record.proof,
            lemma_hints=hints,
        )

    def payload(self) -> dict:
        d = {"index": self.index, "label": self.label, "reference_proof": self.reference_proof}
        if self.lemma_hints is not None:
            d["navigation_cues"] = {
                "decl_hints": list(self.lemma_hints.decl_hints),
                "notes": self.lemma_hints.notes,
            }
        return d


@dataclass(frozen=True)
class HoleTarget:
    file: str
    range: SourceRange
    declaration: str


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


def locate_target_hole(project: Project, file_id: str, task: ProofTask) -> HoleTarget | None:
    """Find the task's placeholder: by docstring label, falling back to the
    unique holed declaration only in a file without labels. None when
    already closed."""
    analysis = project.analysis(file_id)
    units = list(zip(analysis.parsed.declarations, analysis.decl_holes))

    labeled = [(d, holes) for d, holes in units if d.doc_label == task.label]
    if len(labeled) > 1 or (not labeled and any(d.doc_label for d, _ in units)):
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


def select_error(diagnostics: DiagnosticSet) -> Diagnostic:
    """The error with the smallest start position; ties break by message."""
    errors = diagnostics.errors()
    if not errors:
        raise ValueError("select_error requires at least one error diagnostic")
    return min(errors, key=lambda d: (d.range.start, d.message))


def split_if_large_and_resolve(
    project: Project,
    file_id: str,
    task: ProofTask | None,
    threshold: int,
    metrics: MetricsWriter | None = None,
) -> str:
    """Partition an oversized file at declaration boundaries.

    Parts are named ``<stem>_part<K>.lean`` with a linear import chain
    (each part imports its predecessor) and the original path becomes a
    thin aggregate importing every part; all are staged. Returns the part
    containing the task's target, or the input file when no split happens.
    The declaration multiset across parts equals the original file's. A
    split never stages over another file: if a part's name holds a file
    whose declarations are not the part's, nothing is staged and a warning
    line names it. A file with the part's declarations is that part, left
    by a commit of this split that did not finish, and is written again.
    """
    if not project.exists(file_id):
        return file_id
    text = project.read(file_id)
    lines = text.split("\n")
    if len(lines) <= threshold:
        return file_id

    parsed = project.analysis(file_id).parsed
    if parsed.stray_lines or not parsed.declarations:
        return file_id  # cannot attribute every line to a unit; abort split
    header_lines = []
    if parsed.header_span is not None:
        header_lines = lines[parsed.header_span[0] : parsed.header_span[1] + 1]

    units = []
    for decl in parsed.declarations:
        unit_text = "\n".join(lines[decl.unit_range.start_line : decl.range.end_line + 1])
        units.append((decl, unit_text))

    groups: list[list[tuple[simlang.Declaration, str]]] = [[]]
    budget = max(threshold, 1)
    used = len(header_lines)
    for decl, unit_text in units:
        unit_lines = unit_text.count("\n") + 2
        if groups[-1] and used + unit_lines > budget:
            groups.append([])
            used = len(header_lines)
        groups[-1].append((decl, unit_text))
        used += unit_lines
    if len(groups) < 2:
        return file_id

    stem = file_id[:-5] if file_id.endswith(".lean") else file_id
    part_ids = [f"{stem}_part{k}.lean" for k in range(1, len(groups) + 1)]
    # every name is looked up, so the project knows the parts are absent
    taken = [
        pid
        for pid, group in zip(part_ids, groups)
        if project.exists(pid)
        and _signatures(project.analysis(pid).parsed.declarations)
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
    config: Stage2Config,
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

    def attempt(kind: str, payload: dict) -> bool:
        """Invoke ``kind`` on the file and put the patch it returns, if any,
        through the kernel, scoped to ``payload["target_range"]`` plus the
        header. Returns whether the patch was accepted."""
        nonlocal diags
        text = project.read(file_id)
        response = operators.invoke(
            OperatorRequest(
                kind=kind,
                payload={"task_id": str(task.index), "file": file_id, "file_text": text, **payload},
            )
        )
        if not response.ok or response.patch is None:
            return False
        scope = Scope.of(payload["target_range"]).union(header_scope(project.analysis(file_id)))
        try:
            outcome = try_patch(2, project, file_id, scope, response.patch, diags, verifier)
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

    hole = plan = goal_payload = None  # hole: the target located when planning
    accepted = False
    while True:
        # look the target up before planning and after every accepted proposal
        planning = hole is None and result.verifier_calls < config.t and not err_count(diags)
        if planning or accepted:
            try:
                found = locate_target_hole(project, file_id, task)
            except AmbiguousTargetError as exc:
                return skip(str(exc))
            if found is None:
                result.status = "solved" if result.proof_attempts else "already_closed"
                return result
            if planning:
                hole = found

        if result.verifier_calls >= config.t:
            return result
        if err_count(diags):
            if result.fix_attempts >= config.t:
                # a fixer that never yields an applicable patch consumes no
                # verifier budget; bound its attempts so the item terminates
                return result
            diag = select_error(diags)
            result.fix_attempts += 1
            attempt("fix_compile_error", {"diagnostic": diag.as_dict(), "target_range": diag.range})
            continue
        if result.proof_attempts >= config.attempt_bound:
            return result

        if planning:
            goal = verifier.goal_state(project, file_id, hole.range)
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
        elif result.proof_attempts % config.r == 0:
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
                "hole": hole.range,
                "declaration": hole.declaration,
                "plan": plan,
                "task": task.payload(),
                "goal_state": goal_payload,
                "target_range": hole.range,
                "attempt": result.proof_attempts,
            },
        )
        if accepted:
            result.accepted_attempts.append(result.proof_attempts)


def build_proof_tasks(
    records: list[DatasetRecord],
    lemma_map: dict[str, LemmaMapEntry] | None = None,
) -> list[tuple[DatasetRecord, ProofTask]]:
    lemma_map = lemma_map or {}
    out = []
    for record in records:
        if not is_proof_target(record):
            continue
        hints = lemma_map.get(str(record.index)) or lemma_map.get(record.label)
        out.append((record, ProofTask.from_record(record, hints)))
    return out


def run_stage2(
    records: list[DatasetRecord],
    project: Project,
    config: Stage2Config,
    operators: OperatorSet,
    verifier: Verifier,
    metrics: MetricsWriter,
    lemma_map: dict[str, LemmaMapEntry] | None = None,
    start_index: int | None = None,
    max_items: int | None = None,
) -> list[Stage2ItemResult]:
    """Process proof items in increasing index order (Stage 2)."""

    def run_one(item: tuple[str, ProofTask]) -> Stage2ItemResult:
        file_id, task = item
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

    tasks = build_proof_tasks(records, lemma_map)
    items = ((task.index, (target_file(record), task)) for record, task in tasks)
    return run_items(items, run_one, start_index, max_items)
