"""Proof repair under matched statements: close placeholder holes with
bounded plan/execute/repair loops and optional splitting of oversized files.

Statement signatures are never edited here; a proof patch is scoped to the
hole's range plus the file header, and the kernel rejects anything that
does not strictly improve (errors first, then hole count). The verifier
call budget T caps everything an item does, including its initial check;
executor proof-patch attempts are additionally capped at R * C.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import simlang
from .corpus import DatasetRecord, LemmaMapEntry
from .diagnostics import Diagnostic, DiagnosticSet, Scope, SourceRange, err_count
from .instrumentation import HistoryRecord, RunInstrumentation
from .kernel import PatchOutOfScopeError, try_patch
from .operators import OperatorRequest, OperatorSet
from .verifier import Project, Verifier, header_scope

DEFAULT_R = 10
DEFAULT_C = 21
DEFAULT_SPLIT_THRESHOLD = 1200


@dataclass
class Stage2Config:
    t: int = DEFAULT_R * DEFAULT_C + 9
    r: int = DEFAULT_R
    c: int = DEFAULT_C
    split_threshold: int = DEFAULT_SPLIT_THRESHOLD
    goal_query_enabled: bool = True

    def __post_init__(self) -> None:
        if min(self.t, self.r, self.c) < 1:
            raise ValueError("budgets T, R, C must all be at least 1")

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
    """Two declarations match the task label; the item is skipped."""


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

    @property
    def closed(self) -> bool:
        return self.status in ("solved", "already_closed")


def locate_target_hole(project: Project, file_id: str, task: ProofTask) -> HoleTarget | None:
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
    instrumentation: RunInstrumentation | None = None,
) -> str:
    """Partition an oversized file at declaration boundaries.

    Parts are named ``<stem>_part<K>.lean`` with a linear import chain
    (each part imports its predecessor) and the original path becomes a
    thin aggregate importing every part. Returns the part containing the
    task's target, or the input file when no split happens. The
    declaration multiset across parts equals the original file's.
    """
    if not project.exists(file_id):
        return file_id
    text = project.read(file_id)
    lines = text.split("\n")
    if len(lines) <= threshold:
        return file_id

    parsed = simlang.analyse(text).parsed
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
    for k, group in enumerate(groups):
        head = list(header_lines)
        if k > 0:
            head.append(f"import {simlang.module_name(part_ids[k - 1])}")
        body = "\n\n".join(unit_text for _, unit_text in group)
        content = "\n".join(head) + ("\n\n" if head else "") + body + "\n"
        project.write(part_ids[k], content)

    aggregate = "\n".join(f"import {simlang.module_name(pid)}" for pid in part_ids) + "\n"
    project.write(file_id, aggregate)
    if instrumentation is not None:
        instrumentation.emit(
            "split", {"lean_file": file_id, "parts": part_ids, "lines": len(lines)}
        )

    if task is None:
        return file_id
    for k, group in enumerate(groups):
        for decl, _ in group:
            if decl.doc_label == task.label:
                return part_ids[k]
    for pid in part_ids:
        if simlang.analyse(project.read(pid)).hole_ranges:
            return pid
    return file_id


def _hole_scope(project: Project, file_id: str, hole: SourceRange, verifier: Verifier) -> Scope:
    return Scope.of(hole).union(header_scope(project.read(file_id), verifier.header_bound))


def run_stage2_item(
    project: Project,
    file_id: str,
    task: ProofTask,
    config: Stage2Config,
    operators: OperatorSet,
    verifier: Verifier,
    instrumentation: RunInstrumentation | None = None,
) -> Stage2ItemResult:
    """Close one proof item's hole under the verifier-call budget."""
    started = time.monotonic()
    result = Stage2ItemResult(index=task.index, label=task.label, file=file_id)
    if instrumentation is not None:
        nonempty = 0
        if project.exists(file_id):
            nonempty = sum(1 for ln in project.read(file_id).split("\n") if ln.strip())
        instrumentation.emit(
            "item_start",
            {
                "index": task.index,
                "label": task.label,
                "lean_file": file_id,
                "nonempty_lines": nonempty,
            },
        )

    try:
        file_id = split_if_large_and_resolve(
            project, file_id, task, config.split_threshold, instrumentation
        )
        result.file = file_id
    except Exception as exc:  # split failure: log and continue unsplit
        if instrumentation is not None:
            instrumentation.emit("warning", {"reason": f"split failed: {exc}", "lean_file": file_id})

    def finish(status: str) -> Stage2ItemResult:
        result.status = status
        if instrumentation is not None:
            instrumentation.emit(
                "item_end",
                {
                    "index": task.index,
                    "label": task.label,
                    "status": status,
                    "verifier_calls": result.verifier_calls,
                    "a_attempts": result.proof_attempts,
                    "b_attempts": result.fix_attempts,
                    "c_plans": result.plans,
                    "lean_file": file_id,
                    "seconds": round(time.monotonic() - started, 6),
                },
            )
        return result

    if not project.exists(file_id):
        # stage 1 left no file for this section: nothing to verify or patch
        if instrumentation is not None:
            instrumentation.emit(
                "warning",
                {"reason": f"no such file: {file_id}", "lean_file": file_id, "index": task.index},
            )
        return finish("skipped")

    _, diags = verifier.verify_file(project, file_id)
    result.verifier_calls += 1

    goal_payload = None
    while result.verifier_calls < config.t:
        if err_count(diags) > 0:
            if result.fix_attempts >= config.t:
                # a fixer that never yields an applicable patch consumes no
                # verifier budget; bound its attempts so the item terminates
                return finish("unsolved")
            diag = select_error(diags)
            text = project.read(file_id)
            scope = Scope.of(diag.range).union(header_scope(text, verifier.header_bound))
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
            hole = locate_target_hole(project, file_id, task)
        except AmbiguousTargetError as exc:
            if instrumentation is not None:
                instrumentation.emit(
                    "warning", {"reason": str(exc), "lean_file": file_id, "index": task.index}
                )
            return finish("skipped")
        if hole is None:
            closed = result.proof_attempts > 0
            return finish("solved" if closed else "already_closed")
        if result.proof_attempts >= config.attempt_bound:
            return finish("unsolved")

        goal = None
        if config.goal_query_enabled:
            goal = verifier.goal_state(project, file_id, hole.range)
        goal_payload = goal.as_dict() if goal is not None else None

        plan_req = OperatorRequest(
            kind="plan",
            payload={"task_id": str(task.index), "task": task.payload(), "goal_state": goal_payload},
        )
        plan_resp = operators.invoke(plan_req)
        result.plans += 1
        plan_text = plan_resp.text if plan_resp.ok else ""
        if instrumentation is not None:
            instrumentation.record_history(
                HistoryRecord(
                    pipeline="proof",
                    run_id=instrumentation.run_id,
                    lean_file=file_id,
                    task_id=str(task.index),
                    kind="agent_c_plan",
                    summary=f"plans={result.plans} ok={plan_resp.ok}",
                    log_path=plan_resp.transcript_ref or "",
                    payload={
                        "round": result.plans,
                        "tokens_used": plan_resp.tokens_used or 0,
                        "plan": plan_text or "",
                    },
                )
            )

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
                    scope = _hole_scope(project, file_id, hole.range, verifier)
                    try:
                        outcome = try_patch(
                            2, project, file_id, scope, proposal.patch, diags, verifier
                        )
                        result.verifier_calls += 1
                        diags = outcome.diagnostics_after
                        accepted = outcome.accepted
                    except PatchOutOfScopeError:
                        pass
                if instrumentation is not None:
                    instrumentation.record_history(
                        HistoryRecord(
                            pipeline="proof",
                            run_id=instrumentation.run_id,
                            lean_file=file_id,
                            task_id=str(task.index),
                            kind="agent_a_attempt",
                            summary=f"attempt={result.proof_attempts} accepted={accepted}",
                            log_path=proposal.transcript_ref or "",
                            payload={
                                "attempt": result.proof_attempts,
                                "accepted": accepted,
                                "tokens_used": proposal.tokens_used or 0,
                            },
                        )
                    )
                if accepted and locate_target_hole(project, file_id, task) is None:
                    return finish("solved")
                if result.verifier_calls >= config.t:
                    return finish("unsolved")
                if result.proof_attempts >= config.attempt_bound:
                    return finish("unsolved")
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
    return finish("unsolved")


def build_proof_tasks(
    records: list[DatasetRecord],
    lemma_map: dict[str, LemmaMapEntry] | None = None,
    proof_target_envs=None,
    require_proof_text: bool = True,
) -> list[tuple[DatasetRecord, ProofTask]]:
    from .corpus import DEFAULT_PROOF_TARGET_ENVS, is_proof_target

    envs = proof_target_envs or DEFAULT_PROOF_TARGET_ENVS
    lemma_map = lemma_map or {}
    out = []
    for record in records:
        if not is_proof_target(record, envs, require_proof_text):
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
    instrumentation: RunInstrumentation | None = None,
    lemma_map: dict[str, LemmaMapEntry] | None = None,
    layout=None,
    start_index: int | None = None,
    max_items: int | None = None,
    proof_target_envs=None,
) -> list[Stage2ItemResult]:
    """Process proof items in increasing index order (Stage 2)."""
    from .stage1 import target_file

    results: list[Stage2ItemResult] = []
    processed = 0
    for record, task in build_proof_tasks(records, lemma_map, proof_target_envs):
        if start_index is not None and record.index < start_index:
            continue
        if max_items is not None and processed >= max_items:
            break
        file_id = target_file(record, layout)
        result = run_stage2_item(project, file_id, task, config, operators, verifier, instrumentation)
        results.append(result)
        processed += 1
        if instrumentation is not None:
            instrumentation.advance_cursor("next_index", record.index + 1)
    return results
