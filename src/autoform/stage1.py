"""Statement compilation: insert declaration skeletons item by item and
repair each target file until it verifies, allowing proof placeholders.

Items are processed in strictly increasing index order. Per item: snapshot
the target file, insert the skeleton proposed by the skeleton operator, set
the scope to the inserted declaration plus the file header, verify once,
then run up to K localize/repair rounds through the patch executor,
expanding the scope when localization comes up empty. If errors remain the
pre-item snapshot is restored and the item is marked failed; later items
are unaffected.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import simlang
from .corpus import DatasetRecord
from .diagnostics import Scope, SourceRange, err_count, localize
from .instrumentation import HistoryRecord, RunInstrumentation
from .kernel import (
    DEFAULT_MAX_SCOPE_EXPANSIONS,
    PatchOutOfScopeError,
    Snapshot,
    expand_scope,
    try_patch,
)
from .operators import OperatorRequest, OperatorSet
from .verifier import Project, Verifier, header_scope

DEFAULT_K = 3

STUB_TEMPLATES = {
    "theorem": "theorem {name} : {type} := by sorry",
    "lemma": "lemma {name} : {type} := by sorry",
    "def": "def {name} : {type} := sorry",
    "abbrev": "abbrev {name} : {type} := by sorry",
    "example": "example : {type} := by sorry",
    "instance": "instance {name} : {type} := by sorry",
}

# env tag -> stub template kind; proposition-like tags default to lemma
DEFAULT_STUB_POLICY = {
    "theorem": "theorem",
    "lemma": "lemma",
    "proposition": "lemma",
    "corollary": "lemma",
    "def": "def",
    "definition": "def",
    "abbrev": "abbrev",
    "example": "example",
    "instance": "instance",
}


class StubTemplateError(ValueError):
    """Record env tag has no configured stub template."""


@dataclass(frozen=True)
class TargetLayout:
    chapter_dir: str = "Chapters"
    chapter_fmt: str = "Chap{:02d}"
    section_fmt: str = "section{:02d}"
    extension: str = ".lean"


@dataclass
class Stage1Config:
    k: int = DEFAULT_K
    layout: TargetLayout = field(default_factory=TargetLayout)
    stub_policy: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_STUB_POLICY))
    max_scope_expansions: int = DEFAULT_MAX_SCOPE_EXPANSIONS

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("per-item repair budget must be non-negative")


@dataclass
class Stage1ItemResult:
    index: int
    label: str
    status: str  # compiled | restored_failed | skipped
    b_attempts: int = 0
    verifier_calls: int = 0
    file: str = ""

    @property
    def compiled(self) -> bool:
        return self.status == "compiled"


class ProvenanceMap:
    """Declaration name -> set of (dataset index, character span in content)."""

    def __init__(self) -> None:
        self.entries: dict[str, set[tuple[int, tuple[int, int]]]] = {}

    def add(self, name: str, index: int, span: tuple[int, int]) -> None:
        self.entries.setdefault(name, set()).add((index, tuple(span)))

    def drop_index(self, index: int) -> None:
        for name in list(self.entries):
            kept = {e for e in self.entries[name] if e[0] != index}
            if kept:
                self.entries[name] = kept
            else:
                del self.entries[name]

    def names(self) -> list[str]:
        return sorted(self.entries)

    def as_dict(self) -> dict:
        return {
            name: sorted([idx, list(span)] for idx, span in spans)
            for name, spans in sorted(self.entries.items())
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.as_dict(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "ProvenanceMap":
        pm = cls()
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        for name, spans in data.items():
            for idx, span in spans:
                pm.add(name, idx, (span[0], span[1]))
        return pm


def _section_number(raw: str) -> int:
    digits = ""
    for ch in raw.strip():
        if ch.isdigit():
            digits += ch
        else:
            break
    return int(digits) if digits else 0


def target_file(record: DatasetRecord, layout: TargetLayout | None = None) -> str:
    """Deterministic project path for a record, derived from its context.

    Records with an empty or non-numeric section number fall back to the
    chapter-level section00 file.
    """
    layout = layout or TargetLayout()
    chapter = layout.chapter_fmt.format(record.context.chapter_number)
    section = layout.section_fmt.format(_section_number(record.context.section_number))
    return f"{layout.chapter_dir}/{chapter}/{section}{layout.extension}"


def provenance_docstring(record: DatasetRecord) -> str:
    return f"/-- [{record.index}] {record.label} -/"


def gen_stub(
    record: DatasetRecord,
    name: str,
    type_text: str,
    stub_policy: dict[str, str] | None = None,
) -> str:
    """One of the typed stub templates keyed by env tag, preceded by the
    provenance docstring carrying the record index and label verbatim."""
    policy = DEFAULT_STUB_POLICY if stub_policy is None else stub_policy
    kind = policy.get(record.env)
    if kind is None or kind not in STUB_TEMPLATES:
        raise StubTemplateError(f"no stub template configured for env {record.env!r}")
    stub = STUB_TEMPLATES[kind].format(name=name, type=type_text)
    return f"{provenance_docstring(record)}\n{stub}"


def insert_skeleton(project: Project, file_id: str, skeleton: str) -> SourceRange:
    """Append a skeleton at the end of the target file; returns its range."""
    project.ensure(file_id)
    text = project.read(file_id)
    if text and not text.endswith("\n"):
        text += "\n"
    stub = skeleton.rstrip("\n")
    if text.strip():
        project.write(file_id, text + "\n" + stub + "\n")
        start = text.count("\n") + 1
    else:
        project.write(file_id, stub + "\n")
        start = 0
    return SourceRange.whole_lines(start, start + stub.count("\n"))


def _committed_names(project: Project, file_id: str, index: int) -> list[str]:
    declarations = simlang.analyse(project.read(file_id)).parsed.declarations
    return [d.name for d in declarations if d.name and d.doc_index == index]


def run_stage1(
    records: list[DatasetRecord],
    project: Project,
    config: Stage1Config,
    operators: OperatorSet,
    verifier: Verifier,
    instrumentation: RunInstrumentation | None = None,
    provenance: ProvenanceMap | None = None,
    start_index: int | None = None,
    max_items: int | None = None,
) -> tuple[ProvenanceMap, list[Stage1ItemResult]]:
    """Compile ordered statement items into the project (Stage 1)."""
    provenance = provenance if provenance is not None else ProvenanceMap()
    results: list[Stage1ItemResult] = []
    processed = 0
    for record in records:
        if start_index is not None and record.index < start_index:
            continue
        if max_items is not None and processed >= max_items:
            break
        result = _run_item(record, project, config, operators, verifier, instrumentation, provenance)
        results.append(result)
        processed += 1
        if instrumentation is not None:
            instrumentation.advance_cursor("next_index", record.index + 1)
    return provenance, results


def _run_item(
    record: DatasetRecord,
    project: Project,
    config: Stage1Config,
    operators: OperatorSet,
    verifier: Verifier,
    instrumentation: RunInstrumentation | None,
    provenance: ProvenanceMap,
) -> Stage1ItemResult:
    file_id = target_file(record, config.layout)
    started = time.monotonic()
    if instrumentation is not None:
        instrumentation.emit(
            "item_start",
            {
                "index": record.index,
                "label": record.label,
                "chapter": record.context.chapter_number,
                "section": record.context.section_number,
                "lean_file": file_id,
            },
        )

    snap0 = Snapshot.capture(project, file_id)
    result = Stage1ItemResult(index=record.index, label=record.label, status="skipped", file=file_id)

    try:
        skeleton_req = OperatorRequest(
            kind="gen_skeleton",
            payload={
                "task_id": str(record.index),
                "index": record.index,
                "record": record.as_dict(),
                "file": file_id,
                "file_text": project.read(file_id) if project.exists(file_id) else "",
            },
        )
        response = operators.invoke(skeleton_req)
        skeleton = response.text if response.ok else None
        if skeleton is None:
            # unusable skeleton output: fall back to a bare provenance comment so
            # the verify/repair loop has something to chew on
            skeleton = provenance_docstring(record)

        decl_range = insert_skeleton(project, file_id, skeleton)
        inserted_name = None
        for decl in simlang.analyse(project.read(file_id)).parsed.declarations:
            if decl.doc_index == record.index and decl.name:
                inserted_name = decl.name
        span = (0, len(record.content))
        if inserted_name:
            provenance.add(inserted_name, record.index, span)

        header = header_scope(project.read(file_id), verifier.header_bound)
        scope = Scope.of(decl_range).union(header)
        _, diags = verifier.verify_file(project, file_id)
        result.verifier_calls += 1

        rounds = 0
        expansions = 0
        expansion_failed = False
        while err_count(diags) > 0 and rounds < config.k:
            local = localize(diags, scope)
            if err_count(local) == 0:
                # nothing actionable localizes (warnings alone cannot drive the
                # stage objective): grow the scope toward the nearest error
                if expansions >= config.max_scope_expansions:
                    expansion_failed = True
                    break
                header = header_scope(project.read(file_id), verifier.header_bound)
                scope = expand_scope(scope, diags, header)
                expansions += 1
                rounds += 1
                continue
            text = project.read(file_id)
            repair_req = OperatorRequest(
                kind="repair_patch",
                payload={
                    "task_id": str(record.index),
                    "index": record.index,
                    "file": file_id,
                    "file_text": text,
                    "diagnostics": [d.as_dict() for d in local],
                    "scope": scope,
                    "target_range": _repair_target(text, local, decl_range),
                },
            )
            repair = operators.invoke(repair_req)
            rounds += 1
            if instrumentation is not None:
                instrumentation.record_history(
                    HistoryRecord(
                        pipeline="statement",
                        run_id=instrumentation.run_id,
                        lean_file=file_id,
                        task_id=str(record.index),
                        kind="agent_b_repair",
                        summary=f"round={rounds} ok={repair.ok}",
                        log_path=repair.transcript_ref or "",
                        payload={"round": rounds, "tokens_used": repair.tokens_used or 0},
                    )
                )
            if not repair.ok or repair.patch is None:
                continue
            try:
                outcome = try_patch(1, project, file_id, scope, repair.patch, diags, verifier)
            except PatchOutOfScopeError:
                continue
            result.b_attempts += 1
            result.verifier_calls += 1
            diags = outcome.diagnostics_after

        if err_count(diags) > 0 or expansion_failed:
            snap0.restore(project)
            provenance.drop_index(record.index)
            result.status = "restored_failed"
        else:
            result.status = "compiled"
            for name in _committed_names(project, file_id, record.index):
                provenance.add(name, record.index, span)
    except BaseException:
        # a crash inside the item leaves the file as the item found it
        snap0.restore(project)
        provenance.drop_index(record.index)
        raise

    if instrumentation is not None:
        instrumentation.emit(
            "item_end",
            {
                "index": record.index,
                "label": record.label,
                "status": result.status,
                "b_attempts": result.b_attempts,
                "verifier_calls": result.verifier_calls,
                "lean_file": file_id,
                "seconds": round(time.monotonic() - started, 6),
            },
        )
    return result


def _repair_target(text: str, local_diags, decl_range: SourceRange) -> SourceRange:
    """Contiguous region a bridge repair patch should replace: the declaration
    containing the first localized error, else that error's own range."""
    first = min(local_diags, key=lambda d: d.sort_key())
    for decl in simlang.analyse(text).parsed.declarations:
        if decl.range.intersects(first.range):
            return decl.range
    return first.range
