"""Statement compilation: insert declaration skeletons item by item and
repair each target file until it verifies, allowing proof placeholders.

Items are processed in strictly increasing index order. Per item: stage
the skeleton proposed by the skeleton operator, set the scope to the
inserted declaration plus the file header, verify once, then run up to K
(``RunConfig.budget_k``) localize/repair rounds through the patch
executor, expanding the scope when localization comes up empty. Each
item is one ``kernel.run_item`` transaction: it commits once if no
errors remain and is discarded otherwise or on a raise, so later items
are unaffected. Its ``item_end`` line carries the names it declared,
read from the ``[index]`` docstrings of the text it commits: that line
is the one record of its provenance. A declaration already committed by
an interrupted run is checked again, not inserted again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from . import simlang
from .corpus import DatasetRecord
from .diagnostics import Scope, SourceRange, err_count, localize, select_error
from .instrumentation import MetricsWriter
from .kernel import (
    DEFAULT_MAX_SCOPE_EXPANSIONS,
    PatchOutOfScopeError,
    expand_scope,
    run_item,
    run_items,
    try_patch,
)
from .operators import OperatorRequest, OperatorSet
from .verifier import Project, Verifier, header_scope

if TYPE_CHECKING:
    from .pipeline import RunConfig

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
STUB_POLICY = {
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


TARGET_FILE = "Chapters/Chap{chapter:02d}/section{section:02d}.lean"


@dataclass
class Stage1ItemResult:
    index: int
    label: str
    status: str  # compiled | restored_failed
    b_attempts: int = 0
    verifier_calls: int = 0
    file: str = ""
    names: tuple[str, ...] = ()

    def end_fields(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "status": self.status,
            "b_attempts": self.b_attempts,
            "verifier_calls": self.verifier_calls,
            "lean_file": self.file,
            "names": list(self.names),
        }


def _section_number(raw: str) -> int:
    digits = ""
    for ch in raw.strip():
        if ch.isdigit():
            digits += ch
        else:
            break
    return int(digits) if digits else 0


def target_file(record: DatasetRecord) -> str:
    """Deterministic project path for a record, derived from its context.

    Records with an empty or non-numeric section number fall back to the
    chapter-level section00 file.
    """
    return TARGET_FILE.format(
        chapter=record.context.chapter_number,
        section=_section_number(record.context.section_number),
    )


def provenance_docstring(record: DatasetRecord) -> str:
    return f"/-- [{record.index}] {record.label} -/"


def gen_stub(record: DatasetRecord, name: str, type_text: str) -> str:
    """One of the typed stub templates keyed by env tag, preceded by the
    provenance docstring carrying the record index and label verbatim."""
    kind = STUB_POLICY.get(record.env)
    if kind is None:
        raise StubTemplateError(f"no stub template configured for env {record.env!r}")
    stub = STUB_TEMPLATES[kind].format(name=name, type=type_text)
    return f"{provenance_docstring(record)}\n{stub}"


def insert_skeleton(
    record: DatasetRecord, project: Project, file_id: str, operators: OperatorSet
) -> SourceRange:
    """Stage the skeleton operator's declaration for ``record`` at the end of
    the target file; returns its range."""
    text = project.read(file_id) if project.exists(file_id) else ""
    skeleton_req = OperatorRequest(
        kind="gen_skeleton",
        payload={
            "task_id": str(record.index),
            "index": record.index,
            "record": record.as_dict(),
            "file": file_id,
            "file_text": text,
        },
    )
    response = operators.invoke(skeleton_req)
    skeleton = response.text if response.ok else None
    if skeleton is None:
        # unusable skeleton output: fall back to a bare provenance comment so
        # the verify/repair loop has something to chew on
        skeleton = provenance_docstring(record)
    if text and not text.endswith("\n"):
        text += "\n"
    stub = skeleton.rstrip("\n")
    if text.strip():
        project.stage(file_id, text + "\n" + stub + "\n")
        start = text.count("\n") + 1
    else:
        project.stage(file_id, stub + "\n")
        start = 0
    return SourceRange.whole_lines(start, start + stub.count("\n"))


def _item_units(project: Project, file_id: str, index: int) -> list[simlang.Declaration]:
    """The named declarations whose docstring carries ``[index]``."""
    if not project.exists(file_id):
        return []
    declarations = project.analysis(file_id).declarations
    return [d for d in declarations if d.name and d.doc_index == index]


def run_stage1(
    records: list[DatasetRecord],
    project: Project,
    config: RunConfig,
    operators: OperatorSet,
    verifier: Verifier,
    metrics: MetricsWriter,
    start_index: int | None = None,
) -> list[Stage1ItemResult]:
    """Compile ordered statement items into the project (Stage 1), at most
    ``config.max_items`` of them from ``start_index`` on."""
    config.check()

    def run_one(record: DatasetRecord) -> Stage1ItemResult:
        start = {
            "index": record.index,
            "label": record.label,
            "chapter": record.context.chapter_number,
            "section": record.context.section_number,
            "lean_file": target_file(record),
        }
        work = partial(_run_item, record, project, config, operators, verifier)
        return run_item(project, metrics, start, work)

    return run_items(((r.index, r) for r in records), run_one, start_index, config.max_items)


def _run_item(
    record: DatasetRecord,
    project: Project,
    config: RunConfig,
    operators: OperatorSet,
    verifier: Verifier,
) -> Stage1ItemResult:
    """Stage the record's declaration and repair its file; the edits stay
    staged for the item's commit, or are discarded if errors remain. A
    compiled result names the declarations that carry the record's
    ``[index]`` in the text to be committed."""
    file_id = target_file(record)
    result = Stage1ItemResult(record.index, record.label, "compiled", file=file_id)

    committed = _item_units(project, file_id, record.index)
    if committed:
        # committed before a crash that came ahead of its item_end line:
        # check it again, do not insert it again
        decl_range = committed[-1].unit_range
    else:
        decl_range = insert_skeleton(record, project, file_id, operators)

    header = header_scope(project.analysis(file_id))
    scope = Scope.of(decl_range).union(header)
    _, diags = verifier.verify_file(project, file_id)
    result.verifier_calls += 1

    rounds = 0
    expansions = 0
    while err_count(diags) > 0 and rounds < config.budget_k:
        local = localize(diags, scope)
        if err_count(local) == 0:
            # nothing actionable localizes (warnings alone cannot drive the
            # stage objective): grow the scope toward the nearest error
            if expansions >= DEFAULT_MAX_SCOPE_EXPANSIONS:
                break
            header = header_scope(project.analysis(file_id))
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
                "target_range": _repair_target(project.analysis(file_id), local),
            },
        )
        repair = operators.invoke(repair_req)
        rounds += 1
        if not repair.ok or repair.patch is None:
            continue
        try:
            outcome = try_patch(1, project, file_id, scope, repair.patch, diags, verifier)
        except PatchOutOfScopeError:
            continue
        result.b_attempts += 1
        result.verifier_calls += 1
        diags = outcome.diagnostics_after

    if err_count(diags) > 0:
        project.discard()
        result.status = "restored_failed"
    else:
        result.names = tuple(d.name for d in _item_units(project, file_id, record.index))
    return result


def _repair_target(analysis: simlang.Analysis, local_diags) -> SourceRange:
    """Contiguous region a bridge repair patch should replace: the declaration
    of the file's ``analysis`` containing the first localized error, else
    that error's own range."""
    first = select_error(local_diags)
    declarations = analysis.declarations
    i = simlang.declaration_at(declarations, first.range)
    return first.range if i is None else declarations[i].range
