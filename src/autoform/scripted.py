"""Deterministic scripted operators.

These drive the pipeline in tests and in the bundled ``simulate`` command.
They are pure functions of the request: identical requests always produce
identical responses. The toy corpus encodes the formal form of each item in
a ``\\lean{...}`` directive inside the record content, and the reference
proof carries the closing term the same way; a ``\\tricky`` marker makes the
skeleton operator emit an initially broken body so the repair loop has work
to do.
"""

from __future__ import annotations

import re

from . import simlang
from .diagnostics import Scope, SourceRange
from .kernel import PatchProposal
from .operators import OperatorRequest, OperatorResponse
from .stage1 import STUB_TEMPLATES, gen_stub
from .corpus import DatasetRecord, SectionContext

LEAN_DIRECTIVE_RE = re.compile(r"\\lean\{([^{}]*)\}")
TRICKY_MARKER = "\\tricky"
BROKEN_REFERENCE = "toyBrokenRef"


def extract_lean_directive(text: str) -> str | None:
    m = LEAN_DIRECTIVE_RE.search(text)
    return m.group(1).strip() if m else None


def _record_from_payload(payload: dict) -> DatasetRecord:
    raw = payload["record"]
    return DatasetRecord(
        index=raw["index"],
        label=raw["label"],
        env=raw["env"],
        content=raw["content"],
        proof=raw.get("proof", ""),
        context=SectionContext.from_dict(raw.get("context", {})),
    )


def toy_gen_skeleton(request: OperatorRequest) -> OperatorResponse:
    record = _record_from_payload(request.payload)
    directive = extract_lean_directive(record.content)
    if directive is None or ":" not in directive:
        return OperatorResponse.failed("record content carries no formal directive")
    name, type_text = (part.strip() for part in directive.split(":", 1))
    stub = gen_stub(record, name, type_text)
    if TRICKY_MARKER in record.content:
        stub = re.sub(r"\bsorry\b", BROKEN_REFERENCE, stub)
    return OperatorResponse(ok=True, text=stub)


def toy_repair_patch(request: OperatorRequest) -> OperatorResponse:
    """Re-stub the body of the declaration under the first localized error.

    Patching only the body range keeps the edit inside diagnostic-derived
    scopes (an error's range plus the header), not just insertion scopes.
    The operator reads only the lines of the payload's ``target_range``,
    the declaration the caller names, not the whole file.
    """
    diags = [d for d in request.payload["diagnostics"] if d["severity"] == "error"]
    if not diags:
        return OperatorResponse.failed("nothing to repair")
    rng = _range(diags[0]["range"])
    target = _range(request.payload["target_range"])
    first = target.start_line
    # a range that ends at column 0 ends with the line before
    last = target.end_line - (target.end_col == 0 and target.end_line > first)
    lines = request.payload["file_text"].split("\n")[first : last + 1]
    for decl in simlang.parse_file("\n".join(lines)).declarations:
        if (
            _moved(decl.range, first).intersects(rng)
            and decl.kind in STUB_TEMPLATES
            and decl.type_text
        ):
            template = STUB_TEMPLATES[decl.kind]
            body = " sorry" if template.endswith(":= sorry") else " by sorry"
            patch = PatchProposal(
                file=request.payload["file"],
                scope=Scope.of(_moved(decl.body_range, first)),
                replacement=body,
                origin="scripted:repair_patch",
            )
            return OperatorResponse(ok=True, patch=patch)
    return OperatorResponse.failed("no repairable declaration under the diagnostic")


def _range(rng: SourceRange | dict) -> SourceRange:
    return SourceRange.from_dict(rng) if isinstance(rng, dict) else rng


def _moved(rng: SourceRange, lines: int) -> SourceRange:
    """``rng`` moved ``lines`` lines down."""
    return SourceRange(rng.start_line + lines, rng.start_col, rng.end_line + lines, rng.end_col)


def toy_fix_compile_error(request: OperatorRequest) -> OperatorResponse:
    shim = OperatorRequest(
        kind="repair_patch",
        payload={
            "file": request.payload["file"],
            "file_text": request.payload["file_text"],
            "diagnostics": [request.payload["diagnostic"]],
            "target_range": request.payload["target_range"],
        },
    )
    return toy_repair_patch(shim)


def toy_plan(request: OperatorRequest) -> OperatorResponse:
    task = request.payload["task"]
    term = extract_lean_directive(task.get("reference_proof", "")) or "trivial"
    cues = task.get("navigation_cues") or {}
    hints = ", ".join(cues.get("decl_hints", [])) or "none"
    return OperatorResponse(ok=True, text=f"close the goal with `{term}` (cues: {hints})")


def toy_replan(request: OperatorRequest) -> OperatorResponse:
    return OperatorResponse(ok=True, text=request.payload.get("plan", "") + " (revised)")


def toy_propose_proof_patch(request: OperatorRequest) -> OperatorResponse:
    task = request.payload["task"]
    term = extract_lean_directive(task.get("reference_proof", ""))
    if term is None:
        return OperatorResponse.failed("reference proof carries no closing term")
    hole = _range(request.payload["hole"])
    patch = PatchProposal(
        file=request.payload["file"],
        scope=Scope.of(hole),
        replacement=f"exact {term}",
        origin="scripted:propose_proof_patch",
    )
    return OperatorResponse(ok=True, patch=patch)


def toy_handlers() -> dict:
    return {
        "gen_skeleton": toy_gen_skeleton,
        "repair_patch": toy_repair_patch,
        "fix_compile_error": toy_fix_compile_error,
        "plan": toy_plan,
        "replan": toy_replan,
        "propose_proof_patch": toy_propose_proof_patch,
    }


# -- adversarial operators: every proposal is useless ------------------------


def adversarial_gen_skeleton(request: OperatorRequest) -> OperatorResponse:
    record = _record_from_payload(request.payload)
    stub = gen_stub(record, f"broken{record.index}", "NeverDeclaredType")
    stub = re.sub(r"\bsorry\b", "neverDeclaredName", stub)
    return OperatorResponse(ok=True, text=stub)


def _noop_patch(request: OperatorRequest, rng: SourceRange) -> OperatorResponse:
    """A patch that rewrites a region to its current text: verified, never an
    improvement, always rejected."""
    from .diagnostics import range_text

    patch = PatchProposal(
        file=request.payload["file"],
        scope=Scope.of(rng),
        replacement=range_text(request.payload["file_text"], rng),
        origin="scripted:adversarial",
    )
    return OperatorResponse(ok=True, patch=patch)


def adversarial_repair_patch(request: OperatorRequest) -> OperatorResponse:
    diags = request.payload["diagnostics"]
    if not diags:
        return OperatorResponse.failed("nothing to repair")
    return _noop_patch(request, SourceRange.from_dict(diags[0]["range"]))


def adversarial_fix_compile_error(request: OperatorRequest) -> OperatorResponse:
    rng = SourceRange.from_dict(request.payload["diagnostic"]["range"])
    return _noop_patch(request, rng)


def adversarial_propose_proof_patch(request: OperatorRequest) -> OperatorResponse:
    # replacing the hole with another hole keeps the objective flat
    hole = _range(request.payload["hole"])
    patch = PatchProposal(
        file=request.payload["file"],
        scope=Scope.of(hole),
        replacement="sorry",
        origin="scripted:adversarial",
    )
    return OperatorResponse(ok=True, patch=patch)


def adversarial_handlers() -> dict:
    return {
        "gen_skeleton": adversarial_gen_skeleton,
        "repair_patch": adversarial_repair_patch,
        "fix_compile_error": adversarial_fix_compile_error,
        "plan": toy_plan,
        "replan": toy_replan,
        "propose_proof_patch": adversarial_propose_proof_patch,
    }
