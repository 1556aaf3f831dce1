"""Dataset loading: ordered statement/proof records and lemma-map hints.

A dataset is a JSON array of record objects. Records are consumed in
strictly increasing ``index`` order no matter how the file is ordered on
disk. Unknown keys are preserved in a side map so a round-trip re-emits
the input faithfully.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

PROOF_TARGET_ENVS = frozenset({"theorem", "lemma", "proposition", "corollary"})

RECORD_KEYS = (
    "index",
    "label",
    "env",
    "number_components",
    "extracted_labels",
    "context",
    "content",
    "dependencies",
    "proof",
)

CONTEXT_KEYS = (
    "chapter_number",
    "chapter",
    "section_number",
    "section",
    "subsection_number",
    "subsection",
)


class DatasetError(ValueError):
    """Malformed dataset container or record."""


@dataclass(frozen=True)
class SectionContext:
    chapter_number: int = 0
    chapter: str = ""
    section_number: str = ""
    section: str = ""
    subsection_number: str = ""
    subsection: str = ""

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in CONTEXT_KEYS}

    @classmethod
    def from_dict(cls, d: dict) -> "SectionContext":
        return cls(
            chapter_number=int(d.get("chapter_number", 0) or 0),
            chapter=str(d.get("chapter", "")),
            section_number=str(d.get("section_number", "")),
            section=str(d.get("section", "")),
            subsection_number=str(d.get("subsection_number", "")),
            subsection=str(d.get("subsection", "")),
        )


@dataclass(frozen=True)
class DatasetRecord:
    index: int
    label: str
    env: str
    number_components: tuple[int, ...] = ()
    extracted_labels: tuple[str, ...] = ()
    context: SectionContext = field(default_factory=SectionContext)
    content: str = ""
    dependencies: tuple[str, ...] = ()
    proof: str = ""
    extra: tuple[tuple[str, object], ...] = ()

    def as_dict(self) -> dict:
        d = {
            "index": self.index,
            "label": self.label,
            "env": self.env,
            "number_components": list(self.number_components),
            "extracted_labels": list(self.extracted_labels),
            "context": self.context.as_dict(),
            "content": self.content,
            "dependencies": list(self.dependencies),
            "proof": self.proof,
        }
        d.update(dict(self.extra))
        return d


def _parse_record(obj: dict, position: int) -> DatasetRecord:
    if not isinstance(obj, dict):
        raise DatasetError(f"record at position {position} is not an object")
    for key in ("index", "label", "env", "content"):
        if key not in obj:
            raise DatasetError(f"record at position {position} missing required field {key!r}")
    content = obj["content"]
    if not isinstance(content, str) or not content:
        raise DatasetError(f"record at position {position} has empty content")
    try:
        index = int(obj["index"])
    except (TypeError, ValueError):
        raise DatasetError(f"record at position {position} has non-integer index") from None
    extra = tuple(sorted((k, v) for k, v in obj.items() if k not in RECORD_KEYS))
    return DatasetRecord(
        index=index,
        label=str(obj["label"]),
        env=str(obj["env"]),
        number_components=tuple(int(n) for n in obj.get("number_components", []) or []),
        extracted_labels=tuple(str(s) for s in obj.get("extracted_labels", []) or []),
        context=SectionContext.from_dict(obj.get("context", {}) or {}),
        content=content,
        dependencies=tuple(str(s) for s in obj.get("dependencies", []) or []),
        proof=str(obj.get("proof", "") or ""),
        extra=extra,
    )


def parse_dataset(data: object) -> list[DatasetRecord]:
    if not isinstance(data, list):
        raise DatasetError("dataset container must be a JSON array of records")
    records = [_parse_record(obj, pos) for pos, obj in enumerate(data)]
    seen: dict[int, int] = {}
    for pos, rec in enumerate(records):
        if rec.index in seen:
            raise DatasetError(
                f"duplicate index {rec.index} at positions {seen[rec.index]} and {pos}"
            )
        seen[rec.index] = pos
    records.sort(key=lambda r: r.index)
    return records


def load_dataset(path: str | Path) -> list[DatasetRecord]:
    """Load a dataset file and return its records sorted ascending by index."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"malformed dataset container in {path}: {exc}") from exc
    return parse_dataset(data)


def dump_dataset(records: list[DatasetRecord], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps([r.as_dict() for r in records], indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def is_proof_target(record: DatasetRecord) -> bool:
    """True iff the record is a proposition-like item eligible for proof repair."""
    return record.env in PROOF_TARGET_ENVS and bool(record.proof.strip())


@dataclass(frozen=True)
class LemmaMapEntry:
    problem_id: str
    decl_hints: tuple[str, ...]
    notes: str = ""

    def as_dict(self) -> dict:
        d: dict = {"problem_id": self.problem_id, "decl_hints": list(self.decl_hints)}
        if self.notes:
            d["notes"] = self.notes
        return d


def load_lemma_map(path: str | Path) -> dict[str, LemmaMapEntry]:
    """Load declaration-level hint entries keyed by problem_id.

    Hints condition operators only; they never participate in acceptance.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"malformed lemma map in {path}: {exc}") from exc
    if isinstance(data, dict):
        entries = [dict(v, problem_id=v.get("problem_id", k)) for k, v in data.items()]
    elif isinstance(data, list):
        entries = data
    else:
        raise DatasetError("lemma map must be a JSON object or array of entries")
    out: dict[str, LemmaMapEntry] = {}
    for pos, obj in enumerate(entries):
        if not isinstance(obj, dict) or "problem_id" not in obj:
            raise DatasetError(f"lemma map entry at position {pos} missing problem_id")
        hints = obj.get("decl_hints", [])
        if not isinstance(hints, list):
            raise DatasetError(f"lemma map entry at position {pos}: decl_hints must be a list")
        entry = LemmaMapEntry(
            problem_id=str(obj["problem_id"]),
            decl_hints=tuple(str(h) for h in hints),
            notes=str(obj.get("notes", "") or ""),
        )
        out[entry.problem_id] = entry
    return out
