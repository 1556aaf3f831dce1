"""Dataset loading: ordered statement/proof records and lemma-map hints.

A dataset is a JSON array of record objects. Records are consumed in
strictly increasing ``index`` order no matter how the file is ordered on
disk. Unknown keys are preserved in a side map so a round-trip re-emits
the input faithfully.

``dump_dataset`` writes the array with one compact record per line, each
encoded by json's C encoder; ``load_dataset`` reads any JSON array, so a
file in an indented layout loads the same. A malformed record, field or
file is a ``DatasetError`` naming the record's position and field.

``SectionContext`` and ``DatasetRecord`` are immutable tuples
(``namedtuple`` subclasses): they compare, hash and print as the frozen
dataclasses they replaced, refuse assignment, and take ``_replace`` for a
changed copy. As tuples they also equal the plain tuple of their fields,
iterate over them and have a ``len``; callers must not rely on any of the
three.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
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
_RECORD_KEY_SET = frozenset(RECORD_KEYS)

CONTEXT_KEYS = (
    "chapter_number",
    "chapter",
    "section_number",
    "section",
    "subsection_number",
    "subsection",
)

# one record per line: the C encoder, as ``indent`` would force the Python one
_ENCODER = json.JSONEncoder(ensure_ascii=False)


class DatasetError(ValueError):
    """Malformed dataset container or record."""


def _as_int(value: object) -> int | None:
    """``value`` as an int, or None if it is not integer-valued: a bool, a
    number with a fractional part, or a value ``int`` refuses."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


def _where(position: int | None) -> str:
    return "section context" if position is None else f"record at position {position}"


def _context(d: object, cls: type, position: int | None) -> "SectionContext":
    """The context ``d`` of the record at ``position`` (None: not in a record)."""
    if not isinstance(d, dict):
        raise DatasetError(f"{_where(position)} has a context that is not an object")
    get = d.get
    number = get("chapter_number", 0) or 0
    if type(number) is not int:
        number = _as_int(number)
        if number is None:
            raise DatasetError(f"{_where(position)} has non-integer context.chapter_number")
    return tuple.__new__(
        cls,
        (
            number,
            str(get("chapter", "")),
            str(get("section_number", "")),
            str(get("section", "")),
            str(get("subsection_number", "")),
            str(get("subsection", "")),
        ),
    )


class SectionContext(namedtuple("SectionContext", CONTEXT_KEYS, defaults=(0, "", "", "", "", ""))):
    __slots__ = ()

    def as_dict(self) -> dict:
        return dict(zip(CONTEXT_KEYS, self))

    @classmethod
    def from_dict(cls, d: dict) -> "SectionContext":
        return _context(d, cls, None)


_NO_CONTEXT = SectionContext()


class DatasetRecord(
    namedtuple(
        "DatasetRecord",
        RECORD_KEYS + ("extra",),
        defaults=((), (), _NO_CONTEXT, "", (), "", ()),
    )
):
    __slots__ = ()

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
        d.update(self.extra)
        return d


def _list_field(obj: dict, key: str, position: int) -> list:
    value = obj.get(key) or []
    if not isinstance(value, list):
        raise DatasetError(f"record at position {position} has a {key} that is not a list")
    return value


def _parse_record(obj: dict, position: int) -> DatasetRecord:
    if not isinstance(obj, dict):
        raise DatasetError(f"record at position {position} is not an object")
    for key in ("index", "label", "env", "content"):
        if key not in obj:
            raise DatasetError(f"record at position {position} missing required field {key!r}")
    content = obj["content"]
    if not isinstance(content, str) or not content:
        raise DatasetError(f"record at position {position} has empty content")
    index = obj["index"]
    if type(index) is not int:
        index = _as_int(index)
        if index is None:
            raise DatasetError(f"record at position {position} has non-integer index")
    numbers = _list_field(obj, "number_components", position)
    numbers = tuple([n if type(n) is int else _as_int(n) for n in numbers])
    if None in numbers:
        raise DatasetError(f"record at position {position} has non-integer number_components entry")
    context = obj.get("context")
    context = _context(context, SectionContext, position) if context else _NO_CONTEXT
    extra = ()
    if not obj.keys() <= _RECORD_KEY_SET:
        extra = tuple(sorted([(k, v) for k, v in obj.items() if k not in _RECORD_KEY_SET]))
    return tuple.__new__(
        DatasetRecord,
        (
            index,
            str(obj["label"]),
            str(obj["env"]),
            numbers,
            tuple([str(s) for s in _list_field(obj, "extracted_labels", position)]),
            context,
            content,
            tuple([str(s) for s in _list_field(obj, "dependencies", position)]),
            str(obj.get("proof", "") or ""),
            extra,
        ),
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


def _read_json(path: Path, what: str) -> object:
    try:
        return json.loads(path.read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DatasetError(f"malformed {what} in {path}: not valid UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"malformed {what} in {path}: {exc}") from exc


def load_dataset(path: str | Path) -> list[DatasetRecord]:
    """Load a dataset file and return its records sorted ascending by index."""
    return parse_dataset(_read_json(Path(path), "dataset container"))


def dump_dataset(records: list[DatasetRecord], path: str | Path) -> None:
    """Write ``records`` as a JSON array with one compact record per line."""
    encode = _ENCODER.encode
    lines = ",\n".join([encode(r.as_dict()) for r in records])
    Path(path).write_text("[\n" + lines + "\n]\n" if records else "[]\n", encoding="utf-8")


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
    """Load hint entries keyed by problem_id from an array of entries or an
    object of entries under their problem_id (an entry's own wins). Hints
    condition operators only; they never participate in acceptance.
    """
    data = _read_json(Path(path), "lemma map")
    if isinstance(data, dict):
        entries = list(data.items())
    elif isinstance(data, list):
        entries = [(None, obj) for obj in data]
    else:
        raise DatasetError("lemma map must be a JSON object or array of entries")
    out: dict[str, LemmaMapEntry] = {}
    for pos, (key, obj) in enumerate(entries):
        where = f"lemma map entry at position {pos}"
        if not isinstance(obj, dict):
            raise DatasetError(f"{where} is not an object")
        problem_id = obj.get("problem_id", key)
        if isinstance(problem_id, bool) or not isinstance(problem_id, (str, int)):
            raise DatasetError(f"{where} has no string or integer problem_id")
        hints = obj.get("decl_hints", [])
        if not isinstance(hints, list):
            raise DatasetError(f"{where}: decl_hints must be a list")
        entry = LemmaMapEntry(
            problem_id=str(problem_id),
            decl_hints=tuple(str(h) for h in hints),
            notes=str(obj.get("notes", "") or ""),
        )
        out[entry.problem_id] = entry
    return out
