"""Run instrumentation: checkpoints, metrics events, history, token backfill.

Everything reported about a run is reconstructable from these artifacts
alone. The metrics stream is append-only JSONL where every line has exactly
four top-level fields (ts, run_id, event, data); the checkpoint is a single
JSON object with exactly one integer cursor key; history is a compact
append-only JSONL trace with truncated strings whose full text remains in
per-call logs.
"""

from __future__ import annotations

import json
import os
import re
import secrets
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

SCHEMA_VERSION = 2
TRUNCATION_BOUND = 4096
TRUNCATION_MARK = "...[truncated]"

CHECKPOINT_KEYS = ("next_index", "next_file_index")

TOKEN_FOOTER_RE = re.compile(r"tokens used\s*([0-9][0-9,]*)")

LOG_NAME_RE = re.compile(
    r"^(?P<pipeline>[A-Za-z0-9]+)_agent_(?P<agent>[A-Za-z0-9]+)_task_(?P<task>.+)_(?P<seq>\d{5})\.log$"
)


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


def new_run_id(pipeline: str, stage: str | int) -> str:
    ts = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return f"{pipeline}_stage{stage}_{ts}_{secrets.token_hex(4)}"


class CheckpointError(RuntimeError):
    """Unreadable or malformed checkpoint; refuse to run without an override."""


@dataclass(frozen=True)
class Checkpoint:
    key: str
    cursor: int

    def __post_init__(self) -> None:
        if self.key not in CHECKPOINT_KEYS:
            raise CheckpointError(f"checkpoint key must be one of {CHECKPOINT_KEYS}: {self.key!r}")
        if not isinstance(self.cursor, int) or isinstance(self.cursor, bool):
            raise CheckpointError(f"checkpoint cursor must be an integer: {self.cursor!r}")

    def as_dict(self) -> dict:
        return {self.key: self.cursor}


def write_checkpoint(path: str | Path, checkpoint: Checkpoint) -> None:
    """Atomic write: temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(checkpoint.as_dict()) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def read_checkpoint(path: str | Path) -> Checkpoint | None:
    """Last durable cursor, or None when no checkpoint exists yet."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(data, dict) or len(data) != 1:
        raise CheckpointError(f"checkpoint {path} must hold exactly one key")
    key, cursor = next(iter(data.items()))
    if not isinstance(cursor, int) or isinstance(cursor, bool):
        raise CheckpointError(f"checkpoint {path} cursor is not an integer")
    return Checkpoint(key=key, cursor=cursor)


class _AppendStream:
    """One append handle on a JSONL file, opened at the first line and kept
    open until ``close``. Each line is flushed before the call that writes
    it returns, so a reader tailing the file sees every line written so far."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = None

    def _write_line(self, obj: dict) -> None:
        if self._fh is None:
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MetricsWriter(_AppendStream):
    """Append-only metrics event stream for one run segment."""

    def __init__(self, path: str | Path, run_id: str):
        super().__init__(path)
        self.run_id = run_id
        self._started = False

    def _append(self, event: str, data: dict) -> dict:
        record = {"ts": utc_now_iso(), "run_id": self.run_id, "event": event, "data": data}
        self._write_line(record)
        return record

    def run_start(self, data: dict) -> dict:
        payload = {"schema_version": SCHEMA_VERSION}
        payload.update(data)
        self._started = True
        return self._append("run_start", payload)

    def emit(self, event: str, data: dict) -> dict:
        if not self._started:
            raise RuntimeError("emit before run_start")
        return self._append(event, data)

    def run_end(self, summary: dict) -> dict:
        return self.emit("run_end", summary)


def read_events(path: str | Path) -> list[dict]:
    """Parse a JSONL event stream, reading only durable (newline-terminated)
    lines so readers can tail a file a pipeline is still writing."""
    events = []
    path = Path(path)
    if not path.exists():
        return events
    text = path.read_text(encoding="utf-8")
    durable, sep, _tail = text.rpartition("\n")
    if not sep:
        return events
    for lineno, line in enumerate(durable.split("\n")):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno + 1}: bad metrics line: {exc}") from exc
        events.append(obj)
    return events


def write_summary(path: str | Path, summary: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def _truncate(value: object, bound: int) -> object:
    if isinstance(value, str) and len(value) > bound:
        return value[: bound - len(TRUNCATION_MARK)] + TRUNCATION_MARK
    return value


@dataclass
class HistoryRecord:
    pipeline: str
    run_id: str
    lean_file: str
    task_id: str
    kind: str
    summary: str = ""
    log_path: str = ""
    payload: dict = field(default_factory=dict)
    ts: str = ""

    def as_dict(self, bound: int = TRUNCATION_BOUND) -> dict:
        payload = {k: _truncate(v, bound) for k, v in self.payload.items()}
        return {
            "ts": self.ts or utc_now_iso(),
            "pipeline": self.pipeline,
            "run_id": self.run_id,
            "lean_file": self.lean_file,
            "task_id": self.task_id,
            "kind": self.kind,
            "summary": _truncate(self.summary, bound),
            "log_path": self.log_path,
            "payload": payload,
        }


class HistoryStore(_AppendStream):
    """Append-only compact per-task trace; long strings are truncated."""

    def __init__(self, path: str | Path, truncation_bound: int = TRUNCATION_BOUND):
        super().__init__(path)
        self.truncation_bound = truncation_bound

    def append(self, record: HistoryRecord) -> dict:
        obj = record.as_dict(self.truncation_bound)
        self._write_line(obj)
        return obj

    def load_window(
        self,
        lean_file: str | None = None,
        task_id: str | None = None,
        limit: int = 10,
    ) -> list[dict]:
        """Last ``limit`` records matching the given file/task filters."""
        if not self.path.exists():
            return []
        matched = []
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                if lean_file is not None and obj.get("lean_file") != lean_file:
                    continue
                if task_id is not None and obj.get("task_id") != task_id:
                    continue
                matched.append(obj)
        return matched[-limit:]


def parse_token_footer(log_text: str) -> int | None:
    """Token count from the stable footer marker; last occurrence wins."""
    matches = TOKEN_FOOTER_RE.findall(log_text)
    if not matches:
        return None
    return int(matches[-1].replace(",", ""))


@dataclass(frozen=True)
class TokenBackfillEvent:
    stage: str
    task: str
    tokens_used_total: int
    tokens_used_by_agent: dict[str, int]
    log_file_count: int
    lean_file: str | None = None

    def as_data(self) -> dict:
        data = {
            "stage": self.stage,
            "task": self.task,
            "tokens_used_total": self.tokens_used_total,
            "tokens_used_by_agent": dict(sorted(self.tokens_used_by_agent.items())),
            "log_file_count": self.log_file_count,
        }
        if self.lean_file:
            data["lean_file"] = self.lean_file
        return data


def token_backfill(
    log_directory: str | Path,
    metrics: MetricsWriter | None = None,
) -> list[TokenBackfillEvent]:
    """Aggregate per-task token totals from per-call logs.

    Logs whose names do not follow the per-call naming pattern, or that
    cannot be read, are skipped with a warning event.
    """
    log_directory = Path(log_directory)
    groups: dict[tuple[str, str], dict] = {}
    for path in sorted(log_directory.glob("*.log")):
        m = LOG_NAME_RE.match(path.name)
        if not m:
            if metrics is not None:
                metrics.emit("warning", {"reason": "unrecognized log name", "log": path.name})
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            if metrics is not None:
                metrics.emit("warning", {"reason": f"unreadable log: {exc}", "log": path.name})
            continue
        tokens = parse_token_footer(text)
        key = (m.group("pipeline"), m.group("task"))
        entry = groups.setdefault(key, {"by_agent": {}, "count": 0})
        entry["count"] += 1
        if tokens is not None:
            agent = m.group("agent")
            entry["by_agent"][agent] = entry["by_agent"].get(agent, 0) + tokens

    events = []
    for (stage, task), entry in sorted(groups.items()):
        ev = TokenBackfillEvent(
            stage=stage,
            task=task,
            tokens_used_total=sum(entry["by_agent"].values()),
            tokens_used_by_agent=entry["by_agent"],
            log_file_count=entry["count"],
        )
        events.append(ev)
        if metrics is not None:
            metrics.emit("task_tokens", ev.as_data())
    return events


@dataclass
class RunInstrumentation:
    """Bundle of the per-run sinks handed to pipeline stages."""

    metrics: MetricsWriter
    history: HistoryStore | None = None
    checkpoint_path: Path | None = None
    log_dir: Path | None = None

    @property
    def run_id(self) -> str:
        return self.metrics.run_id

    def emit(self, event: str, data: dict) -> None:
        self.metrics.emit(event, data)

    def record_history(self, record: HistoryRecord) -> None:
        if self.history is not None:
            record.run_id = record.run_id or self.run_id
            self.history.append(record)

    def advance_cursor(self, key: str, cursor: int) -> None:
        if self.checkpoint_path is not None:
            write_checkpoint(self.checkpoint_path, Checkpoint(key=key, cursor=cursor))

    def close(self) -> None:
        """Close the stream handles; the owner of the run segment calls this."""
        try:
            self.metrics.close()
        finally:
            if self.history is not None:
                self.history.close()

    def __enter__(self) -> "RunInstrumentation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
