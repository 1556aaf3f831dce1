"""Run instrumentation: the metrics stream and token backfill.

Everything reported about a run is reconstructable from the metrics stream
and the per-call logs alone. The metrics stream is the one file a run
segment writes: append-only JSONL where every line has exactly four
top-level fields (ts, run_id, event, data); its ``item_end`` lines are
also the one record a resumed run starts from.
"""

from __future__ import annotations

import json
import os
import re
import secrets
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

SCHEMA_VERSION = 2
_BLOCK = 8192  # bytes read at a time when a JSONL stream is read from its end

TOKEN_FOOTER_RE = re.compile(r"tokens used\s*([0-9][0-9,]*)")

LOG_NAME_RE = re.compile(
    r"^(?P<pipeline>[A-Za-z0-9]+)_agent_(?P<agent>[A-Za-z0-9]+)_task_(?P<task>.+)_(?P<seq>\d{5})\.log$"
)


# the last whole second ``utc_now_iso`` formatted, and its text: a cache of
# a pure function, so every caller may share it
_second: tuple[int, str] = (0, "1970-01-01T00:00:00")


def utc_now_iso() -> str:
    """The current UTC time as ``datetime.now(timezone.utc).isoformat()``
    gives it. The whole second is formatted only when it differs from the
    last one formatted, in either direction, so a clock that steps back is
    stamped right; the microseconds are appended to it."""
    global _second
    sec, us = divmod(time.time_ns() // 1000, 1_000_000)
    cached = _second  # one read, so another thread's update cannot mix two seconds
    if sec != cached[0]:
        cached = _second = (sec, time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(sec)))
    if us:
        return f"{cached[1]}.{us:06d}+00:00"
    return f"{cached[1]}+00:00"


def new_run_id(pipeline: str, stage: str | int) -> str:
    ts = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return f"{pipeline}_stage{stage}_{ts}_{secrets.token_hex(4)}"


def _cut_torn_tail(path: Path) -> None:
    """Drop the bytes after the last newline of ``path``: a line a killed
    writer left unfinished, which no reader counts. Lines appended after it
    then start on a line of their own instead of extending it."""
    if not path.exists():
        return
    with path.open("r+b") as fh:
        end = pos = fh.seek(0, os.SEEK_END)
        while pos > 0:
            step = min(_BLOCK, pos)
            pos -= step
            fh.seek(pos)
            cut = fh.read(step).rfind(b"\n")
            if cut >= 0:
                pos += cut + 1
                break
        if pos < end:
            fh.truncate(pos)


# one encoder for every stream line; json.dumps with a non-default option
# builds a new one per call
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)
_raw_decode = json.JSONDecoder().raw_decode


class MetricsWriter:
    """Append-only metrics event stream for one run segment.

    One append handle on the JSONL file, opened in binary append mode at
    the first line and kept open until ``close``. Every line passes through
    ``_write_line``: one write of its UTF-8 bytes and one flush before the
    call returns, so a reader tailing the file sees every line written so
    far. A torn last line left by a killed segment is cut off when the
    handle opens."""

    def __init__(self, path: str | Path, run_id: str):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = None
        self.run_id = run_id
        self._run_id_json = _LINE_ENCODER.encode(run_id)
        # event name -> its JSON string; a run writes a handful of names
        self._event_json: dict[str, str] = {}
        self._started = False

    def _write_line(self, line: str) -> None:
        """Append ``line``, which ends in a newline, and flush it."""
        if self._fh is None:
            _cut_torn_tail(self.path)
            self._fh = self.path.open("ab")
        self._fh.write(line.encode("utf-8"))
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "MetricsWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _append(self, event: str, data: dict) -> dict:
        # the bytes json.dumps(record, ensure_ascii=False) gives; a ts needs no escaping
        ts = utc_now_iso()
        event_json = self._event_json.get(event)
        if event_json is None:
            event_json = self._event_json[event] = _LINE_ENCODER.encode(event)
        self._write_line(
            f'{{"ts": "{ts}", "run_id": {self._run_id_json}, '
            f'"event": {event_json}, "data": {_LINE_ENCODER.encode(data)}}}\n'
        )
        return {"ts": ts, "run_id": self.run_id, "event": event, "data": data}

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


def _decode_line(line: str) -> object:
    """``json.loads(line)`` for a line with no surrounding whitespace: one
    decode, without ``json.loads``'s per-call checks. A line that does not
    decode whole is handed to ``json.loads``, which raises its error."""
    try:
        obj, end = _raw_decode(line)
        if end == len(line):
            return obj
    except json.JSONDecodeError:
        pass
    return json.loads(line)


def read_events(path: str | Path) -> list[dict]:
    """Parse a JSONL event stream, reading only durable (newline-terminated)
    lines so readers can tail a file a pipeline is still writing. Each
    stripped line is decoded once, as ``json.loads`` decodes it; a line
    that does not hold exactly one JSON value raises ``json.loads``'s error
    as a ``ValueError`` naming its path and line."""
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
            obj = _decode_line(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno + 1}: bad metrics line: {exc}") from exc
        events.append(obj)
    return events


def read_events_backwards(path: str | Path) -> Iterator[dict]:
    """The durable lines of a JSONL event stream, last first, each parsed
    only when it is reached: a reader that stops early reads and parses
    only the tail. The bytes after the last newline are ignored, as
    ``read_events`` ignores them."""
    path = Path(path)
    if not path.exists():
        return
    with path.open("rb") as fh:
        pos = fh.seek(0, os.SEEK_END)
        pending = b""  # bytes before the lines already yielded
        durable = False  # whether the torn tail has been cut off
        while pos > 0:
            step = min(_BLOCK, pos)
            pos -= step
            fh.seek(pos)
            pending = fh.read(step) + pending
            if not durable:
                cut = pending.rfind(b"\n")
                if cut < 0:
                    continue
                pending, durable = pending[:cut], True
            lines = pending.split(b"\n")
            # the first line may continue before this block unless the file starts here
            pending = lines.pop(0) if pos > 0 else b""
            for line in reversed(lines):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}: bad metrics line: {exc}") from exc


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

    def as_data(self) -> dict:
        return {
            "stage": self.stage,
            "task": self.task,
            "tokens_used_total": self.tokens_used_total,
            "tokens_used_by_agent": dict(sorted(self.tokens_used_by_agent.items())),
            "log_file_count": self.log_file_count,
        }


def token_backfill(log_directory: str | Path, metrics: MetricsWriter) -> list[TokenBackfillEvent]:
    """Aggregate per-task token totals from per-call logs.

    Logs whose names do not follow the per-call naming pattern, or that
    cannot be read as UTF-8 text, are skipped with a warning event.
    """
    log_directory = Path(log_directory)
    groups: dict[tuple[str, str], dict] = {}
    for path in sorted(log_directory.glob("*.log")):
        m = LOG_NAME_RE.match(path.name)
        if not m:
            metrics.emit("warning", {"reason": "unrecognized log name", "log": path.name})
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
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
        metrics.emit("task_tokens", ev.as_data())
    return events
