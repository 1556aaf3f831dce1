"""Run instrumentation: the metrics stream and the token footer.

Everything reported about a run is reconstructable from its metrics stream
alone. The metrics stream is the one file a run segment writes:
append-only JSONL where every line has exactly four top-level fields (ts,
run_id, event, data); its ``item_end`` lines are also the one record a
resumed run starts from. A call's tokens are the count on its
``oracle_result`` line, read from the footer of the call's transcript by
``parse_token_footer`` when the call is made.
"""

from __future__ import annotations

import json
import os
import re
import secrets
import time
from json.encoder import c_make_encoder, encode_basestring
from json.scanner import make_scanner
from pathlib import Path
from typing import Iterator

SCHEMA_VERSION = 2
_BLOCK = 8192  # bytes read at a time when a JSONL stream is read from its end
_O_BINARY = getattr(os, "O_BINARY", 0)  # Windows only: no newline translation

TOKEN_FOOTER_RE = re.compile(r"tokens used\s*([0-9][0-9,]*)")


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
    ts = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    return f"{pipeline}_stage{stage}_{ts}_{secrets.token_hex(4)}"


def _cut_torn_tail(path: Path) -> None:
    """Drop the bytes after the last newline of ``path``: a line a killed
    writer left unfinished, which no reader counts. Lines appended after it
    then start on a line of their own instead of extending it. One open,
    ``fstat`` and ``pread`` of the last byte settle the usual case, a
    stream that ends in a newline, with no write; only a torn stream is
    read backwards in blocks for its last newline. A missing file is left
    missing."""
    try:
        fd = os.open(path, os.O_RDWR | _O_BINARY)
    except (FileNotFoundError, NotADirectoryError):
        return
    try:
        pos = os.fstat(fd).st_size
        if pos == 0 or os.pread(fd, 1, pos - 1) == b"\n":
            return
        while pos > 0:
            step = min(_BLOCK, pos)
            pos -= step
            cut = os.pread(fd, step, pos).rfind(b"\n")
            if cut >= 0:
                pos += cut + 1
                break
        os.ftruncate(fd, pos)
    finally:
        os.close(fd)


# one encoder for every stream line; json.dumps with a non-default option
# builds a new one per call
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)
# what ``_LINE_ENCODER.iterencode`` passes ``c_make_encoder`` after the markers dict
_C_ENCODER_ARGS = (
    _LINE_ENCODER.default,
    encode_basestring,
    _LINE_ENCODER.indent,
    _LINE_ENCODER.key_separator,
    _LINE_ENCODER.item_separator,
    _LINE_ENCODER.sort_keys,
    _LINE_ENCODER.skipkeys,
    _LINE_ENCODER.allow_nan,
)
# the scanner of json.loads's decoder: the C one where it exists
_scan_once = make_scanner(json.JSONDecoder())


def _encode_data(data: dict) -> str:
    """``_LINE_ENCODER.encode(data)``, through the C encoder that call ends
    in, without the Python ``iterencode`` wrapper before it. A fresh
    markers dict per call keeps its check for circular data; a chunked
    result is joined whole."""
    if c_make_encoder is None:
        return _LINE_ENCODER.encode(data)
    return "".join(c_make_encoder({}, *_C_ENCODER_ARGS)(data, 0))


class MetricsWriter:
    """Append-only metrics event stream for one run segment.

    One unbuffered append handle on the JSONL file, opened in binary append
    mode at the first line and kept open until ``close``. Every line passes
    through ``_write_line``: its UTF-8 bytes go to the file in raw writes,
    one unless the system writes short, before the call returns. No buffer
    holds a line back, so a reader tailing the file sees every line written
    so far, and a killed segment leaves at most a torn last line, which is
    cut off when the next handle opens."""

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
        """Append ``line``, which ends in a newline: raw writes until the
        system has taken every byte."""
        if self._fh is None:
            _cut_torn_tail(self.path)
            self._fh = self.path.open("ab", buffering=0)
        data = line.encode("utf-8")
        written = self._fh.write(data)
        while written < len(data):
            written += self._fh.write(data[written:])

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
            f'"event": {event_json}, "data": {_encode_data(data)}}}\n'
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


def read_events(path: str | Path) -> list[dict]:
    """Parse a JSONL event stream, reading only durable (newline-terminated)
    lines so readers can tail a file a pipeline is still writing. Each line
    reads as ``json.loads`` reads it stripped, and the text is walked by
    offset, with no list of lines: a line that starts with ``{`` is one
    scanner call at its offset, kept when the value ends at the line's
    newline. Any other line goes to ``json.loads`` stripped; one that does
    not hold exactly one JSON value raises ``json.loads``'s error as a
    ``ValueError`` naming its path and line."""
    events = []
    path = Path(path)
    if not path.exists():
        return events
    text = path.read_text(encoding="utf-8")
    pos, last = 0, text.rfind("\n")
    while pos <= last:
        end = text.find("\n", pos)
        stop = -1
        if text[pos] == "{":
            try:
                obj, stop = _scan_once(text, pos)
            except (StopIteration, json.JSONDecodeError):
                pass
        if stop == end:
            events.append(obj)
        elif line := text[pos:end].strip():
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                lineno = text.count("\n", 0, pos) + 1
                raise ValueError(f"{path}:{lineno}: bad metrics line: {exc}") from exc
        pos = end + 1
    return events


def read_events_backwards(path: str | Path) -> Iterator[dict]:
    """The durable lines of a JSONL event stream, last first, each parsed
    only when it is reached: a reader that stops early reads and parses
    only the tail. The stream is read through a raw descriptor, one
    ``pread`` per block from the end, with no file object or buffer; the
    descriptor closes when the iterator ends or is dropped. The bytes after
    the last newline are ignored, as ``read_events`` ignores them, and a
    missing file yields nothing."""
    try:
        fd = os.open(path, os.O_RDONLY | _O_BINARY)
    except (FileNotFoundError, NotADirectoryError):
        return
    try:
        pos = os.fstat(fd).st_size
        pending = b""  # bytes before the lines already yielded
        durable = False  # whether the torn tail has been cut off
        while pos > 0:
            step = min(_BLOCK, pos)
            pos -= step
            pending = os.pread(fd, step, pos) + pending
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
    finally:
        os.close(fd)


def parse_token_footer(log_text: str) -> int | None:
    """Token count from the stable footer marker; last occurrence wins."""
    matches = TOKEN_FOOTER_RE.findall(log_text)
    if not matches:
        return None
    return int(matches[-1].replace(",", ""))

