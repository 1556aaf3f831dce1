from __future__ import annotations

import json
import math
import os
import re
import tempfile
import time
from datetime import datetime, timezone
from json.scanner import py_make_scanner
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from autoform import instrumentation
from autoform.instrumentation import (
    MetricsWriter,
    new_run_id,
    read_events,
    read_events_backwards,
    utc_now_iso,
)

from oracles import ref_read_events


# strings of the characters a JSON string escapes or leaves, or any text
NAMES = st.text(alphabet=st.sampled_from('a"\\\u00e9\u2200\n\x00 ')) | st.text()
# JSON-able values with what a line may carry: non-ASCII text, NaN and the
# infinities, int keys and nested lists
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | NAMES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(NAMES | st.integers(), inner, max_size=3),
    max_leaves=12,
)
# ASCII and Unicode whitespace that str.strip removes
BLANKS = st.sampled_from(["", " ", "\t", "\x0c", "\xa0", "\u3000"])
# one line of a metrics stream, without its newline: an object line, or a
# value that is not one object, with whitespace around it
STREAM_LINES = st.tuples(
    BLANKS,
    st.builds(lambda v: json.dumps(v, ensure_ascii=False), st.dictionaries(NAMES, JSON_VALUES))
    | st.sampled_from(
        [
            "",
            '{"a":\n1}',  # an object that runs across the newline
            '{"a":',
            "1}",
            '{"a": 1} {"b": 2}',
            '{"a":1}{"b":2}',
            '{"a": 1},',
            "1",
            '"s"',
            "[1, 2]",
            "null",
            "NaN",
            '{"a": NaN}',
            "-Infinity",
            "{",
            "}",
            '{"a": }',
            "{'a': 1}",
            '\ufeff{"a": 1}',
        ]
    ),
    BLANKS,
).map("".join)


class TestUtcNowIso:
    # (seconds, microseconds) in the order the clock reads them: microsecond
    # 0 and 999,999 in one second, a rollover, a step back into an earlier
    # second, and the second left before the step back again
    READINGS = [
        (1_760_000_000, 0),
        (1_760_000_000, 999_999),
        (1_760_000_001, 0),
        (1_760_000_001, 42),
        (1_759_999_999, 500_000),
        (1_760_000_001, 7),
    ]

    def test_equals_isoformat_of_the_same_instant(self, monkeypatch):
        for sec, us in self.READINGS:
            # the nanoseconds below a microsecond are dropped, as datetime.now drops them
            ns = (sec * 1_000_000 + us) * 1000 + 999
            monkeypatch.setattr(time, "time_ns", lambda: ns)
            expected = datetime.fromtimestamp(sec, timezone.utc).replace(microsecond=us)
            assert utc_now_iso() == expected.isoformat()


class ShortWrites:
    """A raw append handle whose every write takes at most 7 bytes."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data: bytes) -> int:
        self.writes += 1
        return self.fh.write(bytes(data[:7]))

    def close(self) -> None:
        self.fh.close()


class TestMetricsWriter:
    def test_every_line_has_exactly_four_fields(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with MetricsWriter(path, "proof_stage2_x") as metrics:
            metrics.run_start({"pipeline": "proof"})
            metrics.emit("item_start", {"index": 1, "label": "Lemma 1.1"})
            metrics.run_end({"processed": 1})
            for line in path.read_text().splitlines():
                record = json.loads(line)
                assert set(record) == {"ts", "run_id", "event", "data"}
                assert record["run_id"] == "proof_stage2_x"

    def test_lines_are_the_bytes_json_dumps_gives(self, tmp_path):
        path = tmp_path / "m.jsonl"
        data = {"label": "Lemma \u00e9\u2200", "x": [1.5, None, True], "q": 'a"\\\n'}
        with MetricsWriter(path, "r") as metrics:
            records = [metrics.run_start({}), metrics.emit("tick", data)]
        expected = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_an_event_name_that_needs_escaping_is_encoded_as_json_dumps_does(self, tmp_path):
        # the writer encodes each name once; the second line reuses it
        path = tmp_path / "m.jsonl"
        name = 'odd "name"\x01\t\u00e9\u2200\\'
        with MetricsWriter(path, "r") as metrics:
            records = [metrics.run_start({})]
            records += [metrics.emit(name, {"k": k}) for k in range(2)]
            records.append(metrics.emit("tick", {}))
        expected = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
        assert path.read_bytes() == expected.encode("utf-8")
        assert [json.loads(line)["event"] for line in path.read_text().splitlines()] == [
            "run_start", name, name, "tick",
        ]

    @given(
        run_id=NAMES,
        events=st.lists(st.tuples(NAMES, JSON_VALUES), max_size=4),
    )
    def test_any_line_is_the_bytes_json_dumps_gives(self, run_id, events):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.jsonl"
            with MetricsWriter(path, run_id) as metrics:
                records = [metrics.run_start({})]
                records += [metrics.emit(event, data) for event, data in events]
            expected = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
            assert path.read_bytes() == expected.encode("utf-8")
        for record in records:
            assert datetime.fromisoformat(record["ts"]).tzinfo == timezone.utc
            assert record["ts"].endswith("+00:00")

    def test_a_stream_written_7_bytes_at_a_time_is_the_same_stream(self, tmp_path, monkeypatch):
        monkeypatch.setattr(instrumentation, "utc_now_iso", lambda: "2026-01-02T03:04:05.000006+00:00")

        def write(path: Path, handle=None) -> bytes:
            metrics = MetricsWriter(path, "r")
            metrics._fh = handle
            with metrics:
                metrics.run_start({"pipeline": "proof"})
                for k in range(20):
                    metrics.emit("tick", {"k": k, "text": "\u00e9\u2200" * k})
            return path.read_bytes()

        whole = write(tmp_path / "whole.jsonl")
        short = tmp_path / "short.jsonl"
        handle = ShortWrites(short.open("ab", buffering=0))
        assert write(short, handle) == whole
        assert handle.writes >= len(whole) / 7 > 21

    def test_emit_before_run_start_is_an_error(self, tmp_path):
        with MetricsWriter(tmp_path / "m.jsonl", "r") as metrics:
            with pytest.raises(RuntimeError, match="run_start"):
                metrics.emit("item_start", {})

    def test_ordering_preserved(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with MetricsWriter(path, "r") as metrics:
            metrics.run_start({})
            for i in range(5):
                metrics.emit("tick", {"i": i})
            events = read_events(path)
            assert [e["data"]["i"] for e in events if e["event"] == "tick"] == list(range(5))

    def test_run_start_carries_schema_version(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with MetricsWriter(path, "r") as metrics:
            metrics.run_start({"pipeline": "proof"})
        assert read_events(path)[0]["data"]["schema_version"] == 2

    def test_run_id_shape(self):
        before = datetime.now(timezone.utc).replace(microsecond=0)
        run_id = new_run_id("proof", 2)
        after = datetime.now(timezone.utc)
        m = re.fullmatch(r"proof_stage2_(\d{8}T\d{6}Z)_[0-9a-f]{8}", run_id)
        assert m, run_id
        stamp = datetime.strptime(m.group(1), "%Y%m%dT%H%M%SZ").replace(tzinfo=timezone.utc)
        assert before <= stamp <= after  # the UTC time of the call, to the second
        assert re.fullmatch(r"statement_stage1_\d{8}T\d{6}Z_[0-9a-f]{8}", new_run_id("statement", 1))

    def test_torn_trailing_line_is_ignored_by_readers(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with MetricsWriter(path, "r") as metrics:
            metrics.run_start({})
            metrics.emit("tick", {"i": 0})
            with path.open("a", encoding="utf-8") as fh:
                fh.write('{"ts": "t", "run_id": "r", "eve')  # writer died mid-line
            events = read_events(path)
            assert [e["event"] for e in events] == ["run_start", "tick"]

    def test_a_torn_line_does_not_merge_with_the_next_segment(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        with MetricsWriter(path, "a") as metrics:
            metrics.run_start({})
            metrics.emit("tick", {"i": 0, "pad": "x" * 40})
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"ts": "t", "run_id": "a", "event": "tick", "da')  # writer killed mid-line
        monkeypatch.setattr(instrumentation, "_BLOCK", 16)  # the cut is found across blocks
        with MetricsWriter(path, "b") as metrics:
            metrics.run_start({})
        events = read_events(path)
        assert [(e["run_id"], e["event"]) for e in events] == [
            ("a", "run_start"),
            ("a", "tick"),
            ("b", "run_start"),
        ]
        assert list(read_events_backwards(path)) == list(reversed(events))

    def test_a_torn_tail_longer_than_a_block_is_cut(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with MetricsWriter(path, "a") as metrics:
            metrics.run_start({})
        durable = path.read_bytes()
        torn = b'{"ts": "t", "data": "' + b"x" * (3 * instrumentation._BLOCK + 17)
        with path.open("ab") as fh:
            fh.write(torn)
        with MetricsWriter(path, "b") as metrics:
            metrics.run_start({})
        assert path.read_bytes().startswith(durable)
        assert [e["run_id"] for e in read_events(path)] == ["a", "b"]

    def test_a_stream_that_ends_in_a_newline_gets_no_write_when_a_handle_opens(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "m.jsonl"
        with MetricsWriter(path, "a") as metrics:
            metrics.run_start({})
        durable = path.read_bytes()
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))
        truncations = []
        monkeypatch.setattr(os, "ftruncate", lambda fd, n: truncations.append(n))
        instrumentation._cut_torn_tail(path)
        assert path.read_bytes() == durable
        assert path.stat().st_mtime_ns == 1_000_000_000
        with MetricsWriter(path, "b") as metrics:
            metrics.run_start({})
        assert truncations == []
        assert path.read_bytes().startswith(durable)
        assert [e["run_id"] for e in read_events(path)] == ["a", "b"]

    def test_a_stream_that_is_all_torn_line_starts_empty(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"ts": "t", "eve')
        with MetricsWriter(path, "b") as metrics:
            metrics.run_start({})
        assert [e["run_id"] for e in read_events(path)] == ["b"]

    @pytest.mark.parametrize("tail", ["", '{"ts": "t", "eve', '{"ts": "t"}', "\n\n", "  "])
    @pytest.mark.parametrize("block_size", [1, 2, 3, 7, 64, 8192])
    def test_backwards_reader_yields_the_durable_lines_last_first(
        self, tmp_path, monkeypatch, tail, block_size
    ):
        monkeypatch.setattr(instrumentation, "_BLOCK", block_size)
        path = tmp_path / "m.jsonl"
        with MetricsWriter(path, "r") as metrics:
            metrics.run_start({"text": "ünï ∀ x → y"})
            for i in range(12):
                metrics.emit("tick", {"i": i, "pad": "x" * (i * 5)})
        with path.open("a", encoding="utf-8") as fh:
            fh.write(tail)
        expected = list(reversed(read_events(path)))
        assert len(expected) == 13
        assert list(read_events_backwards(path)) == expected

    def test_backwards_reader_of_no_durable_line(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        assert list(read_events_backwards(path)) == []
        path.write_text('{"ts": "t", "run_id": "r", "event": "tick", "data": {}}')
        assert list(read_events_backwards(path)) == []
        monkeypatch.setattr(instrumentation, "_BLOCK", 4)
        assert list(read_events_backwards(path)) == []

    def test_backwards_reader_closes_its_descriptor(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        path.write_text('{"event": "a"}\n{"event": "b"}\n')
        opened, closed = [], []
        real_open, real_close = os.open, os.close

        def counting_open(*args, **kwargs):
            fd = real_open(*args, **kwargs)
            opened.append(fd)
            return fd

        def counting_close(fd):
            closed.append(fd)
            real_close(fd)

        monkeypatch.setattr(os, "open", counting_open)
        monkeypatch.setattr(os, "close", counting_close)
        assert [e["event"] for e in read_events_backwards(path)] == ["b", "a"]
        events = read_events_backwards(path)
        assert next(events) == {"event": "b"}
        del events  # a reader dropped early
        assert list(read_events_backwards(tmp_path / "missing.jsonl")) == []
        assert len(opened) == 2 and sorted(closed) == sorted(opened)

    def test_backwards_reader_stops_early_and_raises_on_a_bad_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(instrumentation, "_BLOCK", 5)
        path = tmp_path / "m.jsonl"
        path.write_text('not json\n{"event": "a"}\n{"event": "b"}\n')
        events = read_events_backwards(path)
        assert next(events) == {"event": "b"}
        events.close()  # a reader that stops early leaves no handle open
        with pytest.raises(ValueError, match="bad metrics line"):
            list(read_events_backwards(path))


def stream_bytes(records: list[dict]) -> bytes:
    """The stream ``json.dumps`` makes of ``records``, one line each."""
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")


def without_c_encoder(mp: pytest.MonkeyPatch) -> None:
    """Run as on a Python whose json module has no C encoder: the writer
    falls back to ``JSONEncoder.encode``, which then encodes in Python."""
    mp.setattr(instrumentation, "c_make_encoder", None)
    mp.setattr(json.encoder, "c_make_encoder", None)


C_ENCODER = pytest.mark.parametrize("c_encoder", [True, False], ids=["c_encoder", "no_c_encoder"])


class TestLineBytes:
    """Each line is the bytes ``json.dumps(record, ensure_ascii=False)``
    gives its record, plus a newline, also where json has no C encoder
    (``test_any_line_is_the_bytes_json_dumps_gives`` covers the C path)."""

    @given(events=st.lists(st.tuples(NAMES, JSON_VALUES), max_size=4))
    def test_any_line_without_the_c_encoder(self, events):
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            without_c_encoder(mp)
            path = Path(tmp) / "m.jsonl"
            with MetricsWriter(path, "r\u00e9") as metrics:
                records = [metrics.run_start({})]
                records += [metrics.emit(event, data) for event, data in events]
            assert path.read_bytes() == stream_bytes(records)

    @C_ENCODER
    def test_a_payload_over_64_kib(self, tmp_path, monkeypatch, c_encoder):
        # Python 3.11's C encoder returns this as two chunks, past 100,000
        # pieces; the line holds both
        if not c_encoder:
            without_c_encoder(monkeypatch)
        payload = {
            "rows": list(range(60_000)),
            "text": "\u00e9\u2200 " * 30_000,
            7: [[math.nan, math.inf, -math.inf], {"k": None}],
        }
        path = tmp_path / "m.jsonl"
        with MetricsWriter(path, "r") as metrics:
            records = [metrics.run_start({}), metrics.emit("big", payload)]
        data = path.read_bytes()
        assert len(data) > 64 * 1024
        assert data == stream_bytes(records)

    @C_ENCODER
    def test_a_circular_payload_raises_and_leaves_the_writer_usable(
        self, tmp_path, monkeypatch, c_encoder
    ):
        if not c_encoder:
            without_c_encoder(monkeypatch)
        path = tmp_path / "m.jsonl"
        payload = {"inner": [1, 2], "loop": []}
        payload["loop"].append(payload)
        with MetricsWriter(path, "r") as metrics:
            records = [metrics.run_start({})]
            with pytest.raises(ValueError, match="Circular reference"):
                metrics.emit("tick", payload)
            # once the loop is cut the same objects encode: no line keeps
            # the circular check's marks of an earlier one
            payload["loop"].clear()
            records.append(metrics.emit("tick", payload))
        assert path.read_bytes() == stream_bytes(records)


class TestReadEvents:
    # each line after a good first line, and what the per-line json.loads
    # reader gave for it: the events, or the error after "<path>:2: "
    ODD_LINES = [
        ('{"a": 1} {"b": 2}', "bad metrics line: Extra data: line 1 column 10 (char 9)"),
        ('{"a": 1}, {"b": 2}', "bad metrics line: Extra data: line 1 column 9 (char 8)"),
        ("1", [{"z": 0}, 1]),
        (" \t  ", [{"z": 0}]),
        (
            '\ufeff{"a": 1}',
            "bad metrics line: Unexpected UTF-8 BOM (decode using utf-8-sig):"
            " line 1 column 1 (char 0)",
        ),
        (' {"a": 1}\r', [{"z": 0}, {"a": 1}]),
        ('{"a":\n1}', "bad metrics line: Expecting value: line 1 column 6 (char 5)"),
    ]

    @pytest.mark.parametrize("line, expected", ODD_LINES)
    def test_an_odd_line_reads_as_json_loads_read_it(self, tmp_path, line, expected):
        path = tmp_path / "m.jsonl"
        path.write_bytes(('{"z": 0}\n' + line + "\n").encode("utf-8"))
        if isinstance(expected, list):
            assert read_events(path) == expected
        else:
            with pytest.raises(ValueError, match=re.escape(f"{path}:2: {expected}")):
                read_events(path)

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(st.tuples(STREAM_LINES, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8),
        tail=st.sampled_from(["", '{"torn": ', '{"a": 1}', "  "]),
        python_scanner=st.booleans(),
    )
    def test_any_stream_reads_as_the_list_of_lines_read_it(self, lines, tail, python_scanner):
        """The events, or the error text, equal those of the reader that
        split the durable text into lines and decoded each stripped line,
        with the C scanner and with json's Python one."""
        text = "".join(line + end for line, end in lines) + tail
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            if python_scanner:
                mp.setattr(instrumentation, "_scan_once", py_make_scanner(json.JSONDecoder()))
            path = Path(tmp) / "m.jsonl"
            path.write_bytes(text.encode("utf-8"))
            assert outcome(read_events, path) == outcome(ref_read_events, path)


def outcome(read, path) -> tuple[str, str]:
    """What ``read(path)`` gives, as text: its events, or its error. A
    ``repr`` tells 1 from 1.0 and lets NaN equal itself."""
    try:
        return ("events", repr(read(path)))
    except ValueError as exc:
        return (type(exc).__name__, str(exc))
