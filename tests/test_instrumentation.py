from __future__ import annotations

import json
import re
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from autoform import instrumentation
from autoform.instrumentation import (
    MetricsWriter,
    new_run_id,
    parse_token_footer,
    read_events,
    read_events_backwards,
    token_backfill,
    utc_now_iso,
)

from helpers import EventSink


# strings of the characters a JSON string escapes or leaves, or any text
NAMES = st.text(alphabet=st.sampled_from('a"\\\u00e9\u2200\n\x00 ')) | st.text()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=12,
)


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
        run_id = new_run_id("proof", 2)
        parts = run_id.split("_")
        assert parts[0] == "proof" and parts[1] == "stage2"
        assert len(parts[-1]) == 8  # hex suffix

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

    def test_backwards_reader_stops_early_and_raises_on_a_bad_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(instrumentation, "_BLOCK", 5)
        path = tmp_path / "m.jsonl"
        path.write_text('not json\n{"event": "a"}\n{"event": "b"}\n')
        events = read_events_backwards(path)
        assert next(events) == {"event": "b"}
        events.close()  # a reader that stops early leaves no handle open
        with pytest.raises(ValueError, match="bad metrics line"):
            list(read_events_backwards(path))


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


def agent_log(tokens: str) -> str:
    return f"STDOUT:\nwork work\ntokens used\n{tokens}\nSTDERR:\n"


class TestTokenBackfill:
    def test_roll_up_per_task_with_agent_breakdown(self, tmp_path):
        logs = tmp_path / "calls"
        logs.mkdir()
        (logs / "final_agent_a_task_0_L119_00001.log").write_text(agent_log("34,170"))
        (logs / "final_agent_c_task_0_L119_00002.log").write_text(agent_log("31,661"))
        events = token_backfill(logs, EventSink())
        assert len(events) == 1
        ev = events[0]
        assert ev.stage == "final" and ev.task == "0_L119"
        assert ev.tokens_used_total == 65831
        assert ev.tokens_used_by_agent == {"a": 34170, "c": 31661}
        assert ev.log_file_count == 2
        data = ev.as_data()
        assert data["tokens_used_total"] == sum(data["tokens_used_by_agent"].values())

    def test_empty_directory(self, tmp_path):
        logs = tmp_path / "calls"
        logs.mkdir()
        assert token_backfill(logs, EventSink()) == []

    def test_unrecognized_names_warned_and_skipped(self, tmp_path):
        logs = tmp_path / "calls"
        logs.mkdir()
        (logs / "random.log").write_text(agent_log("10"))
        with MetricsWriter(tmp_path / "m.jsonl", "backfill_tokens_x") as metrics:
            metrics.run_start({"pipeline": "backfill"})
            events = token_backfill(logs, metrics)
            assert events == []
            warnings = [e for e in read_events(tmp_path / "m.jsonl") if e["event"] == "warning"]
            assert len(warnings) == 1

    def test_a_log_that_is_not_utf8_is_warned_and_skipped(self, tmp_path):
        logs = tmp_path / "calls"
        logs.mkdir()
        (logs / "proof_agent_a_task_5_00001.log").write_text(agent_log("1,234"))
        (logs / "proof_agent_b_task_5_00002.log").write_bytes(b"tokens used\n99\n\xff\n")
        sink = EventSink()
        events = token_backfill(logs, sink)
        assert [(e.task, e.tokens_used_total, e.log_file_count) for e in events] == [("5", 1234, 1)]
        warnings = [e["data"] for e in sink.events if e["event"] == "warning"]
        assert len(warnings) == 1
        assert warnings[0]["log"] == "proof_agent_b_task_5_00002.log"
        assert warnings[0]["reason"].startswith("unreadable log: ")

    def test_totals_equal_direct_footer_sums(self, tmp_path):
        logs = tmp_path / "calls"
        logs.mkdir()
        names = [
            "proof_agent_a_task_7_00001.log",
            "proof_agent_a_task_7_00002.log",
            "proof_agent_c_task_7_00003.log",
            "proof_agent_b_task_9_00004.log",
        ]
        for i, name in enumerate(names):
            (logs / name).write_text(agent_log(str(1000 + i)))
        events = {e.task: e for e in token_backfill(logs, EventSink())}
        direct = sum(
            parse_token_footer((logs / n).read_text()) for n in names if "_task_7_" in n
        )
        assert events["7"].tokens_used_total == direct
        assert events["9"].tokens_used_total == 1003

    def test_backfill_emits_task_tokens_events(self, tmp_path):
        logs = tmp_path / "calls"
        logs.mkdir()
        (logs / "proof_agent_a_task_3_00001.log").write_text(agent_log("42"))
        with MetricsWriter(tmp_path / "m.jsonl", "backfill_tokens_y") as metrics:
            metrics.run_start({"pipeline": "backfill"})
            token_backfill(logs, metrics)
            events = [e for e in read_events(tmp_path / "m.jsonl") if e["event"] == "task_tokens"]
            assert len(events) == 1
            assert events[0]["data"]["tokens_used_total"] == 42

    def test_log_without_footer_counts_file_but_no_tokens(self, tmp_path):
        logs = tmp_path / "calls"
        logs.mkdir()
        (logs / "proof_agent_a_task_4_00001.log").write_text("STDOUT:\nno footer\nSTDERR:\n")
        events = token_backfill(logs, EventSink())
        assert events[0].log_file_count == 1
        assert events[0].tokens_used_total == 0

