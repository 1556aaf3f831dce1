from __future__ import annotations

import json
import os

import pytest

from autoform.instrumentation import (
    Checkpoint,
    CheckpointError,
    HistoryRecord,
    HistoryStore,
    MetricsWriter,
    RunInstrumentation,
    TRUNCATION_MARK,
    new_run_id,
    parse_token_footer,
    read_checkpoint,
    read_events,
    token_backfill,
    write_checkpoint,
    write_summary,
)


class TestCheckpoint:
    def test_next_index_roundtrip(self, tmp_path):
        path = tmp_path / "cp.json"
        write_checkpoint(path, Checkpoint("next_index", 5))
        assert json.loads(path.read_text()) == {"next_index": 5}
        assert read_checkpoint(path) == Checkpoint("next_index", 5)

    def test_next_file_index_for_file_level_pipelines(self, tmp_path):
        path = tmp_path / "cp.json"
        write_checkpoint(path, Checkpoint("next_file_index", 2))
        assert read_checkpoint(path) == Checkpoint("next_file_index", 2)

    def test_missing_file_reads_none(self, tmp_path):
        assert read_checkpoint(tmp_path / "absent.json") is None

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "cp.json"
        write_checkpoint(path, Checkpoint("next_index", 9))
        assert os.listdir(tmp_path) == ["cp.json"]

    def test_corrupt_checkpoint_refuses(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text("{broken")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_multiple_keys_rejected(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({"next_index": 1, "next_file_index": 2}))
        with pytest.raises(CheckpointError, match="exactly one"):
            read_checkpoint(path)

    def test_non_integer_cursor_rejected(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({"next_index": "five"}))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(CheckpointError):
            Checkpoint("next_thing", 0)


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

    def test_summary_write(self, tmp_path):
        write_summary(tmp_path / "s.json", {"pipeline": "proof", "processed_items": 3})
        assert json.loads((tmp_path / "s.json").read_text())["processed_items"] == 3

    def test_torn_trailing_line_is_ignored_by_readers(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with MetricsWriter(path, "r") as metrics:
            metrics.run_start({})
            metrics.emit("tick", {"i": 0})
            with path.open("a", encoding="utf-8") as fh:
                fh.write('{"ts": "t", "run_id": "r", "eve')  # writer died mid-line
            events = read_events(path)
            assert [e["event"] for e in events] == ["run_start", "tick"]


class TestHistoryStore:
    def record(self, **kw):
        base = dict(
            pipeline="proof",
            run_id="r",
            lean_file="A.lean",
            task_id="1",
            kind="agent_c_plan",
            summary="ok",
            payload={"round": 1, "plan": "use w", "plan_raw": "{...}"},
        )
        base.update(kw)
        return HistoryRecord(**base)

    def test_append_and_shape(self, tmp_path):
        with HistoryStore(tmp_path / "h.jsonl") as store:
            store.append(self.record())
            line = json.loads((tmp_path / "h.jsonl").read_text())
            assert line["kind"] == "agent_c_plan"
            assert line["payload"]["plan"] == "use w"
            assert {"ts", "pipeline", "run_id", "lean_file", "task_id", "kind"} <= set(line)

    def test_long_strings_truncated_with_marker(self, tmp_path):
        with HistoryStore(tmp_path / "h.jsonl", truncation_bound=100) as store:
            store.append(self.record(summary="x" * 100_000))
            line = json.loads((tmp_path / "h.jsonl").read_text())
            assert len(line["summary"]) == 100
            assert line["summary"].endswith(TRUNCATION_MARK)

    def test_payload_strings_truncated_too(self, tmp_path):
        with HistoryStore(tmp_path / "h.jsonl", truncation_bound=50) as store:
            store.append(self.record(payload={"error_log": "e" * 9000, "round": 2}))
            line = json.loads((tmp_path / "h.jsonl").read_text())
            assert len(line["payload"]["error_log"]) == 50
            assert line["payload"]["round"] == 2

    def test_window_filters_by_file_and_task(self, tmp_path):
        with HistoryStore(tmp_path / "h.jsonl") as store:
            for i in range(8):
                store.append(self.record(task_id=str(i % 2), summary=f"s{i}"))
            window = store.load_window(lean_file="A.lean", task_id="1", limit=3)
            assert [w["summary"] for w in window] == ["s3", "s5", "s7"]

    def test_window_on_missing_store_is_empty(self, tmp_path):
        assert HistoryStore(tmp_path / "h.jsonl").load_window() == []


def agent_log(tokens: str) -> str:
    return f"STDOUT:\nwork work\ntokens used\n{tokens}\nSTDERR:\n"


class TestTokenBackfill:
    def test_roll_up_per_task_with_agent_breakdown(self, tmp_path):
        logs = tmp_path / "calls"
        logs.mkdir()
        (logs / "final_agent_a_task_0_L119_00001.log").write_text(agent_log("34,170"))
        (logs / "final_agent_c_task_0_L119_00002.log").write_text(agent_log("31,661"))
        events = token_backfill(logs)
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
        assert token_backfill(logs) == []

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
        events = {e.task: e for e in token_backfill(logs)}
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
        events = token_backfill(logs)
        assert events[0].log_file_count == 1
        assert events[0].tokens_used_total == 0


class TestRunInstrumentation:
    def test_advance_cursor_writes_checkpoint(self, tmp_path):
        with MetricsWriter(tmp_path / "m.jsonl", "r") as metrics:
            metrics.run_start({})
            instr = RunInstrumentation(metrics=metrics, checkpoint_path=tmp_path / "cp.json")
            instr.advance_cursor("next_index", 12)
            assert read_checkpoint(tmp_path / "cp.json").cursor == 12
