from __future__ import annotations

import json
import stat
import sys
from pathlib import Path

import pytest

from autoform.diagnostics import Scope, SourceRange
from autoform.instrumentation import parse_token_footer, read_events, token_backfill
from autoform.kernel import try_patch
from autoform.operators import (
    AGENT_ROLES,
    OPERATOR_KINDS,
    TEXT_KINDS,
    ExternalBridge,
    OperatorConfigError,
    OperatorRequest,
    OperatorResponse,
    OperatorSet,
    extract_fenced_block,
    format_per_call_log,
)
from autoform.pipeline import RunConfig
from autoform.scripted import adversarial_handlers, toy_handlers, toy_propose_proof_patch
from autoform.stage1 import run_stage1
from autoform.stage2 import proof_task, run_stage2_item
from autoform.verifier import SimulatedVerifier, Verifier

from helpers import EventSink


def proof_request(project_text="def w : P := sorry\nlemma l : P := by sorry\n"):
    from autoform.simlang import analyse

    hole = analyse(project_text).hole_ranges[1]
    return OperatorRequest(
        kind="propose_proof_patch",
        payload={
            "task_id": "2",
            "file": "A.lean",
            "file_text": project_text,
            "hole": hole,
            "plan": "use the reference",
            "task": {
                "index": 2,
                "label": "Lemma 0.2",
                "reference_proof": "\\begin{proof} \\lean{w} \\end{proof}",
            },
            "goal_state": None,
            "target_range": hole,
        },
    )


class TestScriptedOperators:
    def test_deterministic_responses(self):
        req = proof_request()
        assert toy_propose_proof_patch(req) == toy_propose_proof_patch(req)

    def test_invoking_never_touches_the_project(self, project):
        project.write("A.lean", "def w : P := sorry\nlemma l : P := by sorry\n")
        before = project.read("A.lean")
        ops = OperatorSet(toy_handlers(), EventSink())
        ops.invoke(proof_request())
        assert project.read("A.lean") == before  # proposal only; no certification authority


def test_operator_registry_is_consistent():
    """Every kind has an agent role and a handler in both scripted sets, and
    the free-text kinds are operator kinds."""
    kinds = set(OPERATOR_KINDS)
    assert kinds == set(AGENT_ROLES) == set(toy_handlers()) == set(adversarial_handlers())
    assert TEXT_KINDS <= kinds


class TestOperatorSet:
    def test_each_invoke_emits_exactly_one_oracle_result(self, metrics):
        ops = OperatorSet(toy_handlers(), metrics)
        ops.invoke(proof_request())
        ops.invoke(proof_request())
        events = read_events(metrics.path)
        oracle = [e for e in events if e["event"] == "oracle_result"]
        assert len(oracle) == 2
        assert ops.invocations == 2
        assert oracle[0]["data"]["agent"] == "a"
        assert oracle[0]["data"]["kind"] == "propose_proof_patch"

    def test_unregistered_kind_is_a_config_error(self):
        ops = OperatorSet({}, EventSink())
        with pytest.raises(OperatorConfigError):
            ops.invoke(proof_request())

    def test_unknown_kind_rejected_at_request_construction(self):
        with pytest.raises(ValueError):
            OperatorRequest(kind="transmute", payload={})

    def test_crashing_handler_becomes_failed_response(self, metrics):
        def boom(request):
            raise RuntimeError("no thanks")

        ops = OperatorSet({"propose_proof_patch": boom}, metrics)
        response = ops.invoke(proof_request())
        assert not response.ok
        assert "no thanks" in response.error
        assert ops.invocations == 1  # the failure consumed the attempt


class TestTokenFooter:
    def test_comma_grouped_integer(self):
        assert parse_token_footer("...\ntokens used\n12,345\n") == 12345

    def test_inline_form(self):
        assert parse_token_footer("tokens used 777") == 777

    def test_missing_marker(self):
        assert parse_token_footer("no marker here") is None

    def test_last_occurrence_wins(self):
        text = "tokens used 100\nmore output\ntokens used\n2,000\n"
        assert parse_token_footer(text) == 2000


def write_agent_script(path: Path, body: str) -> list[str]:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return [str(path)]


FIXED_PATCH_AGENT = """\
cat > /dev/null
echo "thinking about the goal..."
echo '```lean'
echo 'exact w'
echo '```'
echo "tokens used"
echo "1,234"
"""


class TestExternalBridge:
    def test_successful_invocation_writes_log_and_patch(self, tmp_path):
        cmd = write_agent_script(tmp_path / "agent.sh", FIXED_PATCH_AGENT)
        bridge = ExternalBridge(command=cmd, log_dir=tmp_path / "calls", pipeline="proof")
        response = bridge(proof_request())
        assert response.ok
        assert response.patch is not None
        assert response.patch.replacement == "exact w"
        assert response.tokens_used == 1234
        log = Path(response.transcript_ref).read_text()
        assert log.startswith("STDOUT:\n")
        assert "\nSTDERR:\n" in log
        assert Path(response.transcript_ref).name.startswith("proof_agent_a_task_2_")

    def test_launch_failure_log_has_empty_stdout_section(self, tmp_path):
        bridge = ExternalBridge(
            command=["/nonexistent/agent"], log_dir=tmp_path / "calls", pipeline="proof"
        )
        response = bridge(proof_request())
        assert not response.ok
        log = Path(response.transcript_ref).read_text()
        assert log.startswith("STDOUT:\n\nSTDERR:\n")
        assert "launch failure" in log

    def test_no_fenced_block_is_a_failed_response(self, tmp_path):
        cmd = write_agent_script(tmp_path / "agent.sh", "cat > /dev/null\necho nothing here\n")
        bridge = ExternalBridge(command=cmd, log_dir=tmp_path / "calls")
        response = bridge(proof_request())
        assert not response.ok
        assert "fenced" in response.error

    def test_request_serialized_as_single_json_document(self, tmp_path):
        captured = tmp_path / "request.json"
        cmd = write_agent_script(
            tmp_path / "agent.sh",
            f"cat > {captured}\necho '```'\necho 'exact w'\necho '```'\n",
        )
        bridge = ExternalBridge(command=cmd, log_dir=tmp_path / "calls")
        bridge(proof_request())
        doc = json.loads(captured.read_text())
        assert doc["kind"] == "propose_proof_patch"
        assert doc["payload"]["task"]["label"] == "Lemma 0.2"
        assert set(doc["payload"]["hole"]) == {"start_line", "start_col", "end_line", "end_col"}

    def test_plan_kind_returns_text(self, tmp_path):
        cmd = write_agent_script(
            tmp_path / "agent.sh", "cat > /dev/null\necho 'step 1: use w'\n"
        )
        bridge = ExternalBridge(command=cmd, log_dir=tmp_path / "calls")
        response = bridge(OperatorRequest(kind="plan", payload={"task_id": "2", "task": {}}))
        assert response.ok and response.text == "step 1: use w"

    def test_timeout_is_a_failed_response(self, tmp_path):
        cmd = write_agent_script(tmp_path / "agent.sh", "sleep 5\n")
        bridge = ExternalBridge(command=cmd, log_dir=tmp_path / "calls", timeout=0.2)
        response = bridge(proof_request())
        assert not response.ok and response.error == "timeout"

    def test_output_that_is_not_utf8_is_read_with_replacement(self, tmp_path, metrics):
        cmd = write_agent_script(
            tmp_path / "agent.sh", "cat > /dev/null\nprintf '```\\nexact w\\377\\n```\\n'\n"
        )
        bridge = ExternalBridge(command=cmd, log_dir=tmp_path / "calls")
        response = OperatorSet({"propose_proof_patch": bridge}, metrics).invoke(proof_request())
        assert response.ok and response.patch.replacement == "exact w\ufffd"
        [event] = [e for e in read_events(metrics.path) if e["event"] == "oracle_result"]
        assert event["data"]["log_path"] == response.transcript_ref
        log = Path(response.transcript_ref).read_text(encoding="utf-8")
        assert log.startswith("STDOUT:\n```\nexact w\ufffd\n```\n")

    def test_a_timeout_inside_a_character_is_a_timeout(self, tmp_path):
        # half of the two-byte "é" (C3 A9), then the agent hangs until killed
        cmd = write_agent_script(
            tmp_path / "agent.sh", "cat > /dev/null\nprintf 'partial \\303'\nexec sleep 10\n"
        )
        bridge = ExternalBridge(command=cmd, log_dir=tmp_path / "calls", timeout=0.5)
        response = bridge(proof_request())
        assert not response.ok and response.error == "timeout"
        log = Path(response.transcript_ref).read_text(encoding="utf-8")
        assert log == format_per_call_log("partial \ufffd", "timeout after 0.5s")

    def test_bridge_and_scripted_agree_on_kernel_outcome(self, project, tmp_path):
        """The same fixed proof patch is accepted identically through either path."""
        text = "def w : P := sorry\nlemma l : P := by sorry\n"
        verifier = Verifier(SimulatedVerifier(), EventSink())

        project.write("A.lean", text)
        _, diags = verifier.verify_file(project, "A.lean")
        scripted_resp = toy_propose_proof_patch(proof_request())
        scope = Scope.of(scripted_resp.patch.range).union(
            Scope.of(SourceRange.whole_lines(0, 1))
        )
        scripted_outcome = try_patch(
            2, project, "A.lean", scope, scripted_resp.patch, diags, verifier
        )

        project.write("B.lean", text)
        _, diags_b = verifier.verify_file(project, "B.lean")
        cmd = write_agent_script(tmp_path / "agent.sh", FIXED_PATCH_AGENT)
        bridge = ExternalBridge(command=cmd, log_dir=tmp_path / "calls")
        req = proof_request()
        bridge_resp = bridge(
            OperatorRequest(kind=req.kind, payload=dict(req.payload, file="B.lean"))
        )
        scope_b = Scope.of(bridge_resp.patch.range).union(
            Scope.of(SourceRange.whole_lines(0, 1))
        )
        bridge_outcome = try_patch(
            2, project, "B.lean", scope_b, bridge_resp.patch, diags_b, verifier
        )

        assert scripted_outcome.accepted and bridge_outcome.accepted
        assert project.read("A.lean") == project.read("B.lean")

    def test_oracle_event_count_matches_per_call_logs(
        self, project, tmp_path, toy_records, metrics
    ):
        """Q from events equals the number of per-call transcripts written."""
        verifier = Verifier(SimulatedVerifier(), EventSink())
        ops = OperatorSet(toy_handlers(), EventSink())
        run_stage1(toy_records[:6], project, RunConfig(), ops, verifier, metrics)

        cmd = write_agent_script(
            tmp_path / "agent.sh", FIXED_PATCH_AGENT.replace("exact w", "exact c1s1Alpha")
        )
        bridge = ExternalBridge(command=cmd, log_dir=tmp_path / "calls", pipeline="proof")
        bridge_ops = OperatorSet({k: bridge for k in OPERATOR_KINDS}, metrics)
        vers = Verifier(SimulatedVerifier(), metrics=metrics)
        record = toy_records[1]
        task = proof_task(record, {})
        result = run_stage2_item(
            project,
            "Chapters/Chap01/section01.lean",
            task,
            RunConfig(),
            bridge_ops,
            vers,
            metrics,
        )
        assert result.status == "solved"
        events = read_events(metrics.path)
        oracle_events = [e for e in events if e["event"] == "oracle_result"]
        logs = list((tmp_path / "calls").glob("*.log"))
        assert len(oracle_events) == len(logs) == bridge_ops.invocations


class TestFencedBlocks:
    def test_no_block(self):
        assert extract_fenced_block("plain text") is None

    def test_last_block_wins(self):
        text = "```\nfirst\n```\nchat\n```lean\nsecond\n```\n"
        assert extract_fenced_block(text) == "second\n"

    def test_language_tag_ignored(self):
        assert extract_fenced_block("```lean\nexact x\n```") == "exact x\n"


class TestPerCallLogFormat:
    def test_sections_in_order(self):
        log = format_per_call_log("out text", "err text")
        assert log.index("STDOUT:") == 0
        assert log.index("STDOUT:") < log.index("STDERR:")

    def test_write_per_call_log_names_and_persists(self, tmp_path):
        from autoform.operators import write_per_call_log

        path = write_per_call_log(
            tmp_path / "calls", "proof", "plan", "7", 3, "the plan", "notes"
        )
        assert path.name == "proof_agent_c_task_7_00003.log"
        text = path.read_text()
        assert text.startswith("STDOUT:\nthe plan\nSTDERR:\nnotes")

    def test_task_ids_are_sanitized_for_filenames(self, tmp_path):
        from autoform.operators import write_per_call_log

        path = write_per_call_log(
            tmp_path / "calls", "proof", "plan", "a/b c", 1, "", ""
        )
        assert "/" not in path.name.replace(path.anchor, "")
        assert path.name == "proof_agent_c_task_a-b-c_00001.log"

    def test_backfill_reads_bridge_logs(self, tmp_path):
        cmd = write_agent_script(tmp_path / "agent.sh", FIXED_PATCH_AGENT)
        bridge = ExternalBridge(command=cmd, log_dir=tmp_path / "calls", pipeline="proof")
        bridge(proof_request())
        bridge(proof_request())
        events = token_backfill(tmp_path / "calls", EventSink())
        assert len(events) == 1
        assert events[0].task == "2"
        assert events[0].tokens_used_total == 2468
        assert events[0].log_file_count == 2

    def test_a_second_run_does_not_overwrite_an_earlier_runs_logs(self, tmp_path):
        """Two runs that share a log directory: each fresh bridge starts its
        sequence at 1, so the second run's call for the same task takes the
        next free number instead of overwriting the first run's transcript."""
        logs = tmp_path / "calls"
        paths = []
        for run in ("first", "second"):
            agent = f"import sys; sys.stdin.read(); print('{run} run'); print('tokens used 7')"
            bridge = ExternalBridge(command=[sys.executable, "-c", agent], log_dir=logs, pipeline="proof")
            paths.append(Path(bridge(proof_request()).transcript_ref))
        assert paths[0] != paths[1]
        assert [p.name for p in paths] == [
            "proof_agent_a_task_2_00001.log",
            "proof_agent_a_task_2_00002.log",
        ]
        assert "first run" in paths[0].read_text() and "second run" not in paths[0].read_text()
        assert "second run" in paths[1].read_text()
        [event] = token_backfill(logs, EventSink())
        assert (event.task, event.log_file_count, event.tokens_used_total) == ("2", 2, 14)

    def test_a_bridge_numbers_on_from_the_log_it_took(self, tmp_path):
        logs = tmp_path / "calls"
        logs.mkdir()
        (logs / "proof_agent_a_task_2_00001.log").write_text("earlier\n")
        (logs / "proof_agent_a_task_2_00002.log").write_text("earlier\n")
        agent = "import sys; sys.stdin.read(); print('now')"
        bridge = ExternalBridge(command=[sys.executable, "-c", agent], log_dir=logs, pipeline="proof")
        first, second = (Path(bridge(proof_request()).transcript_ref).name for _ in range(2))
        assert (first, second) == ("proof_agent_a_task_2_00003.log", "proof_agent_a_task_2_00004.log")
        # one sequence across the bridge's tasks, going on from the number taken
        other = proof_request()
        other.payload["task_id"] = "9"
        assert Path(bridge(other).transcript_ref).name == "proof_agent_a_task_9_00005.log"
        assert (logs / "proof_agent_a_task_2_00001.log").read_text() == "earlier\n"
