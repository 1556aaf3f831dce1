from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

from autoform import accounting, pipeline, simlang, stage1
from autoform.instrumentation import MetricsWriter, read_events, read_events_backwards
from autoform.pipeline import RunConfig, resolve_cursor, run_proof_stage, run_statement_stage
from autoform.verifier import SimulatedVerifier

from helpers import tree_hash

BRIDGE_AGENT = Path(__file__).resolve().parent / "bridge_agent.py"


def run_both(cfg: RunConfig):
    cfg.stage = 1
    r1, s1 = run_statement_stage(cfg)
    cfg.stage = 2
    r2, s2 = run_proof_stage(cfg)
    return (r1, s1), (r2, s2)


class TestCheckerRuns:
    def test_every_checker_run_is_a_lean_check_or_a_project_check_file(
        self, toy_config, monkeypatch
    ):
        """The checker runs only in counted calls: once per ``lean_check``
        line and once per file of a ``project_check`` line. A goal query,
        asked only of a file that verifies, runs none."""
        runs, goal_queries = [], []
        check, goal_state = SimulatedVerifier._check, SimulatedVerifier.goal_state
        monkeypatch.setattr(
            SimulatedVerifier, "_check", lambda self, *a: runs.append(1) or check(self, *a)
        )
        monkeypatch.setattr(
            SimulatedVerifier,
            "goal_state",
            lambda self, *a: goal_queries.append(1) or goal_state(self, *a),
        )
        run_both(toy_config)
        runs_dir = Path(toy_config.runs_dir)
        events = read_events(runs_dir / "metrics_statement.jsonl") + read_events(
            runs_dir / "metrics_proof.jsonl"
        )
        lean_checks = sum(1 for e in events if e["event"] == "lean_check")
        files = sum(e["data"]["files"] for e in events if e["event"] == "project_check")
        assert goal_queries and files
        assert len(runs) == lean_checks + files


class TestRunSegments:
    def test_summary_mirrors_run_end_payload(self, toy_config):
        (_, s1), (_, s2) = run_both(toy_config)
        runs = Path(toy_config.runs_dir)
        for pipeline, summary in (("statement", s1), ("proof", s2)):
            events = read_events(runs / f"metrics_{pipeline}.jsonl")
            run_end = [e for e in events if e["event"] == "run_end"][-1]
            assert run_end["data"] == summary

    def test_run_start_records_config_and_environment(self, toy_config):
        run_both(toy_config)
        events = read_events(Path(toy_config.runs_dir) / "metrics_statement.jsonl")
        start = events[0]
        assert start["event"] == "run_start"
        assert start["data"]["config"]["adapter"] == "simulated"
        assert start["data"]["config"]["dataset"] == toy_config.dataset
        assert start["data"]["data_file"] == toy_config.dataset

    def test_run_start_config_is_asdict_of_the_segment_config(self, toy_config):
        toy_config.operator_command = ["agent", "--flag"]
        toy_config.verify_command = ["lean", "check"]
        toy_config.max_items = 2
        run_statement_stage(toy_config)
        start = read_events(Path(toy_config.runs_dir) / "metrics_statement.jsonl")[0]
        assert start["data"]["config"] == asdict(replace(toy_config, stage=1))
        assert list(start["data"]["config"]) == [f.name for f in fields(RunConfig)]
        data = pipeline._config_data(toy_config)
        assert data == asdict(toy_config)
        assert data["operator_command"] is not toy_config.operator_command  # a copy

    def test_a_segment_records_the_stage_it_runs(self, toy_config):
        # the config is left at its default stage, 1, for both segments
        run_statement_stage(toy_config)
        _, summary = run_proof_stage(toy_config)
        assert summary["stage"] == 2 and toy_config.stage == 1
        for pipeline, stage in (("statement", 1), ("proof", 2)):
            start = read_events(Path(toy_config.runs_dir) / f"metrics_{pipeline}.jsonl")[0]
            assert (start["data"]["stage"], start["data"]["config"]["stage"]) == (stage, stage)

    def test_account_reproduces_live_run_totals(self, toy_config):
        (_, s1), (_, s2) = run_both(toy_config)
        runs = Path(toy_config.runs_dir)
        events = read_events(runs / "metrics_statement.jsonl") + read_events(
            runs / "metrics_proof.jsonl"
        )
        report = accounting.build_report(events)
        assert report.verifier_calls == s1["total_verifier_calls"] + s2["total_verifier_calls"]
        assert report.oracle_calls == s1["total_oracle_calls"] + s2["total_oracle_calls"]
        assert report.targets == s1["processed_items"] + s2["processed_items"]
        assert report.metrics.scc == s1["scc"]
        assert report.metrics.psr == s2["psr"]
        assert report.metrics.pb is True

    def test_attempt_counters_reconcile_with_item_results(self, toy_config):
        (r1, s1), (r2, s2) = run_both(toy_config)
        assert s1["total_verifier_calls"] == sum(r.verifier_calls for r in r1)
        assert s2["total_verifier_calls"] == sum(r.verifier_calls for r in r2)
        assert s1["total_b_attempts"] == sum(r.b_attempts for r in r1)
        assert s2["total_a_attempts"] == sum(r.proof_attempts for r in r2)

    def test_item_end_names_the_declaration_carrying_its_index(self, toy_config):
        (r1, _), _ = run_both(toy_config)
        events = read_events(Path(toy_config.runs_dir) / "metrics_statement.jsonl")
        ends = [e["data"] for e in events if e["event"] == "item_end"]
        assert len(ends) == 24 and all(r.status == "compiled" for r in r1)
        # one generated declaration per statement item
        doc_index = {
            d.name: d.doc_index
            for f in Path(toy_config.project).rglob("*.lean")
            for d in simlang.analyse(f.read_text(encoding="utf-8")).declarations
            if d.name and d.doc_index is not None
        }
        assert len(doc_index) == 24
        for end in ends:
            assert len(end["names"]) == 1, end
            assert doc_index[end["names"][0]] == end["index"]
        assert [tuple(e["names"]) for e in ends] == [r.names for r in r1]
        proof = read_events(Path(toy_config.runs_dir) / "metrics_proof.jsonl")
        assert all("names" not in e["data"] for e in proof if e["event"] == "item_end")

    def test_fresh_run_ids_per_segment(self, toy_config):
        toy_config.stage = 1
        toy_config.max_items = 12
        run_statement_stage(toy_config)
        toy_config.resume = True
        run_statement_stage(toy_config)
        events = read_events(Path(toy_config.runs_dir) / "metrics_statement.jsonl")
        run_ids = {e["run_id"] for e in events}
        assert len(run_ids) == 2

    def test_cursor_advances_and_resume_skips(self, toy_config):
        toy_config.stage = 1
        toy_config.max_items = 5
        _, s_first = run_statement_stage(toy_config)
        assert s_first["next_index"] == 6
        toy_config.resume = True
        toy_config.max_items = None
        results, _ = run_statement_stage(toy_config)
        assert [r.index for r in results] == list(range(6, 25))

    def test_a_stage_run_leaves_no_checkpoint_file(self, toy_config):
        run_both(toy_config)
        assert list(Path(toy_config.runs_dir).glob("checkpoint_*.json")) == []


class TestBridgeOperators:
    """Both stages through the operator bridge, with the toy operators run
    as an agent process (``bridge_agent.py``), give what the in-process toy
    operators give. A slice of the toy corpus keeps the agent processes
    few: six statements, one of them repaired, and the four proof targets
    among them."""

    @classmethod
    def outcome(cls, cfg: RunConfig, proof_cfg: RunConfig | None = None, proofs: int = 4):
        """Item statuses, V, Q, the project's bytes and the report CSV of
        the slice's two segments, the proof segment run with ``proof_cfg``
        when one is given, on the first ``proofs`` proof targets."""
        r1, _ = run_statement_stage(replace(cfg, max_items=6))
        r2, _ = run_proof_stage(replace(proof_cfg or cfg, max_items=proofs))
        return cls.measured(cfg, r1 + r2)

    @staticmethod
    def measured(cfg: RunConfig, results: list):
        """Item statuses of ``results``, and V, Q, the project's bytes and
        the report CSV of the runs of ``cfg``."""
        runs = Path(cfg.runs_dir)
        events = read_events(runs / "metrics_statement.jsonl") + read_events(
            runs / "metrics_proof.jsonl"
        )
        report = accounting.build_report(events)
        return (
            [(r.index, r.status) for r in results],
            report.verifier_calls,
            report.oracle_calls,
            tree_hash(Path(cfg.project)),
            accounting.render_csv(accounting.per_problem_rows(events)),
        )

    def test_a_bridge_run_matches_the_in_process_run(self, toy_config, tmp_path, monkeypatch):
        monkeypatch.delenv("PYTHONPATH", raising=False)  # the agent finds autoform itself
        bridge_config = replace(
            toy_config,
            project=str(tmp_path / "bridge_project"),
            runs_dir=str(tmp_path / "bridge_runs"),
            operators="bridge",
            operator_command=[sys.executable, str(BRIDGE_AGENT)],
        )
        toy, bridge = self.outcome(toy_config), self.outcome(bridge_config)
        assert bridge == toy
        assert toy[0] == [(k, "compiled") for k in range(1, 7)] + [
            (k, "solved") for k in (2, 4, 5, 6)
        ]
        # every oracle call ran the agent and left its transcript
        assert len(list((tmp_path / "bridge_runs" / "calls").glob("*.log"))) == bridge[2]

    def test_resumed_bridge_segments_match_the_in_process_run(
        self, toy_config, tmp_path, monkeypatch
    ):
        """The slice through the bridge in ``--resume --max-items 2``
        segments, three of stage 1 and two of stage 2, gives what one
        in-process segment of each stage gives, and each oracle call of
        every segment leaves a transcript of its own."""
        monkeypatch.delenv("PYTHONPATH", raising=False)
        segmented = replace(
            toy_config,
            project=str(tmp_path / "bridge_project"),
            runs_dir=str(tmp_path / "bridge_runs"),
            operators="bridge",
            operator_command=[sys.executable, str(BRIDGE_AGENT)],
            resume=True,
            max_items=2,
        )
        segments = [run_statement_stage(segmented)[0] for _ in range(3)]
        segments += [run_proof_stage(segmented)[0] for _ in range(2)]
        assert [[r.index for r in results] for results in segments] == [
            [1, 2], [3, 4], [5, 6], [2, 4], [5, 6]
        ]
        bridge = self.measured(segmented, [r for results in segments for r in results])
        assert bridge == self.outcome(toy_config)
        runs = tmp_path / "bridge_runs"
        events = read_events(runs / "metrics_statement.jsonl") + read_events(
            runs / "metrics_proof.jsonl"
        )
        assert sum(e["event"] == "run_start" for e in events) == 5
        logs = {str(p) for p in (runs / "calls").glob("*.log")}
        named = [e["data"]["log_path"] for e in events if e["event"] == "oracle_result"]
        assert len(logs) == len(named) == bridge[2] and set(named) == logs

    def test_rejected_patches_and_replans_match_the_in_process_run(
        self, toy_config, tmp_path, monkeypatch
    ):
        """Stage 1 with the toy operators, then stage 2 with the adversarial
        ones, run as an agent process: every proof patch goes through the
        bridge to the kernel, which rejects it, and each item replans until
        its attempt bound. Stage 1 runs in process, to keep the agent
        processes few."""
        monkeypatch.delenv("PYTHONPATH", raising=False)
        own = replace(
            toy_config,
            project=str(tmp_path / "bridge_project"),
            runs_dir=str(tmp_path / "bridge_runs"),
        )
        budgets = {"budget_r": 2, "budget_c": 2}
        adversarial = replace(toy_config, operators="adversarial", **budgets)
        agent = [sys.executable, str(BRIDGE_AGENT), "adversarial"]
        bridged = replace(own, operators="bridge", operator_command=agent, **budgets)
        toy = self.outcome(toy_config, adversarial, proofs=2)
        bridge = self.outcome(own, bridged, proofs=2)
        assert bridge == toy
        assert toy[0][6:] == [(2, "unsolved"), (4, "unsolved")]
        events = read_events(tmp_path / "bridge_runs" / "metrics_proof.jsonl")
        kinds = [e["data"]["kind"] for e in events if e["event"] == "oracle_result"]
        assert kinds.count("replan") == 2 and kinds.count("propose_proof_patch") == 8


class TestResolveCursor:
    """``--resume`` starts one past the last durable ``item_end`` line of the
    stream, and at the first item when the stream has none."""

    @staticmethod
    def segment(runs: Path, *item_indices: int, resume: bool = True) -> None:
        with MetricsWriter(runs / "metrics_statement.jsonl", f"seg{len(item_indices)}") as m:
            m.run_start({"pipeline": "statement", "config": {"resume": resume}})
            for index in item_indices:
                m.emit("item_start", {"index": index})
                m.emit("lean_check", {"ok": True})
                m.emit("item_end", {"index": index, "status": "compiled"})

    @staticmethod
    def cursor(runs: Path, resume: bool = True):
        return resolve_cursor(RunConfig(runs_dir=str(runs), resume=resume), "statement")

    def test_resumes_after_the_last_item_end(self, tmp_path):
        self.segment(tmp_path, 1, 2, 3, 4)
        assert self.cursor(tmp_path) == 5

    def test_a_torn_last_line_is_ignored(self, tmp_path):
        self.segment(tmp_path, 1, 2, 3)
        torn = {"ts": "t", "run_id": "r", "event": "item_end", "data": {"index": 4}}
        with (tmp_path / "metrics_statement.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(torn))  # a whole object, but no newline: not durable
        assert read_events(tmp_path / "metrics_statement.jsonl")[-1]["data"]["index"] == 3
        assert self.cursor(tmp_path) == 4

    def test_a_torn_line_then_a_segment_that_ended_no_item(self, tmp_path):
        self.segment(tmp_path, 1, 2, 3)
        with (tmp_path / "metrics_statement.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"ts": "t", "run_id": "r", "event": "item_e')  # killed mid-line
        self.segment(tmp_path)
        assert self.cursor(tmp_path) == 4
        assert [e["event"] for e in read_events(tmp_path / "metrics_statement.jsonl")][-2:] == [
            "item_end",
            "run_start",
        ]

    def test_a_stream_with_no_item_end_starts_at_the_first_item(self, tmp_path):
        assert self.cursor(tmp_path) is None  # no stream
        self.segment(tmp_path)
        self.segment(tmp_path)
        assert self.cursor(tmp_path) is None  # resumed segments that ended no item

    def test_a_lost_stream_resumes_each_stage_at_its_first_item(self, toy_config):
        (first1, _), (first2, _) = run_both(toy_config)
        project = tree_hash(Path(toy_config.project))
        for pipeline in ("statement", "proof"):
            (Path(toy_config.runs_dir) / f"metrics_{pipeline}.jsonl").unlink()
        toy_config.resume = True
        assert resolve_cursor(toy_config, "statement") is None
        assert resolve_cursor(toy_config, "proof") is None
        (r1, s1), (r2, s2) = run_both(toy_config)
        assert [r.index for r in r1] == [r.index for r in first1]
        assert [r.index for r in r2] == [r.index for r in first2]
        assert tree_hash(Path(toy_config.project)) == project
        assert s1["scc"] == 100.0 and s2["psr"] == 100.0
        assert s2["already_closed"] == 16 and s2["solved"] == 0

    def test_a_last_segment_with_no_item_end_resumes_after_the_one_before(self, tmp_path):
        # a segment ended items 1-5; the next one was killed before it
        # ended any item
        self.segment(tmp_path, 1, 2, 3, 4, 5)
        self.segment(tmp_path)
        assert self.cursor(tmp_path) == 6

    def test_the_scan_stops_at_a_segment_run_without_resume(self, tmp_path):
        self.segment(tmp_path, 1, 2, 3, resume=False)
        self.segment(tmp_path, resume=False)  # a fresh run that ended no item
        assert self.cursor(tmp_path) is None
        self.segment(tmp_path)  # and a resumed one after it, which ended none either
        assert self.cursor(tmp_path) is None
        self.segment(tmp_path, 1, 2)
        assert self.cursor(tmp_path) == 3

    def test_without_resume_the_stream_is_ignored(self, tmp_path):
        self.segment(tmp_path, 1, 2, 3)
        assert self.cursor(tmp_path, resume=False) is None

    def test_a_fresh_run_after_a_completed_one_resumes_after_its_own_items(self, toy_config):
        toy_config.stage = 1
        run_statement_stage(toy_config)
        # a fresh run that ended 10 items, after one that ended all 24
        toy_config.max_items = 10
        results, _ = run_statement_stage(toy_config)
        assert [r.index for r in results] == list(range(1, 11))
        toy_config.resume, toy_config.max_items = True, None
        assert resolve_cursor(toy_config, "statement") == 11
        results, _ = run_statement_stage(toy_config)
        assert [r.index for r in results] == list(range(11, 25))

    def test_a_fresh_run_that_ended_no_item_resumes_at_the_first_item(
        self, toy_config, monkeypatch
    ):
        toy_config.stage = 1
        run_statement_stage(toy_config)

        def killed(*args):
            raise RuntimeError("killed before the first item ended")

        monkeypatch.setattr(stage1, "run_item", killed)
        with pytest.raises(RuntimeError):
            run_statement_stage(toy_config)  # a fresh run
        monkeypatch.undo()
        toy_config.resume = True
        assert resolve_cursor(toy_config, "statement") is None
        results, _ = run_statement_stage(toy_config)
        assert [r.index for r in results] == list(range(1, 25))


def scan_to_the_last_item_end(path: Path) -> int | None:
    """The cursor as a scan to the last ``item_end`` line finds it, with no
    stop at a ``run_end`` line: the reference for ``resolve_cursor``."""
    for event in read_events_backwards(path):
        if event["event"] == "item_end":
            return event["data"]["index"] + 1
        if event["event"] == "run_start" and not event["data"]["config"]["resume"]:
            break
    return None


LINE_KINDS = ("run_start", "item_start", "lean_check", "item_end")


def write_segment(path: Path, indices: list[int], rng, crash_at: str | None) -> None:
    """One segment as a run writes it, over the dataset ``indices``: resumed
    at the reference cursor, or fresh; it runs up to 4 items, and with
    ``crash_at`` it stops after a random line of that kind, so no
    ``run_end`` line follows."""
    resume = rng.random() < 0.8
    start = scan_to_the_last_item_end(path) if resume else None
    todo = [i for i in indices if start is None or i >= start][: rng.randint(0, 4)]
    lines = [("run_start", {"config": {"resume": resume}})]
    for index in todo:
        lines += [("item_start", {"index": index}), ("lean_check", {"ok": True})]
        lines.append(("item_end", {"index": index}))
    summary = {
        "processed_items": len(todo),
        "next_index": todo[-1] + 1 if todo else (start or 0),
    }
    lines.append(("run_end", summary))
    if crash_at is not None:
        stops = [k for k, (event, _) in enumerate(lines) if event == crash_at]
        if stops:
            lines = lines[: rng.choice(stops) + 1]
    with MetricsWriter(path, "seg") as writer:
        for event, data in lines:
            if event == "run_start":
                writer.run_start(data)
            else:
                writer.emit(event, data)


class TestCursorAtRunEnd:
    """``resolve_cursor`` stops at the last ``run_end`` line, and finds the
    cursor the scan to the last ``item_end`` line finds."""

    def test_random_segment_sequences_with_crashes(self, tmp_path):
        rng = random.Random(20261022)
        for trial in range(150):
            path = tmp_path / f"t{trial}" / "metrics_statement.jsonl"
            indices = sorted(rng.sample(range(-3, 25), rng.randint(1, 12)))
            for _ in range(rng.randint(1, 8)):
                crash_at = rng.choice((None, None, *LINE_KINDS))
                write_segment(path, indices, rng, crash_at)
                config = RunConfig(runs_dir=str(path.parent), resume=True)
                assert resolve_cursor(config, "statement") == scan_to_the_last_item_end(path)

    def test_segments_that_ran_no_item_are_not_parsed_again(self, toy_config, monkeypatch):
        toy_config.stage, toy_config.resume = 1, True
        run_statement_stage(toy_config)
        for _ in range(30):
            assert run_statement_stage(toy_config)[0] == []
        parsed = []
        real = pipeline.read_events_backwards

        def counted(path):
            for event in real(path):
                parsed.append(event["event"])
                yield event

        monkeypatch.setattr(pipeline, "read_events_backwards", counted)
        assert resolve_cursor(toy_config, "statement") == 25
        assert parsed == ["run_end"]


class TestResumeEquivalence:
    def test_stepped_run_equals_uninterrupted(self, tmp_path, toy_records):
        from autoform.corpus import dump_dataset

        def build(name):
            work = tmp_path / name
            (work / "data").mkdir(parents=True)
            dump_dataset(toy_records, work / "data" / "toy.json")
            return RunConfig(
                dataset=str(work / "data" / "toy.json"),
                project=str(work / "project"),
                runs_dir=str(work / "runs"),
                operators="toy",
            )

        solid = build("solid")
        run_both(solid)

        stepped = build("stepped")
        for stage, total in ((1, 24), (2, 16)):
            stepped.stage = stage
            stepped.max_items = 1
            stepped.resume = False
            done = 0
            while done < total:
                stepped.resume = done > 0
                results, _ = (
                    run_statement_stage(stepped) if stage == 1 else run_proof_stage(stepped)
                )
                assert len(results) == 1  # the cursor moved exactly one item
                done += len(results)

        assert tree_hash(Path(solid.project)) == tree_hash(Path(stepped.project))

        def totals(cfg):
            runs = Path(cfg.runs_dir)
            events = read_events(runs / "metrics_statement.jsonl") + read_events(
                runs / "metrics_proof.jsonl"
            )
            report = accounting.build_report(events)
            return (
                report.verifier_calls,
                report.oracle_calls,
                sum(1 for e in events if e["event"] == "item_end"),
            )

        assert totals(solid) == totals(stepped)


# Digest of every artifact a toy run leaves (the metrics streams and the
# project tree), taken with ``_artifact_dump``.
# A refactor that claims to change no behaviour must leave it as it is.
PINNED_ARTIFACT_DIGEST = "965cf97b78f48bf647827fdf6508d979e396eee80034c6b8978e4bb9c2116ddf"

_VOLATILE_KEYS = frozenset({"ts", "run_id", "seconds", "total_seconds"})


def _scrub(value, tmp: str):
    """``value`` with timestamps, run ids and durations dropped and the
    temporary directory replaced by a fixed token."""
    if isinstance(value, dict):
        return {k: _scrub(v, tmp) for k, v in value.items() if k not in _VOLATILE_KEYS}
    if isinstance(value, list):
        return [_scrub(v, tmp) for v in value]
    if isinstance(value, str):
        return value.replace(tmp, "<tmp>")
    return value


def _artifact_dump(cfg: RunConfig, tmp: str) -> str:
    """Every metrics line with sorted keys (keys and values are pinned, key
    order is not), then every project file, in a fixed order."""
    runs, project = Path(cfg.runs_dir), Path(cfg.project)
    out = []
    for pipeline in ("statement", "proof"):
        for line in read_events(runs / f"metrics_{pipeline}.jsonl"):
            text = json.dumps(_scrub(line, tmp), ensure_ascii=False, sort_keys=True)
            out.append(f"== metrics_{pipeline}\n{text}")
    for f in sorted(p for p in project.rglob("*") if p.is_file()):
        out.append(f"== {f.relative_to(project).as_posix()}\n{f.read_text(encoding='utf-8')}")
    return "\n".join(out) + "\n"


def test_toy_run_artifacts_match_pinned_digest(toy_config, tmp_path):
    run_both(toy_config)
    dump = _artifact_dump(toy_config, str(tmp_path))
    digest = hashlib.sha256(dump.encode("utf-8")).hexdigest()
    assert digest == PINNED_ARTIFACT_DIGEST, f"artifact digest {digest}; normalised dump:\n{dump}"


def test_toy_run_records_every_accepted_proof_proposal(toy_config):
    # a toy proposal that is accepted closes its hole and ends the item, so
    # a solved item's one accepted proposal is its last
    run_both(toy_config)
    ends = [
        e["data"]
        for e in read_events(Path(toy_config.runs_dir) / "metrics_proof.jsonl")
        if e["event"] == "item_end"
    ]
    solved = [end for end in ends if end["status"] == "solved"]
    assert solved
    for end in solved:
        assert end["a_accepted"] == [end["a_attempts"]]


# Digest of the same dump for a run whose stage 2 uses the adversarial
# operators, which never close a hole. Its first segment ends every item on
# the attempt bound R * C and the resumed second segment on the verifier
# budget T, both after replans every R proposals: exits the toy run, which
# closes every hole on its first proposal, never takes.
PINNED_ADVERSARIAL_DIGEST = "796b1df16641c1c3a28ba77bf1086db3fed222dccf937b0b42a8551470f1faf0"


def test_adversarial_stage2_artifacts_match_pinned_digest(toy_config, tmp_path):
    toy_config.stage = 1
    run_statement_stage(toy_config)
    toy_config.stage, toy_config.operators = 2, "adversarial"
    toy_config.budget_r, toy_config.budget_c = 2, 3
    for resume, budget_t, max_items in ((False, 9, 8), (True, 4, None)):
        toy_config.resume, toy_config.budget_t, toy_config.max_items = resume, budget_t, max_items
        results, _ = run_proof_stage(toy_config)
        assert all(r.status == "unsolved" for r in results)
    ends = [
        e["data"]
        for e in read_events(Path(toy_config.runs_dir) / "metrics_proof.jsonl")
        if e["event"] == "item_end"
    ]
    assert ends and all(end["a_accepted"] == [] for end in ends)
    dump = _artifact_dump(toy_config, str(tmp_path))
    digest = hashlib.sha256(dump.encode("utf-8")).hexdigest()
    assert digest == PINNED_ADVERSARIAL_DIGEST, f"artifact digest {digest}; dump:\n{dump}"
