from __future__ import annotations

import pytest

from autoform import simlang
from autoform.diagnostics import Diagnostic, DiagnosticSet, SourceRange
from autoform.instrumentation import read_events
from autoform.operators import OperatorSet
from autoform.scripted import adversarial_handlers, toy_handlers
from autoform.stage1 import Stage1Config, run_stage1, target_file
from autoform.stage2 import (
    AmbiguousTargetError,
    ProofTask,
    Stage2Config,
    build_proof_tasks,
    locate_target_hole,
    run_stage2,
    run_stage2_item,
    select_error,
    split_if_large_and_resolve,
)
from autoform.verifier import SimulatedVerifier, Verifier

from helpers import EventSink
from oracles import oracle_signatures


def make_verifier(sink=None):
    return Verifier(SimulatedVerifier(), metrics=sink)


def compiled_project(project, records):
    verifier = make_verifier()
    operators = OperatorSet(toy_handlers(), None)
    _, results = run_stage1(records, project, Stage1Config(), operators, verifier)
    assert all(r.compiled for r in results)
    return project


LABELED_FILE = """\
/-- [1] Definition 0.1 -/
def w : P := sorry

/-- [2] Lemma 0.2 -/
lemma goal : P := by sorry
"""


class TestLocateTargetHole:
    def test_unique_labeled_declaration(self, project):
        project.write("A.lean", LABELED_FILE)
        task = ProofTask(index=2, label="Lemma 0.2")
        hole = locate_target_hole(project, "A.lean", task)
        assert hole is not None
        assert hole.declaration == "goal"
        text_at = simlang.find_hole_ranges(project.read("A.lean"))
        assert hole.range in text_at

    def test_already_closed_target_is_absent(self, project):
        project.write("A.lean", LABELED_FILE.replace("lemma goal : P := by sorry",
                                                     "lemma goal : P := w"))
        task = ProofTask(index=2, label="Lemma 0.2")
        assert locate_target_hole(project, "A.lean", task) is None

    def test_positional_fallback_with_stripped_docstrings(self, project):
        project.write("A.lean", "def w : P := w0\nlemma goal : P := by sorry\n")
        task = ProofTask(index=2, label="Lemma 0.2")
        hole = locate_target_hole(project, "A.lean", task)
        assert hole is not None and hole.declaration == "goal"

    def test_ambiguous_label_reported(self, project):
        dup = LABELED_FILE + "\n/-- [3] Lemma 0.2 -/\nlemma goal2 : P := by sorry\n"
        project.write("A.lean", dup)
        with pytest.raises(AmbiguousTargetError):
            locate_target_hole(project, "A.lean", ProofTask(index=2, label="Lemma 0.2"))

    def test_ambiguous_positional_reported(self, project):
        project.write("A.lean", "lemma a : P := by sorry\nlemma b : Q := by sorry\n")
        with pytest.raises(AmbiguousTargetError):
            locate_target_hole(project, "A.lean", ProofTask(index=9, label="Lemma 9"))


class TestSelectError:
    def e(self, line, col, msg):
        return Diagnostic(SourceRange(line, col, line, col + 1), "error", msg)

    def test_single_error(self):
        d = self.e(3, 0, "only")
        assert select_error(DiagnosticSet.of([d])) == d

    def test_smallest_start_position_wins(self):
        early, late = self.e(12, 0, "early"), self.e(40, 0, "late")
        assert select_error(DiagnosticSet.of([late, early])) == early

    def test_message_breaks_position_ties(self):
        a, b = self.e(5, 2, "a"), self.e(5, 2, "b")
        assert select_error(DiagnosticSet.of([b, a])) == a

    def test_warnings_are_ignored(self):
        w = Diagnostic(SourceRange(0, 0, 0, 1), "warning", "w")
        err = self.e(9, 0, "boom")
        assert select_error(DiagnosticSet.of([w, err])) == err

    def test_requires_an_error(self):
        with pytest.raises(ValueError):
            select_error(DiagnosticSet())


def big_section(n_decls: int) -> str:
    """Chain of declarations where each references its predecessor, so an
    unsound split would break name resolution immediately."""
    lines = ["import Prelude"]
    for i in range(n_decls):
        lines.append("")
        lines.append(f"/-- [{i + 1}] Lemma 9.{i + 1} -/")
        if i == 0:
            lines.append("def d0 : T0 := sorry")
        elif i == n_decls - 1:
            lines.append("lemma last : T0 := by sorry")
        else:
            lines.append(f"def d{i} : T0 := d{i - 1}")
    return "\n".join(lines) + "\n"


class TestSplit:
    def setup_project(self, project, n_decls=40):
        project.write("Prelude.lean", "def ground : G := sorry\n")
        file_id = "Chapters/Chap09/section01.lean"
        project.write(file_id, big_section(n_decls))
        verifier = make_verifier()
        ok, diags = verifier.adapter.verify_file(project, file_id)
        assert ok, diags
        return file_id

    def test_below_threshold_unchanged(self, project):
        file_id = self.setup_project(project)
        before = project.read(file_id)
        out = split_if_large_and_resolve(project, file_id, None, threshold=10_000)
        assert out == file_id
        assert project.read(file_id) == before

    def test_split_preserves_declarations_and_verifies(self, project):
        file_id = self.setup_project(project, n_decls=40)
        original = project.read(file_id)
        original_decls = [
            (d.kind, d.name, d.type_text) for d in simlang.parse_file(original).declarations
        ]
        task = ProofTask(index=40, label="Lemma 9.40")
        resolved = split_if_large_and_resolve(project, file_id, task, threshold=40)
        parts = sorted(f for f in project.files() if "_part" in f)
        assert len(parts) >= 3
        assert resolved in parts
        assert "Lemma 9.40" in project.read(resolved)

        # aggregate imports every part
        aggregate = project.read(file_id)
        for part in parts:
            assert simlang.module_name(part) in aggregate

        # declaration multiset across parts equals the original
        recombined = []
        for part in parts:
            recombined.extend(
                (d.kind, d.name, d.type_text)
                for d in simlang.parse_file(project.read(part)).declarations
            )
        assert recombined == original_decls

        verifier = make_verifier()
        for part in parts + [file_id]:
            ok, diags = verifier.adapter.verify_file(project, part)
            assert ok, (part, diags)

    def test_wide_split_keeps_module_interface(self, project):
        file_id = self.setup_project(project, n_decls=69)
        project.write("Consumer.lean", "import Chapters.Chap09.section01\ntheorem c : T0 := d5\n")
        resolved = split_if_large_and_resolve(
            project, file_id, ProofTask(index=69, label="Lemma 9.69"), threshold=9
        )
        parts = [f for f in project.files() if "_part" in f]
        assert len(parts) >= 23
        verifier = make_verifier()
        ok, diags = verifier.adapter.verify_file(project, "Consumer.lean")
        assert ok, diags  # importing the aggregate still resolves every name

    def test_unattributable_content_aborts_split(self, project):
        file_id = "Chapters/Chap09/section02.lean"
        lines = ["stray ::: junk"] + ["def x%d : T := sorry" % i for i in range(30)]
        project.write(file_id, "\n".join(lines) + "\n")
        out = split_if_large_and_resolve(project, file_id, None, threshold=5)
        assert out == file_id
        assert not [f for f in project.files() if "section02_part" in f]


class TestMissingSectionFile:
    def test_items_of_a_missing_section_are_skipped(self, project, toy_records, instrumentation):
        # stage 1 restored away every item of one section, so its file is absent
        compiled_project(project, toy_records)
        missing = target_file(build_proof_tasks(toy_records)[0][0])
        project.delete(missing)
        sink = EventSink()
        results = run_stage2(
            toy_records,
            project,
            Stage2Config(),
            OperatorSet(toy_handlers(), None),
            make_verifier(sink),
            instrumentation,
        )
        gone = [r for r in results if r.file == missing]
        assert gone and all(r.status == "skipped" and r.verifier_calls == 0 for r in gone)
        assert all(r.closed for r in results if r.file != missing)
        assert sink.count("lean_check") == sum(r.verifier_calls for r in results)
        warnings = [
            e["data"] for e in read_events(instrumentation.metrics.path) if e["event"] == "warning"
        ]
        assert [w["lean_file"] for w in warnings] == [missing] * len(gone)
        assert all(missing in w["reason"] for w in warnings)
        assert not project.exists(missing)


class ToyWorld:
    def __init__(self, project, records, handlers=None, sink=None, config=None):
        self.project = compiled_project(project, records)
        self.records = records
        self.sink = sink or EventSink()
        self.verifier = make_verifier(self.sink)
        self.operators = OperatorSet(handlers or toy_handlers(), None)
        self.config = config or Stage2Config()

    def tasks(self):
        return build_proof_tasks(self.records)

    def run_item(self, record, task):
        return run_stage2_item(
            self.project,
            target_file(record),
            task,
            self.config,
            self.operators,
            self.verifier,
        )


class TestRunStage2Item:
    def test_first_attempt_close(self, project, toy_records):
        world = ToyWorld(project, toy_records)
        record, task = world.tasks()[0]
        file_id = target_file(record)
        holes_before = simlang.count_holes(project.read(file_id))
        result = world.run_item(record, task)
        assert result.status == "solved"
        assert result.proof_attempts == 1
        # one kernel call for the accepted attempt, after the item's initial check
        assert result.verifier_calls == 2
        assert simlang.count_holes(project.read(file_id)) == holes_before - 1

    def test_already_proved_target(self, project, toy_records):
        world = ToyWorld(project, toy_records)
        record, task = world.tasks()[0]
        world.run_item(record, task)
        again = world.run_item(record, task)
        assert again.status == "already_closed"
        assert again.proof_attempts == 0
        assert again.verifier_calls == 1

    def test_adversarial_budget_exhaustion(self, project, toy_records):
        config = Stage2Config(t=50, r=3, c=4)
        world = ToyWorld(
            project, toy_records, handlers=adversarial_handlers(), config=config
        )
        record, task = world.tasks()[0]
        file_id = target_file(record)
        holes_before = simlang.count_holes(project.read(file_id))
        result = world.run_item(record, task)
        assert result.status == "unsolved"
        assert result.proof_attempts == config.r * config.c
        assert result.verifier_calls <= config.t
        ok, _ = world.verifier.adapter.verify_file(project, file_id)
        assert ok  # file still verifies
        assert simlang.count_holes(project.read(file_id)) == holes_before

    def test_tight_verifier_budget_stops_early(self, project, toy_records):
        config = Stage2Config(t=5, r=10, c=21)
        world = ToyWorld(project, toy_records, handlers=adversarial_handlers(), config=config)
        record, task = world.tasks()[0]
        result = world.run_item(record, task)
        assert result.verifier_calls <= config.t

    def test_broken_file_with_failing_fixer_terminates(self, project, toy_records):
        def hopeless(request):
            raise RuntimeError("fixer is down")

        config = Stage2Config(t=6, r=2, c=2)
        world = ToyWorld(
            project,
            toy_records,
            handlers=dict(toy_handlers(), fix_compile_error=hopeless),
            config=config,
        )
        record, task = world.tasks()[0]
        file_id = target_file(record)
        project.write(file_id, project.read(file_id) + "def zz : Q := ghost\n")
        result = world.run_item(record, task)
        assert result.status == "unsolved"
        assert result.fix_attempts == config.t  # starved fixer is bounded too
        assert result.verifier_calls <= config.t

    def test_error_fix_interlude_then_close(self, project, toy_records):
        # the file acquired a compile error since stage 1: the item first
        # commits an error fix, then locates the hole and closes it
        world = ToyWorld(project, toy_records)
        record, task = world.tasks()[0]
        file_id = target_file(record)
        project.write(file_id, project.read(file_id) + "\ndef zz : Q9 := ghost\n")
        result = world.run_item(record, task)
        assert result.status == "solved"
        assert result.fix_attempts == 1
        assert result.proof_attempts == 1
        assert result.verifier_calls == 3  # initial + fix + proof patch
        ok, _ = world.verifier.adapter.verify_file(project, file_id)
        assert ok

    def test_goal_query_disabled_pipeline_completes(self, project, toy_records):
        config = Stage2Config(goal_query_enabled=False)
        world = ToyWorld(project, toy_records, config=config)
        record, task = world.tasks()[0]
        assert world.run_item(record, task).status == "solved"

    def test_elaboration_preserved_after_every_item(self, project, toy_records):
        world = ToyWorld(project, toy_records, handlers=adversarial_handlers(),
                         config=Stage2Config(t=8, r=2, c=2))
        for record, task in world.tasks():
            world.run_item(record, task)
            ok, diags = world.verifier.adapter.verify_file(project, target_file(record))
            assert ok, diags

    def test_hole_count_never_increases_across_items(self, project, toy_records):
        world = ToyWorld(project, toy_records)
        for record, task in world.tasks():
            file_id = target_file(record)
            before = simlang.count_holes(project.read(file_id))
            world.run_item(record, task)
            assert simlang.count_holes(project.read(file_id)) <= before


class TestMatchedStatementGuard:
    def test_signatures_byte_identical_across_items(self, project, toy_records):
        world = ToyWorld(project, toy_records)
        for record, task in world.tasks():
            file_id = target_file(record)
            before = oracle_signatures(project.read(file_id))
            result = world.run_item(record, task)
            after = oracle_signatures(project.read(file_id))
            assert before == after, (record.index, result.status)


class TestRunStage2Driver:
    def test_full_toy_run_closes_every_target(self, project, toy_records, toy_lemma_map):
        world = ToyWorld(project, toy_records)
        results = run_stage2(
            toy_records,
            world.project,
            world.config,
            world.operators,
            world.verifier,
            lemma_map=toy_lemma_map,
        )
        assert len(results) == 16
        assert all(r.status == "solved" for r in results)
        ok, _ = world.verifier.verify_project(project)
        assert ok

    def test_proof_targets_filtered_by_env_and_proof(self, toy_records):
        tasks = build_proof_tasks(toy_records)
        assert len(tasks) == 16
        assert all(rec.proof for rec, _ in tasks)
        assert all(rec.env in {"theorem", "lemma", "proposition", "corollary"} for rec, _ in tasks)

    def test_lemma_hints_attached(self, toy_records, toy_lemma_map):
        tasks = dict(
            (task.index, task) for _, task in build_proof_tasks(toy_records, toy_lemma_map)
        )
        assert tasks[2].lemma_hints is not None
        assert tasks[2].lemma_hints.decl_hints == ("c1s1Alpha",)
        assert tasks[4].lemma_hints is None


class TestRequestConditioning:
    """Operators see only the conditioning each kind is allowed."""

    def test_plan_requests_carry_task_and_goal_but_no_file_text(
        self, project, toy_records, toy_lemma_map
    ):
        captured = {"plan": [], "propose_proof_patch": []}
        base = toy_handlers()

        def spy(kind):
            def handler(request):
                captured[kind].append(request.payload)
                return base[kind](request)

            return handler

        handlers = dict(base, plan=spy("plan"),
                        propose_proof_patch=spy("propose_proof_patch"))
        world = ToyWorld(project, toy_records, handlers=handlers)
        results = run_stage2(
            toy_records,
            world.project,
            world.config,
            world.operators,
            world.verifier,
            lemma_map=toy_lemma_map,
        )
        assert all(r.closed for r in results)
        assert captured["plan"]
        for payload in captured["plan"]:
            assert "file_text" not in payload and "file" not in payload
            assert "task" in payload and "goal_state" in payload
        # the lemma-map entry for item 2 surfaces as navigation cues
        hinted = [p for p in captured["plan"] if p["task"]["index"] == 2]
        assert hinted and hinted[0]["task"]["navigation_cues"]["decl_hints"] == ["c1s1Alpha"]
        for payload in captured["propose_proof_patch"]:
            assert {"file", "file_text", "hole", "plan", "task"} <= set(payload)

    def test_goal_state_reaches_plan_requests_when_available(self, project, toy_records):
        seen_goals = []
        base = toy_handlers()

        def plan_spy(request):
            seen_goals.append(request.payload["goal_state"])
            return base["plan"](request)

        world = ToyWorld(project, toy_records, handlers=dict(base, plan=plan_spy))
        record, task = world.tasks()[0]
        world.run_item(record, task)
        assert seen_goals and seen_goals[0] is not None
        assert seen_goals[0]["goal"] == "T11A"
