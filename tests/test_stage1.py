from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from autoform.corpus import DatasetRecord, SectionContext
from autoform.instrumentation import read_events
from autoform.kernel import Snapshot
from autoform.operators import OperatorResponse, OperatorSet
from autoform.pipeline import RunConfig
from autoform.scripted import adversarial_handlers, toy_handlers
from autoform.stage1 import (
    StubTemplateError,
    _repair_target,
    gen_stub,
    run_stage1,
    target_file,
)
from autoform.verifier import Project, SimulatedVerifier, Verifier, _write_file

from helpers import EventSink


def record(index=1, env="theorem", chapter=1, section="1", label=None, content=None, proof=""):
    return DatasetRecord(
        index=index,
        label=label or f"Theorem {chapter}.{section}.{index}",
        env=env,
        context=SectionContext(chapter_number=chapter, section_number=section),
        content=content or f"\\begin{{theorem}} \\lean{{item{index} : T{index}}} \\end{{theorem}}",
        proof=proof,
    )


class TestTargetFile:
    def test_chapter_and_section_mapping(self):
        assert target_file(record(chapter=1, section="1")) == "Chapters/Chap01/section01.lean"

    def test_empty_section_falls_back_to_chapter_level(self):
        assert target_file(record(chapter=4, section="")) == "Chapters/Chap04/section00.lean"

    def test_non_numeric_section_falls_back(self):
        assert target_file(record(chapter=2, section="A")) == "Chapters/Chap02/section00.lean"

    def test_dotted_section_uses_leading_number(self):
        assert target_file(record(chapter=3, section="2.1")) == "Chapters/Chap03/section02.lean"

    def test_equal_context_maps_to_same_file(self):
        a, b = record(index=1), record(index=2)
        assert target_file(a) == target_file(b)


class TestGenStub:
    def test_theorem_template(self):
        stub = gen_stub(record(env="theorem"), "n", "T")
        assert stub.endswith("theorem n : T := by sorry")

    def test_def_template_uses_term_placeholder(self):
        stub = gen_stub(record(env="def"), "n", "T")
        assert stub.endswith("def n : T := sorry")
        assert ":= by sorry" not in stub

    def test_instance_template(self):
        stub = gen_stub(record(env="instance"), "n", "T")
        assert stub.endswith("instance n : T := by sorry")

    def test_abbrev_and_lemma_templates(self):
        assert gen_stub(record(env="abbrev"), "n", "T").endswith("abbrev n : T := by sorry")
        assert gen_stub(record(env="lemma"), "n", "T").endswith("lemma n : T := by sorry")

    def test_example_template_is_anonymous(self):
        stub = gen_stub(record(env="example"), "ignored", "T")
        assert stub.endswith("example : T := by sorry")

    def test_docstring_carries_index_and_label_verbatim(self):
        rec = record(index=7, label="Lemma 1.1.7")
        stub = gen_stub(rec, "n", "T")
        assert stub.splitlines()[0] == "/-- [7] Lemma 1.1.7 -/"

    def test_proposition_maps_to_lemma_template(self):
        stub = gen_stub(record(env="proposition"), "n", "T")
        assert "lemma n : T := by sorry" in stub

    def test_unknown_env_raises(self):
        with pytest.raises(StubTemplateError):
            gen_stub(record(env="axiomset"), "n", "T")


def item_ends(metrics) -> list[dict]:
    events = read_events(metrics.path)
    return [e["data"] for e in events if e["event"] == "item_end"]


def build_world(project, handlers, sink=None, k=3):
    sink = sink or EventSink()
    verifier = Verifier(SimulatedVerifier(), metrics=sink)
    operators = OperatorSet(handlers, EventSink())
    return verifier, operators, RunConfig(budget_k=k), sink


class TestRunStage1:
    def test_toy_corpus_compiles_fully(self, project, toy_records, metrics):
        verifier, operators, config, sink = build_world(project, toy_handlers())
        results = run_stage1(toy_records, project, config, operators, verifier, metrics)
        assert all(r.status == "compiled" for r in results)
        assert len(results) == len(toy_records)
        # early exit keeps total calls far below the cap
        assert verifier.calls <= len(toy_records) * (1 + config.budget_k)
        ok, _ = verifier.verify_project(project)
        assert ok  # PB with placeholders present
        assert any("sorry" in project.read(f) for f in project.files())

    def test_per_item_call_bounds(self, project, toy_records, metrics):
        verifier, operators, config, _ = build_world(project, toy_handlers())
        results = run_stage1(toy_records, project, config, operators, verifier, metrics)
        for r in results:
            assert 1 <= r.verifier_calls <= 1 + config.budget_k
            assert r.b_attempts <= config.budget_k

    def test_tricky_items_consume_repair_rounds(self, project, toy_records, metrics):
        verifier, operators, config, _ = build_world(project, toy_handlers())
        results = run_stage1(toy_records, project, config, operators, verifier, metrics)
        repaired = {r.index for r in results if r.b_attempts > 0}
        assert repaired == {2, 9, 20}
        for r in results:
            if r.index in repaired:
                assert r.verifier_calls == 2  # initial check + one accepted repair

    def test_oracle_call_accounting(self, project, toy_records, metrics):
        verifier, operators, config, _ = build_world(project, toy_handlers())
        results = run_stage1(toy_records, project, config, operators, verifier, metrics)
        # one synthesis call per item plus one repair call per attempt
        assert operators.invocations == len(results) + sum(r.b_attempts for r in results)

    def test_failed_item_restores_file_and_later_items_proceed(
        self, project, toy_records, metrics
    ):
        toy = toy_handlers()
        adversarial = adversarial_handlers()

        def selective_gen(request):
            if request.payload["record"]["index"] == 3:
                return adversarial["gen_skeleton"](request)
            return toy["gen_skeleton"](request)

        def selective_repair(request):
            text = request.payload["file_text"]
            if "broken3" in text:
                return adversarial["repair_patch"](request)
            return toy["repair_patch"](request)

        handlers = dict(toy, gen_skeleton=selective_gen, repair_patch=selective_repair)
        verifier, operators, config, _ = build_world(project, handlers)

        records = [r for r in toy_records if r.index <= 6]
        results = run_stage1(records, project, config, operators, verifier, metrics)

        by_index = {r.index: r for r in results}
        assert by_index[3].status == "restored_failed"
        assert by_index[3].verifier_calls <= 1 + config.budget_k
        # the failed item's bytes were rolled back before item 4 started, so
        # items 4..6 still compiled on top of the restored file
        assert all(by_index[i].status == "compiled" for i in (1, 2, 4, 5, 6))
        assert "broken3" not in project.read(target_file(records[2]))
        ok, _ = verifier.verify_project(project)
        assert ok

    def test_restored_item_leaves_no_trace_in_bytes(self, project, toy_records, metrics):
        records = [r for r in toy_records if r.index <= 2]
        verifier, operators, config, _ = build_world(project, toy_handlers())
        run_stage1(records, project, config, operators, verifier, metrics)
        file_id = target_file(records[0])
        before = Snapshot.capture(project, file_id)

        failing = [r for r in toy_records if r.index == 3]
        verifier2, operators2, config2, _ = build_world(project, adversarial_handlers())
        results = run_stage1(failing, project, config2, operators2, verifier2, metrics)
        assert results[0].status == "restored_failed"
        assert before.matches(project)

    def test_item_that_raises_leaves_the_file_as_it_found_it(
        self, project, toy_records, metrics
    ):
        records = [r for r in toy_records if r.index <= 2]
        verifier, operators, config, _ = build_world(project, toy_handlers())
        run_stage1(records, project, config, operators, verifier, metrics)
        file_id = target_file(records[0])
        before = project.path(file_id).read_bytes()

        class Crash(RuntimeError):
            pass

        class CrashingAdapter:
            def verify_file(self, project, file_id):
                raise Crash("verifier died")

        crashing = Verifier(CrashingAdapter(), EventSink())
        item = [r for r in toy_records if r.index == 3]
        assert target_file(item[0]) == file_id
        with pytest.raises(Crash):
            run_stage1(item, project, config, operators, crashing, metrics)
        assert project.path(file_id).read_bytes() == before
        assert project.read(file_id) == before.decode()
        # no item_end line, so no names are recorded for the crashed item
        ends = item_ends(metrics)
        assert [e["index"] for e in ends] == [1, 2]

    def test_names_for_compiled_items_only(self, project, toy_records, metrics):
        records = [r for r in toy_records if r.index <= 2]
        verifier, operators, config, _ = build_world(project, toy_handlers())
        results = run_stage1(records, project, config, operators, verifier, metrics)
        assert [r.names for r in results] == [("c1s1Alpha",), ("c1s1AlphaSpec",)]

        failing = [r for r in toy_records if r.index == 3]
        verifier2, operators2, config2, _ = build_world(project, adversarial_handlers())
        failed = run_stage1(failing, project, config2, operators2, verifier2, metrics)
        assert failed[0].status == "restored_failed" and failed[0].names == ()
        ends = item_ends(metrics)
        assert [(e["index"], e["names"]) for e in ends] == [
            (1, ["c1s1Alpha"]),
            (2, ["c1s1AlphaSpec"]),
            (3, []),
        ]

    def test_unparseable_skeleton_consumes_rounds_not_the_run(
        self, project, toy_records, metrics
    ):
        def garbage_gen(request):
            return OperatorResponse(ok=True, text="%% not a declaration %%")

        handlers = dict(toy_handlers(), gen_skeleton=garbage_gen)
        verifier, operators, config, _ = build_world(project, handlers)
        results = run_stage1(
            toy_records[:2], project, config, operators, verifier, metrics
        )
        assert all(r.status == "restored_failed" for r in results)
        assert all(r.verifier_calls <= 1 + config.budget_k for r in results)

    def test_scope_expansion_reaches_preexisting_breakage(
        self, project, toy_records, metrics
    ):
        # the target file already contains a broken declaration; the new item's
        # scope localizes nothing, so the loop expands to the nearest error and
        # the repair operator fixes the old declaration
        file_id = target_file(toy_records[0])
        project.write(file_id, "def older : Z9 := ghostName\n")
        verifier, operators, config, _ = build_world(project, toy_handlers())
        results = run_stage1(
            toy_records[:1], project, config, operators, verifier, metrics
        )
        assert results[0].status == "compiled"
        assert results[0].b_attempts == 1
        text = project.read(file_id)
        assert "def older : Z9 := sorry" in text  # rebuilt as a clean stub
        assert "ghostName" not in text
        ok, _ = verifier.verify_project(project)
        assert ok

    def test_item_events(self, project, toy_records, metrics):
        verifier = Verifier(SimulatedVerifier(), metrics=metrics)
        operators = OperatorSet(toy_handlers(), metrics)
        run_stage1(toy_records[:3], project, RunConfig(), operators, verifier, metrics)

        events = read_events(metrics.path)
        starts = [e for e in events if e["event"] == "item_start"]
        ends = [e for e in events if e["event"] == "item_end"]
        assert len(starts) == len(ends) == 3
        assert ends[0]["data"]["status"] == "compiled"
        assert {"index", "label", "chapter", "section"} <= set(starts[0]["data"])

    def test_start_index_skips_processed_items(self, project, toy_records, metrics):
        verifier, operators, config, _ = build_world(project, toy_handlers())
        first = run_stage1(
            toy_records, project, replace(config, max_items=2), operators, verifier, metrics
        )
        assert [r.index for r in first] == [1, 2]
        rest = run_stage1(
            toy_records, project, config, operators, verifier, metrics, start_index=3
        )
        assert [r.index for r in rest] == list(range(3, 25))
        ok, _ = verifier.verify_project(project)
        assert ok

    def test_the_driver_refuses_a_config_a_run_rejects(self, project, toy_records, metrics):
        verifier, operators, _, _ = build_world(project, toy_handlers())
        config = RunConfig(budget_k=-1)
        with pytest.raises(ValueError, match="per-item repair budget must be non-negative"):
            run_stage1(toy_records, project, config, operators, verifier, metrics)
        assert operators.invocations == 0 and project.files() == []


def test_the_repair_target_is_the_declaration_of_the_first_error(tmp_path):
    # a placeholder warning above the error does not name the target, so the
    # repair operator, which reads only the target's lines, finds the error
    project = Project(tmp_path)
    project.write("A.lean", "def a : T := sorry\ntheorem b : T := ghost\n")
    _, diags = SimulatedVerifier().verify_file(project, "A.lean")
    assert [d.severity for d in diags] == ["warning", "error"]
    target = _repair_target(project.analysis("A.lean"), diags)
    assert target == project.analysis("A.lean").declarations[1].range


class TestItemCommit:
    """The project is each item's working copy: a compiled item writes each
    file it changed once, and a failed or crashing item writes nothing."""

    def record_writes(self, monkeypatch):
        writes = []

        def recording(path, data):
            writes.append(path.name)
            return _write_file(path, data)

        monkeypatch.setattr("autoform.verifier._write_file", recording)
        return writes

    def test_each_compiled_item_writes_once_and_a_failed_one_never(
        self, project, toy_records, monkeypatch, metrics
    ):
        toy, adversarial = toy_handlers(), adversarial_handlers()

        def selective_gen(request):
            index = request.payload["record"]["index"]
            return (adversarial if index == 3 else toy)["gen_skeleton"](request)

        def selective_repair(request):
            failing = "broken3" in request.payload["file_text"]
            return (adversarial if failing else toy)["repair_patch"](request)

        handlers = dict(toy, gen_skeleton=selective_gen, repair_patch=selective_repair)
        verifier, operators, config, _ = build_world(project, handlers)
        writes = self.record_writes(monkeypatch)
        results = run_stage1(toy_records, project, config, operators, verifier, metrics)
        by_index = {r.index: r for r in results}
        assert by_index[3].status == "restored_failed" and by_index[3].b_attempts > 0
        assert by_index[2].b_attempts == 1  # an accepted repair adds no write
        compiled = [r for r in results if r.status == "compiled"]
        assert len(writes) == len(compiled) == len(results) - 1
        assert sorted(writes) == sorted(Path(r.file).name for r in compiled)

    def test_an_item_that_raises_writes_nothing(
        self, project, toy_records, monkeypatch, metrics
    ):
        class Crash(BaseException):
            pass

        def crashing_repair(request):
            raise Crash("operator killed")

        handlers = dict(toy_handlers(), repair_patch=crashing_repair)
        verifier, operators, config, _ = build_world(project, handlers)
        writes = self.record_writes(monkeypatch)
        with pytest.raises(Crash):
            run_stage1(toy_records[:2], project, config, operators, verifier, metrics)
        assert writes == ["section01.lean"]  # item 1 only; tricky item 2 crashed
        assert "[2]" not in project.read("Chapters/Chap01/section01.lean")


class TestReentry:
    def test_a_committed_declaration_is_checked_not_inserted_again(
        self, project, toy_records, metrics
    ):
        verifier, operators, config, _ = build_world(project, toy_handlers())
        run_stage1(toy_records[:2], project, config, operators, verifier, metrics)
        file_id = target_file(toy_records[1])
        before = project.path(file_id).read_bytes()

        # a crash came after item 2's commit but before its item_end line,
        # so a resumed run starts at item 2 again
        resumed = Project(project.root)
        verifier, operators, config, sink = build_world(resumed, toy_handlers())
        results = run_stage1(
            toy_records[:2], resumed, config, operators, verifier, metrics, start_index=2
        )
        assert [(r.index, r.status, r.verifier_calls) for r in results] == [(2, "compiled", 1)]
        assert operators.invocations == 0  # no skeleton was asked for
        assert sink.count("lean_check") == 1
        assert resumed.path(file_id).read_bytes() == before
        assert results[0].names == ("c1s1AlphaSpec",)
