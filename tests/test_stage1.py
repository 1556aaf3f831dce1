from __future__ import annotations

import pytest

from autoform.corpus import DatasetRecord, SectionContext
from autoform.kernel import Snapshot
from autoform.operators import OperatorResponse, OperatorSet
from autoform.scripted import adversarial_handlers, toy_handlers
from autoform.stage1 import (
    ProvenanceMap,
    Stage1Config,
    StubTemplateError,
    gen_stub,
    run_stage1,
    target_file,
)
from autoform.verifier import SimulatedVerifier, Verifier

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


def build_world(project, handlers, sink=None, k=3):
    sink = sink or EventSink()
    verifier = Verifier(SimulatedVerifier(), metrics=sink)
    operators = OperatorSet(handlers, None)
    return verifier, operators, Stage1Config(k=k), sink


class TestRunStage1:
    def test_toy_corpus_compiles_fully(self, project, toy_records):
        verifier, operators, config, sink = build_world(project, toy_handlers())
        provenance, results = run_stage1(toy_records, project, config, operators, verifier)
        assert all(r.compiled for r in results)
        assert len(results) == len(toy_records)
        # early exit keeps total calls far below the cap
        assert verifier.calls <= len(toy_records) * (1 + config.k)
        ok, _ = verifier.verify_project(project)
        assert ok  # PB with placeholders present
        assert any("sorry" in project.read(f) for f in project.files())

    def test_per_item_call_bounds(self, project, toy_records):
        verifier, operators, config, _ = build_world(project, toy_handlers())
        _, results = run_stage1(toy_records, project, config, operators, verifier)
        for r in results:
            assert 1 <= r.verifier_calls <= 1 + config.k
            assert r.b_attempts <= config.k

    def test_tricky_items_consume_repair_rounds(self, project, toy_records):
        verifier, operators, config, _ = build_world(project, toy_handlers())
        _, results = run_stage1(toy_records, project, config, operators, verifier)
        repaired = {r.index for r in results if r.b_attempts > 0}
        assert repaired == {2, 9, 20}
        for r in results:
            if r.index in repaired:
                assert r.verifier_calls == 2  # initial check + one accepted repair

    def test_oracle_call_accounting(self, project, toy_records):
        verifier, operators, config, _ = build_world(project, toy_handlers())
        _, results = run_stage1(toy_records, project, config, operators, verifier)
        # one synthesis call per item plus one repair call per attempt
        assert operators.invocations == len(results) + sum(r.b_attempts for r in results)

    def test_failed_item_restores_file_and_later_items_proceed(self, project, toy_records):
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
        _, results = run_stage1(records, project, config, operators, verifier)

        by_index = {r.index: r for r in results}
        assert by_index[3].status == "restored_failed"
        assert by_index[3].verifier_calls <= 1 + config.k
        # the failed item's bytes were rolled back before item 4 started, so
        # items 4..6 still compiled on top of the restored file
        assert all(by_index[i].status == "compiled" for i in (1, 2, 4, 5, 6))
        assert "broken3" not in project.read(target_file(records[2]))
        ok, _ = verifier.verify_project(project)
        assert ok

    def test_restored_item_leaves_no_trace_in_bytes(self, project, toy_records):
        records = [r for r in toy_records if r.index <= 2]
        verifier, operators, config, _ = build_world(project, toy_handlers())
        run_stage1(records, project, config, operators, verifier)
        file_id = target_file(records[0])
        before = Snapshot.capture(project, file_id)

        failing = [r for r in toy_records if r.index == 3]
        verifier2, operators2, config2, _ = build_world(project, adversarial_handlers())
        _, results = run_stage1(failing, project, config2, operators2, verifier2)
        assert results[0].status == "restored_failed"
        assert before.matches(project)

    def test_item_that_raises_leaves_the_file_as_it_found_it(self, project, toy_records):
        records = [r for r in toy_records if r.index <= 2]
        verifier, operators, config, _ = build_world(project, toy_handlers())
        run_stage1(records, project, config, operators, verifier)
        file_id = target_file(records[0])
        before = project.path(file_id).read_bytes()

        class Crash(RuntimeError):
            pass

        class CrashingAdapter:
            def verify_file(self, project, file_id):
                raise Crash("verifier died")

        provenance = ProvenanceMap()
        crashing = Verifier(CrashingAdapter())
        item = [r for r in toy_records if r.index == 3]
        assert target_file(item[0]) == file_id
        with pytest.raises(Crash):
            run_stage1(item, project, config, operators, crashing, provenance=provenance)
        assert project.path(file_id).read_bytes() == before
        assert project.read(file_id) == before.decode()
        assert provenance.names() == []

    def test_provenance_for_compiled_items_only(self, project, toy_records):
        records = [r for r in toy_records if r.index <= 2]
        verifier, operators, config, _ = build_world(project, toy_handlers())
        provenance, results = run_stage1(records, project, config, operators, verifier)
        assert "c1s1Alpha" in provenance.names()
        assert "c1s1AlphaSpec" in provenance.names()
        spans = provenance.entries["c1s1Alpha"]
        assert any(idx == 1 for idx, _ in spans)

        failing = [r for r in toy_records if r.index == 3]
        verifier2, operators2, config2, _ = build_world(project, adversarial_handlers())
        pm2, _ = run_stage1(failing, project, config2, operators2, verifier2)
        assert pm2.names() == []

    def test_unparseable_skeleton_consumes_rounds_not_the_run(self, project, toy_records):
        def garbage_gen(request):
            return OperatorResponse(ok=True, text="%% not a declaration %%")

        handlers = dict(toy_handlers(), gen_skeleton=garbage_gen)
        verifier, operators, config, _ = build_world(project, handlers)
        _, results = run_stage1(toy_records[:2], project, config, operators, verifier)
        assert all(r.status == "restored_failed" for r in results)
        assert all(r.verifier_calls <= 1 + config.k for r in results)

    def test_scope_expansion_reaches_preexisting_breakage(self, project, toy_records):
        # the target file already contains a broken declaration; the new item's
        # scope localizes nothing, so the loop expands to the nearest error and
        # the repair operator fixes the old declaration
        file_id = target_file(toy_records[0])
        project.write(file_id, "def older : Z9 := ghostName\n")
        verifier, operators, config, _ = build_world(project, toy_handlers())
        _, results = run_stage1(toy_records[:1], project, config, operators, verifier)
        assert results[0].status == "compiled"
        assert results[0].b_attempts == 1
        text = project.read(file_id)
        assert "def older : Z9 := sorry" in text  # rebuilt as a clean stub
        assert "ghostName" not in text
        ok, _ = verifier.verify_project(project)
        assert ok

    def test_checkpoint_and_events(self, project, toy_records, tmp_path):
        from autoform.instrumentation import (
            MetricsWriter,
            RunInstrumentation,
            read_checkpoint,
        )

        with MetricsWriter(tmp_path / "m.jsonl", "statement_stage1_test") as metrics:
            metrics.run_start({"pipeline": "statement", "stage": 1})
            instr = RunInstrumentation(metrics=metrics, checkpoint_path=tmp_path / "cp.json")
            verifier = Verifier(SimulatedVerifier(), metrics=metrics)
            operators = OperatorSet(toy_handlers(), instr)
            run_stage1(toy_records[:3], project, Stage1Config(), operators, verifier, instr)
            cp = read_checkpoint(tmp_path / "cp.json")
            assert cp.key == "next_index" and cp.cursor == 4

            from autoform.instrumentation import read_events

            events = read_events(tmp_path / "m.jsonl")
            starts = [e for e in events if e["event"] == "item_start"]
            ends = [e for e in events if e["event"] == "item_end"]
            assert len(starts) == len(ends) == 3
            assert ends[0]["data"]["status"] == "compiled"
            assert {"index", "label", "chapter", "section"} <= set(starts[0]["data"])

    def test_start_index_skips_processed_items(self, project, toy_records):
        verifier, operators, config, _ = build_world(project, toy_handlers())
        _, first = run_stage1(toy_records, project, config, operators, verifier, max_items=2)
        assert [r.index for r in first] == [1, 2]
        _, rest = run_stage1(
            toy_records, project, config, operators, verifier, start_index=3
        )
        assert [r.index for r in rest] == list(range(3, 25))
        ok, _ = verifier.verify_project(project)
        assert ok
