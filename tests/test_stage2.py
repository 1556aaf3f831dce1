from __future__ import annotations

import copy
import random
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from autoform import scripted, simlang, stage2
from autoform.diagnostics import (
    Diagnostic,
    DiagnosticSet,
    SourceRange,
    err_count,
    range_text,
    select_error,
)
from autoform.instrumentation import MetricsWriter, read_events
from autoform.pipeline import RunConfig, run_proof_stage, run_statement_stage
from autoform.kernel import PatchProposal
from autoform.operators import OperatorResponse, OperatorSet
from autoform.scripted import adversarial_handlers, toy_handlers
from autoform.stage1 import run_stage1, target_file
from autoform.stage2 import (
    DEFAULT_SPLIT_THRESHOLD,
    AmbiguousTargetError,
    ProofTask,
    locate_target_hole,
    nonempty_lines,
    run_stage2,
    run_stage2_item,
    split_if_large_and_resolve,
)
from autoform.verifier import Project, SimulatedVerifier, Verifier, header_scope

from helpers import EventSink, proof_tasks
from oracles import oracle_signatures, ref_run_stage2_item


def make_verifier(sink=None):
    return Verifier(SimulatedVerifier(), sink or EventSink())


def compiled_project(project, records, metrics):
    verifier = make_verifier()
    operators = OperatorSet(toy_handlers(), EventSink())
    results = run_stage1(records, project, RunConfig(), operators, verifier, metrics)
    assert all(r.status == "compiled" for r in results)
    return project


LABELED_FILE = """\
/-- [1] Definition 0.1 -/
def w : P := sorry

/-- [2] Lemma 0.2 -/
lemma goal : P := by sorry
"""


TWO_THEOREMS = """\
/-- [1] Theorem A -/
theorem a : True := sorry

/-- [2] Theorem B -/
theorem b : True := trivial
"""


class TestLocateTargetHole:
    def test_unique_labeled_declaration(self, project):
        project.write("A.lean", LABELED_FILE)
        task = ProofTask(index=2, label="Lemma 0.2")
        decl = locate_target_hole(project, "A.lean", task)
        assert decl is not None
        assert decl.name == "goal"
        text_at = simlang.analyse(project.read("A.lean")).hole_ranges
        assert decl.holes[0] in text_at

    def test_already_closed_target_is_absent(self, project):
        project.write("A.lean", LABELED_FILE.replace("lemma goal : P := by sorry",
                                                     "lemma goal : P := w"))
        task = ProofTask(index=2, label="Lemma 0.2")
        assert locate_target_hole(project, "A.lean", task) is None

    def test_positional_fallback_with_stripped_docstrings(self, project):
        project.write("A.lean", "def w : P := w0\nlemma goal : P := by sorry\n")
        task = ProofTask(index=2, label="Lemma 0.2")
        decl = locate_target_hole(project, "A.lean", task)
        assert decl is not None and decl.name == "goal"

    def test_ambiguous_label_reported(self, project):
        dup = LABELED_FILE + "\n/-- [3] Lemma 0.2 -/\nlemma goal2 : P := by sorry\n"
        project.write("A.lean", dup)
        with pytest.raises(AmbiguousTargetError):
            locate_target_hole(project, "A.lean", ProofTask(index=2, label="Lemma 0.2"))

    def test_ambiguous_positional_reported(self, project):
        project.write("A.lean", "lemma a : P := by sorry\nlemma b : Q := by sorry\n")
        with pytest.raises(AmbiguousTargetError):
            locate_target_hole(project, "A.lean", ProofTask(index=9, label="Lemma 9"))

    def test_missing_label_does_not_borrow_another_hole(self, project):
        project.write("A.lean", TWO_THEOREMS)
        with pytest.raises(AmbiguousTargetError, match="matches 0 declarations"):
            locate_target_hole(project, "A.lean", ProofTask(index=3, label="Theorem C"))


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
        assert not [f for f in project.files() if "_part" in f]  # staged, not yet written
        assert (project.root / file_id).read_text() == original
        project.commit()
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
        project.commit()
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


    def test_split_never_stages_over_an_existing_file(self, project, metrics):
        file_id = self.setup_project(project, n_decls=40)
        taken = "Chapters/Chap09/section01_part2.lean"
        project.write(taken, "def unrelated : U := sorry\n")
        before = {f: (project.root / f).read_bytes() for f in project.files()}
        task = ProofTask(index=40, label="Lemma 9.40")
        resolved = split_if_large_and_resolve(project, file_id, task, 40, metrics)
        assert resolved == file_id
        assert project.staged_entry(file_id) is None
        assert project.staged_entry(file_id.replace(".lean", "_part1.lean")) is None
        project.commit()
        assert {f: (project.root / f).read_bytes() for f in project.files()} == before
        events = read_events(metrics.path)
        warnings = [e["data"] for e in events if e["event"] == "warning"]
        assert warnings == [
            {"reason": f"split part exists: {taken}", "lean_file": file_id, "index": 40}
        ]

    def test_split_writes_again_a_part_an_unfinished_commit_left(self, project):
        file_id = self.setup_project(project, n_decls=40)
        task = ProofTask(index=40, label="Lemma 9.40")
        split_if_large_and_resolve(project, file_id, task, threshold=40)
        part1 = file_id.replace(".lean", "_part1.lean")
        staged = project.staged_entry(part1)[0]
        project.discard()
        # the commit landed part 1, with a proof in it, and stopped there
        project.write(part1, staged.decode().replace(":= sorry", ":= ground", 1))
        assert project.read_bytes(part1) != staged
        resolved = split_if_large_and_resolve(project, file_id, task, threshold=40)
        assert resolved != file_id
        assert project.staged_entry(part1)[0] == staged

    def test_a_toy_split_asks_the_disk_for_no_absent_file(
        self, project, toy_records, metrics, monkeypatch
    ):
        compiled_project(project, toy_records, metrics)
        record, task = proof_tasks(toy_records)[0]
        file_id = target_file(record)
        absent_reads = []
        real = Project.reload_bytes

        def reload_bytes(self, reload_id):
            data = real(self, reload_id)
            if data is None:
                absent_reads.append(reload_id)
            return data

        monkeypatch.setattr(Project, "reload_bytes", reload_bytes)
        result = run_stage2_item(
            project, file_id, task, RunConfig(split_threshold=10),
            OperatorSet(toy_handlers(), EventSink()), make_verifier(), metrics,
        )
        assert result.status == "solved" and "_part" in result.file
        assert absent_reads == []

    def test_adjacent_declarations_are_each_cut_once(self, project):
        # each unit ends on its declaration's last line: a part takes no
        # line of the unit after it
        text = "".join(f"def d{k} : T := sorry\n" for k in range(8))
        project.write("Adjacent.lean", text)
        split_if_large_and_resolve(project, "Adjacent.lean", None, threshold=4)
        project.commit()
        parts = sorted(f for f in project.files() if "_part" in f)
        assert len(parts) == 4
        names = [d.name for p in parts for d in project.analysis(p).declarations]
        assert names == [f"d{k}" for k in range(8)]
        assert project.read(parts[1]) == (
            "import Adjacent_part1\n\ndef d2 : T := sorry\n\ndef d3 : T := sorry\n"
        )
        assert make_verifier().verify_project(project)[0]

    def test_adjacent_docstring_units_keep_their_docstrings(self, project):
        # a docstring right below the declaration before lies outside its
        # unit's range; the split takes it along, so every label stays
        text = "import Prelude\n" + "".join(
            f"/-- [{k}] Lemma 9.{k} -/\ndef d{k} : T0 := {'sorry' if k == 0 else f'd{k - 1}'}\n"
            for k in range(9)
        )
        project.write("Prelude.lean", "def ground : G := sorry\n")
        project.write("Docs.lean", text)
        original = project.analysis("Docs.lean").declarations
        assert original[1].unit_range.start_line == original[1].range.start_line
        task = ProofTask(index=7, label="Lemma 9.7")
        resolved = split_if_large_and_resolve(project, "Docs.lean", task, threshold=10)
        project.commit()
        parts = sorted(f for f in project.files() if "_part" in f)
        assert len(parts) == 3 and resolved == parts[2]
        split = [d for p in parts for d in project.analysis(p).declarations]
        assert [(d.name, d.type_text, d.docstring) for d in split] == [
            (d.name, d.type_text, d.docstring) for d in original
        ]
        assert [d.unit_range.start_line for d in project.analysis(parts[0]).declarations] == [
            2, 5, 8
        ]
        assert make_verifier().verify_project(project)[0]

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("stray ::: junk\n" + "def x : T := sorry\n" * 4, "lines outside every declaration"),
            ("import A\n" + "-- note\n" * 6, "no declarations"),
            ("def x : T :=\n" + "  sorry\n" * 6, "the declarations fit in one part"),
            (
                "def a : T := sorry /- note\n-/\ndef b : T := sorry\ndef c : T := sorry\n",
                "Crossing_part1.lean would not hold its declarations",
            ),
        ],
        ids=["stray lines", "no declarations", "one part", "a comment crosses a cut"],
    )
    def test_a_split_that_is_not_made_says_why(self, project, metrics, text, reason):
        project.write("Crossing.lean", text)
        task = ProofTask(index=3, label="Lemma 3")
        # at 4 lines, a and b would make the first part, with b in a's comment
        assert split_if_large_and_resolve(project, "Crossing.lean", task, 4, metrics) == (
            "Crossing.lean"
        )
        assert split_if_large_and_resolve(project, "Crossing.lean", None, 4, metrics) == (
            "Crossing.lean"
        )
        assert project.staged_entry("Crossing.lean") is None
        warnings = [e["data"] for e in read_events(metrics.path) if e["event"] == "warning"]
        reason = f"split not made: {reason}"
        assert warnings == [
            {"reason": reason, "lean_file": "Crossing.lean", "index": 3},
            {"reason": reason, "lean_file": "Crossing.lean"},
        ]


# pieces of a random file to split: header lines, then units and the lines
# between them. A unit's comments and strings close on its own lines, except
# in CROSSING, where one runs on below its unit or never closes.
HEADER_LINES = ["import A", "open B", "namespace C", "section", "-- note sorry", "", "/- h -/"]
UNIT_PIECES = [
    "def a{k} : T := sorry",
    "/-- [{k}] Item {k} -/\ntheorem t{k} : P := by sorry",
    "/-- [{k}] Item {k}\n  two lines -/\n-- note\nlemma l{k} : Q :=\n  by exact a{k}",
    "def b{k} : T := sorry /-- [{k}] shares a line with code -/",
    "example : T := sorry -- sorry in a comment",
    'def s{k} : S := "a string {k} sorry"',
    "def n{k} : T := /- nested /- sorry -/ -/ sorry",
    "theorem x{k} : P := by\n  sorry",
    "-- between units sorry",
    "/- a block\n  between units -/",
]
CROSSING = ["def u{k} : T := sorry /- open", "-/", 'def w{k} : S := "open', '"', "/- unclosed"]


@st.composite
def files_to_split(draw, pieces):
    head = draw(st.lists(st.sampled_from(HEADER_LINES), max_size=3))
    chosen = draw(st.lists(st.sampled_from(pieces), max_size=14))
    text = "\n".join(head)
    for k, piece in enumerate(chosen):
        text += draw(st.sampled_from(["\n", "\n\n"])) + piece.format(k=k)
    return text.lstrip("\n") + draw(st.sampled_from(["", "\n"]))


def split_staged(tmp_path_factory, text, threshold):
    """Split ``text``, staged as ``S.lean`` of a new project, at ``threshold``
    lines; returns the project, the staged parts in order, and the warnings."""
    project = Project(tmp_path_factory.getbasetemp() / "split")
    project.stage("S.lean", text)
    sink = EventSink()
    split_if_large_and_resolve(project, "S.lean", None, threshold, sink)
    parts = []
    while project.staged_entry(f"S_part{len(parts) + 1}.lean") is not None:
        parts.append(f"S_part{len(parts) + 1}.lean")
    return project, parts, [e["data"]["reason"] for e in sink.events if e["event"] == "warning"]


class TestSplitParts:
    """Random files split at random thresholds: every part is staged with
    its analysis, which equals a fresh read of its text, and the parts hold
    the file's declarations in order."""

    @settings(max_examples=300, deadline=None)
    @given(files_to_split(UNIT_PIECES + CROSSING), st.integers(1, 16))
    def test_each_part_is_staged_with_the_analysis_of_its_text(
        self, tmp_path_factory, text, threshold
    ):
        project, parts, _ = split_staged(tmp_path_factory, text, threshold)
        for part in parts:
            data, part_text, analysis = project.staged_entry(part)
            assert analysis is not None and part_text == data.decode()
            assert analysis == simlang._analyse(part_text), part_text

    @settings(max_examples=300, deadline=None)
    @given(files_to_split(UNIT_PIECES + CROSSING), st.data())
    def test_split_part_equals_a_fresh_read_at_any_cut(self, text, data):
        # cuts and heads the threshold would not pick, falling back or not
        analysis = simlang._analyse(text)
        units = simlang.split_units(text, analysis)
        cuts = sorted(data.draw(st.sets(st.integers(0, len(units)))) | {0, len(units)})
        head = data.draw(st.lists(st.sampled_from(HEADER_LINES + ["import S_part1"]), max_size=3))
        for lo, hi in zip(cuts, cuts[1:]):
            part_text, part = simlang.split_part(text, analysis, head, units[lo:hi])
            assert part == simlang._analyse(part_text), part_text

    @settings(max_examples=300, deadline=None)
    @given(files_to_split(UNIT_PIECES), st.integers(1, 16))
    def test_the_parts_hold_the_declarations_in_order(self, tmp_path_factory, text, threshold):
        project, parts, warnings = split_staged(tmp_path_factory, text, threshold)
        assert not [w for w in warnings if w.endswith("would not hold its declarations")]
        signatures = [
            (d.kind, d.name, d.type_text)
            for part in parts
            for d in project.analysis(part).declarations
        ]
        if parts:
            original = simlang._analyse(text).declarations
            assert signatures == [(d.kind, d.name, d.type_text) for d in original]


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.sampled_from("ab \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000\u200b")))
def test_nonempty_lines_counts_what_strip_keeps(text):
    assert nonempty_lines(text) == sum(1 for line in text.split("\n") if line.strip())


class TestItemCommit:
    def test_a_split_that_raises_leaves_nothing_staged(
        self, project, toy_records, metrics, monkeypatch
    ):
        compiled_project(project, toy_records, metrics)
        record, task = proof_tasks(toy_records)[0]
        file_id = target_file(record)
        real = Project.stage

        def failing_stage(self, staged_id, *args):
            if staged_id.endswith("_part2.lean"):
                raise OSError("no space for part 2")
            return real(self, staged_id, *args)

        monkeypatch.setattr(Project, "stage", failing_stage)
        config = RunConfig(split_threshold=10)
        operators = OperatorSet(toy_handlers(), EventSink())
        verifier = make_verifier()
        result = run_stage2_item(
            project, file_id, task, config, operators, verifier, metrics
        )
        assert result.status == "solved" and result.file == file_id  # solved unsplit
        events = read_events(metrics.path)
        warnings = [e["data"]["reason"] for e in events if e["event"] == "warning"]
        assert warnings == ["split failed: no space for part 2"]
        assert project.staged_entry(file_id.replace(".lean", "_part1.lean")) is None
        assert not [f for f in project.files() if "_part" in f]

    def test_a_file_whose_parts_cannot_be_imported_runs_unsplit(self, project, metrics):
        # a part of a.b/X.lean would be imported as a.b.X_part1, which names
        # a/b/X_part1.lean: the split is refused and the item runs on the file
        file_id = "a.b/X.lean"
        units = [f"/-- [{i}] Theorem {i} -/\ntheorem t{i} : True := trivial" for i in range(1, 8)]
        text = "\n\n".join(units) + "\n\n/-- [8] Theorem 8 -/\ntheorem t8 : True := by sorry\n"
        project.write(file_id, text)
        task = ProofTask(index=8, label="Theorem 8", reference_proof="\\lean{trivial}")
        verifier = make_verifier()
        result = run_stage2_item(
            project, file_id, task, RunConfig(split_threshold=10),
            OperatorSet(toy_handlers(), EventSink()), verifier, metrics,
        )
        assert result.status == "solved" and result.file == file_id
        events = read_events(metrics.path)
        warnings = [e["data"]["reason"] for e in events if e["event"] == "warning"]
        assert warnings == [
            f"split failed: cannot split {file_id}: "
            "a.b/X_part1.lean is not importable by module name"
        ]
        project.commit()
        assert project.files() == [file_id]
        assert verifier.verify_project(project)[0]

    def test_the_items_edits_land_in_one_commit_before_its_item_end(
        self, project, toy_records, metrics, monkeypatch
    ):
        compiled_project(project, toy_records, metrics)
        record, task = proof_tasks(toy_records)[0]
        file_id = target_file(record)
        before = project.path(file_id).read_bytes()
        log = []
        real_emit, real_commit = metrics.emit, project.commit

        def emit(event, data):
            log.append(event)
            return real_emit(event, data)

        def commit():
            log.append(("commit", project.path(file_id).read_bytes()))
            real_commit()

        monkeypatch.setattr(metrics, "emit", emit)
        monkeypatch.setattr(project, "commit", commit)
        verifier = Verifier(SimulatedVerifier(), metrics=metrics)
        operators = OperatorSet(toy_handlers(), metrics)
        [result] = run_stage2(
            toy_records, project, RunConfig(max_items=1), operators, verifier, metrics
        )
        assert result.index == task.index and result.file == file_id
        assert result.status == "solved" and verifier.calls == 2
        assert log[-2:] == [("commit", before), "item_end"]  # the accept was only staged
        assert project.path(file_id).read_bytes() == project.read_bytes(file_id) != before


class TestMissingSectionFile:
    def test_items_of_a_missing_section_are_skipped(self, project, toy_records, metrics):
        # stage 1 restored away every item of one section, so its file is absent
        compiled_project(project, toy_records, metrics)
        missing = target_file(proof_tasks(toy_records)[0][0])
        project.delete(missing)
        sink = EventSink()
        results = run_stage2(
            toy_records,
            project,
            RunConfig(),
            OperatorSet(toy_handlers(), EventSink()),
            make_verifier(sink),
            metrics,
        )
        gone = [r for r in results if r.file == missing]
        assert gone and all(r.status == "skipped" and r.verifier_calls == 0 for r in gone)
        assert all(r.status in ("solved", "already_closed") for r in results if r.file != missing)
        assert sink.count("lean_check") == sum(r.verifier_calls for r in results)
        warnings = [
            e["data"] for e in read_events(metrics.path) if e["event"] == "warning"
        ]
        assert [w["lean_file"] for w in warnings] == [missing] * len(gone)
        assert all(missing in w["reason"] for w in warnings)
        assert not project.exists(missing)


class TestTargetLookupSkips:
    """Every lookup of the target ends the item ``skipped`` with a warning
    when the task label picks out no single declaration."""

    def run(self, project, metrics, label, propose):
        project.write("A.lean", TWO_THEOREMS)
        handlers = dict(toy_handlers(), propose_proof_patch=propose)
        result = run_stage2_item(
            project,
            "A.lean",
            ProofTask(index=1, label=label),
            RunConfig(),
            OperatorSet(handlers, EventSink()),
            make_verifier(),
            metrics,
        )
        events = read_events(metrics.path)
        return result, [e["data"] for e in events if e["event"] == "warning"]

    def test_accepted_patch_that_duplicates_the_label(self, project, metrics):
        def propose(request):
            patch = PatchProposal(
                file="A.lean",
                range=request.payload["hole"],
                replacement="trivial\n\n/-- [1] Theorem A -/\ntheorem a2 : True := trivial",
            )
            return OperatorResponse(ok=True, patch=patch)

        result, warnings = self.run(project, metrics, "Theorem A", propose)
        assert (result.status, result.proof_attempts, result.verifier_calls) == ("skipped", 1, 2)
        reason = "label 'Theorem A' matches 2 declarations"
        assert warnings == [{"reason": reason, "lean_file": "A.lean", "index": 1}]
        assert b"theorem a2" in project.staged_entry("A.lean")[0]  # the accepted patch stays staged

    def test_label_missing_from_a_labelled_file(self, project, metrics):
        def propose(request):
            raise AssertionError("no proposal for a target that was not found")

        result, warnings = self.run(project, metrics, "Theorem C", propose)
        assert (result.status, result.plans, result.verifier_calls) == ("skipped", 0, 1)
        reason = "label 'Theorem C' matches 0 declarations"
        assert warnings == [{"reason": reason, "lean_file": "A.lean", "index": 1}]
        assert project.staged_entry("A.lean") is None


class ToyWorld:
    def __init__(self, project, records, metrics, handlers=None, sink=None, config=None):
        self.project = compiled_project(project, records, metrics)
        self.metrics = metrics
        self.records = records
        self.sink = sink or EventSink()
        self.verifier = make_verifier(self.sink)
        self.operators = OperatorSet(handlers or toy_handlers(), EventSink())
        self.config = config or RunConfig()

    def tasks(self):
        return proof_tasks(self.records)

    def run_item(self, record, task):
        return run_stage2_item(
            self.project,
            target_file(record),
            task,
            self.config,
            self.operators,
            self.verifier,
            self.metrics,
        )


@pytest.fixture
def analyses(monkeypatch):
    """The analysis of each ``header_scope`` call stage 2 makes, in order."""
    calls = []

    def counting_header_scope(analysis):
        calls.append(analysis)
        return header_scope(analysis)

    monkeypatch.setattr(stage2, "header_scope", counting_header_scope)
    return calls


class TestRunStage2Item:
    def test_first_attempt_close(self, project, toy_records, metrics):
        world = ToyWorld(project, toy_records, metrics)
        record, task = world.tasks()[0]
        file_id = target_file(record)
        holes_before = len(project.analysis(file_id).hole_ranges)
        result = world.run_item(record, task)
        assert result.status == "solved"
        assert result.proof_attempts == 1
        # one kernel call for the accepted attempt, after the item's initial check
        assert result.verifier_calls == 2
        assert len(project.analysis(file_id).hole_ranges) == holes_before - 1

    def test_already_proved_target(self, project, toy_records, metrics):
        world = ToyWorld(project, toy_records, metrics)
        record, task = world.tasks()[0]
        world.run_item(record, task)
        again = world.run_item(record, task)
        assert again.status == "already_closed"
        assert again.proof_attempts == 0
        assert again.verifier_calls == 1

    def test_adversarial_budget_exhaustion(self, project, toy_records, metrics):
        config = RunConfig(budget_t=50, budget_r=3, budget_c=4)
        world = ToyWorld(
            project, toy_records, metrics, handlers=adversarial_handlers(), config=config
        )
        record, task = world.tasks()[0]
        file_id = target_file(record)
        holes_before = len(project.analysis(file_id).hole_ranges)
        result = world.run_item(record, task)
        assert result.status == "unsolved"
        assert result.proof_attempts == config.budget_r * config.budget_c
        assert result.verifier_calls <= config.budget_t
        ok, _ = world.verifier.adapter.verify_file(project, file_id)
        assert ok  # file still verifies
        assert len(project.analysis(file_id).hole_ranges) == holes_before

    def test_rejected_attempts_reuse_their_scope(self, project, toy_records, metrics, analyses):
        # each rejected patch restores the analysis it replaced, so the
        # target's scope with the header is built once for all twelve
        config = RunConfig(budget_t=50, budget_r=3, budget_c=4)
        world = ToyWorld(
            project, toy_records, metrics, handlers=adversarial_handlers(), config=config
        )
        record, task = world.tasks()[0]
        result = world.run_item(record, task)
        assert (result.status, result.proof_attempts, result.verifier_calls) == ("unsolved", 12, 13)
        assert len(analyses) == 1

    def test_a_new_analysis_gets_a_new_scope(
        self, project, toy_records, metrics, analyses, monkeypatch
    ):
        # a project that hands out a fresh copy of the analysis on every read
        config = RunConfig(budget_t=50, budget_r=3, budget_c=4)
        world = ToyWorld(
            project, toy_records, metrics, handlers=adversarial_handlers(), config=config
        )
        analysis = project.analysis
        monkeypatch.setattr(project, "analysis", lambda file_id: copy.copy(analysis(file_id)))
        record, task = world.tasks()[0]
        result = world.run_item(record, task)
        assert (result.status, result.proof_attempts) == ("unsolved", 12)
        assert len(analyses) == 12

    def test_a_new_target_gets_a_new_scope(self, project, toy_records, metrics, analyses):
        # the error fix and the proof patch target different ranges
        world = ToyWorld(project, toy_records, metrics)
        record, task = world.tasks()[0]
        file_id = target_file(record)
        project.write(file_id, project.read(file_id) + "\ndef zz : Q9 := ghost\n")
        result = world.run_item(record, task)
        assert (result.status, result.fix_attempts, result.proof_attempts) == ("solved", 1, 1)
        assert len(analyses) == 2 and analyses[0] is not analyses[1]

    def test_tight_verifier_budget_stops_early(self, project, toy_records, metrics):
        config = RunConfig(budget_t=5, budget_r=10, budget_c=21)
        world = ToyWorld(
            project, toy_records, metrics, handlers=adversarial_handlers(), config=config
        )
        record, task = world.tasks()[0]
        result = world.run_item(record, task)
        assert result.verifier_calls <= config.budget_t

    def test_broken_file_with_failing_fixer_terminates(self, project, toy_records, metrics):
        def hopeless(request):
            raise RuntimeError("fixer is down")

        config = RunConfig(budget_t=6, budget_r=2, budget_c=2)
        world = ToyWorld(
            project,
            toy_records,
            metrics,
            handlers=dict(toy_handlers(), fix_compile_error=hopeless),
            config=config,
        )
        record, task = world.tasks()[0]
        file_id = target_file(record)
        project.write(file_id, project.read(file_id) + "def zz : Q := ghost\n")
        result = world.run_item(record, task)
        assert result.status == "unsolved"
        assert result.fix_attempts == config.budget_t  # starved fixer is bounded too
        assert result.verifier_calls <= config.budget_t

    def test_error_fix_interlude_then_close(self, project, toy_records, metrics):
        # the file acquired a compile error since stage 1: the item first
        # commits an error fix, then locates the hole and closes it
        world = ToyWorld(project, toy_records, metrics)
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

    def test_the_item_end_lists_the_accepted_proposals(self, project, toy_records, metrics):
        # the first proposal is checked and rejected, the second closes the hole
        toy, adversarial = toy_handlers(), adversarial_handlers()
        proposers = iter([adversarial["propose_proof_patch"], toy["propose_proof_patch"]])
        handlers = dict(toy, propose_proof_patch=lambda request: next(proposers)(request))
        world = ToyWorld(project, toy_records, metrics, handlers=handlers)
        record, task = world.tasks()[0]
        result = world.run_item(record, task)
        assert result.status == "solved"
        assert (result.proof_attempts, result.verifier_calls) == (2, 3)
        assert result.end_fields()["a_accepted"] == [2]

    def test_elaboration_preserved_after_every_item(self, project, toy_records, metrics):
        world = ToyWorld(project, toy_records, metrics, handlers=adversarial_handlers(),
                         config=RunConfig(budget_t=8, budget_r=2, budget_c=2))
        for record, task in world.tasks():
            world.run_item(record, task)
            ok, diags = world.verifier.adapter.verify_file(project, target_file(record))
            assert ok, diags

    def test_hole_count_never_increases_across_items(self, project, toy_records, metrics):
        world = ToyWorld(project, toy_records, metrics)
        for record, task in world.tasks():
            file_id = target_file(record)
            before = len(project.analysis(file_id).hole_ranges)
            world.run_item(record, task)
            assert len(project.analysis(file_id).hole_ranges) <= before


class TestMatchedStatementGuard:
    def test_signatures_byte_identical_across_items(self, project, toy_records, metrics):
        world = ToyWorld(project, toy_records, metrics)
        for record, task in world.tasks():
            file_id = target_file(record)
            before = oracle_signatures(project.read(file_id))
            result = world.run_item(record, task)
            after = oracle_signatures(project.read(file_id))
            assert before == after, (record.index, result.status)


class TestRunStage2Driver:
    def test_the_driver_refuses_a_config_a_run_rejects(self, project, toy_records, metrics):
        world = ToyWorld(project, toy_records, metrics, config=RunConfig(split_threshold=0))
        with pytest.raises(ValueError, match="split threshold must be at least 1"):
            run_stage2(
                toy_records, project, world.config, world.operators, world.verifier, metrics
            )
        assert world.verifier.calls == 0

    def test_full_toy_run_closes_every_target(
        self, project, toy_records, toy_lemma_map, metrics
    ):
        world = ToyWorld(project, toy_records, metrics)
        results = run_stage2(
            toy_records,
            world.project,
            world.config,
            world.operators,
            world.verifier,
            metrics,
            lemma_map=toy_lemma_map,
        )
        assert len(results) == 16
        assert all(r.status == "solved" for r in results)
        ok, _ = world.verifier.verify_project(project)
        assert ok

    def test_proof_targets_filtered_by_env_and_proof(self, toy_records):
        tasks = proof_tasks(toy_records)
        assert len(tasks) == 16
        assert all(rec.proof for rec, _ in tasks)
        assert all(rec.env in {"theorem", "lemma", "proposition", "corollary"} for rec, _ in tasks)

    def test_lemma_hints_attached(self, toy_records, toy_lemma_map):
        tasks = dict(
            (task.index, task) for _, task in proof_tasks(toy_records, toy_lemma_map)
        )
        assert tasks[2].lemma_hints is not None
        assert tasks[2].lemma_hints.decl_hints == ("c1s1Alpha",)
        assert tasks[4].lemma_hints is None


class TestResumedSegment:
    def test_a_resumed_segment_builds_tasks_only_for_the_items_it_runs(
        self, toy_config, toy_lemma_map, monkeypatch
    ):
        """Resumed at cursor 5 with room for two items, a stage-2 segment
        builds the tasks of items 5 and 6 only, and item 5's lemma-map
        hints still reach its plan request."""
        run_statement_stage(toy_config)
        toy_config.resume, toy_config.max_items = True, 2
        first, _ = run_proof_stage(toy_config, lemma_map=toy_lemma_map)
        assert [r.index for r in first] == [2, 4]

        built = []
        proof_task = stage2.proof_task

        def counting_proof_task(record, lemma_map):
            built.append(record.index)
            return proof_task(record, lemma_map)

        plans = []
        base = toy_handlers()

        def plan(request):
            plans.append(request.payload)
            return base["plan"](request)

        monkeypatch.setattr(stage2, "proof_task", counting_proof_task)
        monkeypatch.setattr(scripted, "toy_handlers", lambda: dict(base, plan=plan))
        second, _ = run_proof_stage(toy_config, lemma_map=toy_lemma_map)
        assert [r.index for r in second] == [5, 6]
        assert built == [5, 6]
        assert plans[0]["task"]["index"] == 5
        assert plans[0]["task"]["navigation_cues"] == {
            "decl_hints": ["trivial"],
            "notes": "a built-in closes trivial goals",
        }


class TestRequestConditioning:
    """Operators see only the conditioning each kind is allowed."""

    def test_plan_requests_carry_task_and_goal_but_no_file_text(
        self, project, toy_records, toy_lemma_map, metrics
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
        world = ToyWorld(project, toy_records, metrics, handlers=handlers)
        results = run_stage2(
            toy_records,
            world.project,
            world.config,
            world.operators,
            world.verifier,
            metrics,
            lemma_map=toy_lemma_map,
        )
        assert all(r.status in ("solved", "already_closed") for r in results)
        assert captured["plan"]
        for payload in captured["plan"]:
            assert "file_text" not in payload and "file" not in payload
            assert "task" in payload and "goal_state" in payload
        # the lemma-map entry for item 2 surfaces as navigation cues
        hinted = [p for p in captured["plan"] if p["task"]["index"] == 2]
        assert hinted and hinted[0]["task"]["navigation_cues"]["decl_hints"] == ["c1s1Alpha"]
        for payload in captured["propose_proof_patch"]:
            assert {"file", "file_text", "hole", "plan", "task"} <= set(payload)

    def test_goal_state_reaches_plan_requests_when_available(
        self, project, toy_records, metrics
    ):
        seen_goals = []
        base = toy_handlers()

        def plan_spy(request):
            seen_goals.append(request.payload["goal_state"])
            return base["plan"](request)

        world = ToyWorld(project, toy_records, metrics, handlers=dict(base, plan=plan_spy))
        record, task = world.tasks()[0]
        world.run_item(record, task)
        assert seen_goals and seen_goals[0] is not None
        assert seen_goals[0]["goal"] == "T11A"


# -- differential check against the reference item loop ----------------------

SECTION = "Chapters/Chap01/section01.lean"


def random_section(rng: random.Random, labels: list[str]) -> str:
    """A section of holed, closed and broken declarations, each labelled
    with a draw from ``labels``, or unlabelled when ``labels`` is empty."""
    lines = ["open Classical", ""] if rng.random() < 0.4 else []
    for k in range(rng.randint(1, 5)):
        if labels:
            lines.append(f"/-- [{k + 1}] {rng.choice(labels)} -/")
        lines.append(
            rng.choice(
                [
                    f"theorem t{k} : True := by sorry",
                    f"theorem t{k} : True := sorry",
                    f"theorem t{k} : True := trivial",
                    f"lemma t{k} : True := ghost{k}",
                    f"def t{k} : T0 := sorry",
                ]
            )
        )
        lines.append("")
    return "\n".join(lines)


def random_handlers(rng: random.Random) -> dict:
    """Operators whose every response is drawn from ``rng``: failures,
    crashes, empty and out-of-scope patches, no-ops, patches that add an
    error, close a hole, or close one and add a labelled declaration."""
    fresh = iter(range(10**6))

    def patched(request, target, replacement):
        patch = PatchProposal(request.payload["file"], target, replacement, "scripted:random")
        return OperatorResponse(ok=True, patch=patch)

    def common(request, target):
        roll = rng.randrange(6)
        if roll == 0:
            return OperatorResponse.failed("no proposal")
        if roll == 1:
            raise RuntimeError("operator crashed")
        if roll == 2:
            return OperatorResponse(ok=True)
        if roll == 3:
            far = SourceRange(target.end_line + 40, 0, target.end_line + 40, 1)
            return patched(request, far, "trivial")
        if roll == 4:  # a patch that runs on past the target is out of scope too
            return patched(request, SourceRange(*target.start, target.end_line + 40, 0), "trivial")
        return patched(request, target, range_text(request.payload["file_text"], target))

    def propose(request):
        target = request.payload["target_range"]
        roll = rng.randrange(10)
        if roll < 4:
            return common(request, target)
        if roll < 6:
            return patched(request, target, rng.choice(["trivial", "exact trivial"]))
        if roll < 8:
            return patched(request, target, rng.choice(["ghost", "sorry", "a b"]))
        label = rng.choice([request.payload["task"]["label"], "Theorem 9"])
        added = f"/-- [9] {label} -/\ntheorem dup{next(fresh)} : True := trivial"
        return patched(request, target, f"trivial\n\n{added}")

    def fix(request):
        target = request.payload["target_range"]
        roll = rng.randrange(8)
        if roll < 4:
            return common(request, target)
        return patched(request, target, rng.choice(["sorry", "trivial", "a b", "ghost"]))

    def plan(request):
        return rng.choice(
            [OperatorResponse(ok=True, text=f"plan {next(fresh)}"), OperatorResponse.failed("down")]
        )

    def replan(request):
        return rng.choice(
            [
                OperatorResponse(ok=True, text=f"replan {next(fresh)}"),
                OperatorResponse(ok=True, text=""),
                OperatorResponse.failed("down"),
            ]
        )

    return {
        "fix_compile_error": fix,
        "plan": plan,
        "replan": replan,
        "propose_proof_patch": propose,
    }


def run_scenario(item_fn, root, seed: int, adapter=None):
    """One item of scenario ``seed`` under ``item_fn``, checked by
    ``adapter`` (a fresh ``SimulatedVerifier`` by default): its result
    fields, accepted proposals included (or the text of the
    AmbiguousTargetError it raised and the proposals accepted before it),
    its metrics lines without timestamps, and the project's staged and
    committed text."""
    rng = random.Random(seed)
    labels = [f"Theorem {k}" for k in range(rng.choice([0, 2, 4, 8]))]
    text = random_section(rng, labels)
    used = [d.doc_label for d in simlang.parse_file(text).declarations if d.doc_label]
    label = rng.choice(used * 3 + ["Theorem 1", "Theorem 9"])
    config = RunConfig(
        budget_t=rng.randint(1, 14),
        budget_r=rng.randint(1, 4),
        budget_c=rng.randint(1, 4),
        split_threshold=rng.choice([DEFAULT_SPLIT_THRESHOLD, 6]),
    )
    project = Project(root / "project")
    if rng.random() < 0.97:
        project.write(SECTION, text)
    task = ProofTask(index=seed, label=label, reference_proof="trivial")
    stream = root / "runs" / "metrics.jsonl"
    with MetricsWriter(stream, "run") as metrics:
        metrics.run_start({})
        verifier = Verifier(adapter or SimulatedVerifier(), metrics)
        operators = OperatorSet(random_handlers(random.Random(-seed)), metrics)
        try:
            outcome = asdict(item_fn(project, SECTION, task, config, operators, verifier, metrics))
        except AmbiguousTargetError as exc:  # raised by the reference only
            outcome = {"raised": str(exc), "accepted_attempts": exc.result.accepted_attempts}

    lines = [{k: v for k, v in e.items() if k != "ts"} for e in read_events(stream)]
    ids = [SECTION] + [SECTION.replace(".lean", f"_part{k}.lean") for k in range(1, 9)]
    files = {
        f: (project.read_bytes(f) if project.staged_entry(f) else None, project.committed_bytes(f))
        for f in ids
    }
    return outcome, lines[1:], files


def test_item_loop_matches_reference_loop(tmp_path):
    """The flat item loop against the nested reference loop on seeded
    scenarios. The two differ only where the reference was wrong: its lookup
    after an accepted proposal raised on an ambiguous label, and its lookup
    borrowed another declaration's hole for a label missing from a labelled
    file. There the item ends ``skipped`` with a warning after the same
    events."""
    seen = Counter()
    for seed in range(600):
        old = run_scenario(ref_run_stage2_item, tmp_path / f"{seed}" / "old", seed)
        new = run_scenario(run_stage2_item, tmp_path / f"{seed}" / "new", seed)
        outcome, events, files = new
        if old == new:
            seen[outcome["status"]] += 1
            continue
        assert outcome["status"] == "skipped", seed
        *before, warning = events
        assert warning["event"] == "warning" and warning["data"]["index"] == seed
        reason = warning["data"]["reason"]
        accepted = outcome["accepted_attempts"]
        if "raised" in old[0]:  # raised by the reference after an accept
            seen["ambiguous after accept"] += 1
            assert (reason, before, files) == (old[0]["raised"], *old[1:]), seed
            assert accepted == old[0]["accepted_attempts"], seed
        else:
            seen["label missing"] += 1
            assert reason.endswith("matches 0 declarations"), seed
            assert before == old[1][: len(before)], seed
            assert accepted == old[0]["accepted_attempts"][: len(accepted)], seed
    assert min(seen.values()) >= 5 and len(seen) == 6, seen


class GoalQuerySpy(SimulatedVerifier):
    """The simulated checker, recording the text and error count of each
    file's last check and, at each goal query, the file's text and that
    record."""

    def __init__(self):
        self.last_check: dict[str, tuple[str, int]] = {}
        self.queries: list[tuple[str, tuple[str, int] | None]] = []

    def verify_file(self, project, file_id):
        ok, diags = super().verify_file(project, file_id)
        self.last_check[file_id] = (project.read(file_id), err_count(diags))
        return ok, diags

    def goal_state(self, project, file_id, hole):
        self.queries.append((project.read(file_id), self.last_check.get(file_id)))
        return super().goal_state(project, file_id, hole)


def test_a_goal_is_asked_only_of_the_text_of_a_clean_last_check(tmp_path):
    """The precondition that lets ``goal_state`` run no check, at its one
    caller: over the seeded scenarios, the file's text at each goal query
    is the text of its last counted check, and that check found no error."""
    queries = 0
    for seed in range(600):
        spy = GoalQuerySpy()
        run_scenario(run_stage2_item, tmp_path / f"{seed}", seed, spy)
        for text, last_check in spy.queries:
            assert last_check == (text, 0), seed
        queries += len(spy.queries)
    assert queries >= 100, queries
