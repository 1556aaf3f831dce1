from __future__ import annotations

import random
import stat
import sys

import pytest

from autoform import simlang, stage2
from autoform.diagnostics import DiagnosticSet, SourceRange, err_count
from autoform.stage2 import split_if_large_and_resolve
from autoform.verifier import (
    ExternalVerifier,
    Project,
    SimulatedVerifier,
    Verifier,
    VerifierLaunchError,
    parse_toolchain_output,
)

from helpers import EventSink
from oracles import random_module, ref_find_hole_ranges, ref_goal_state, ref_verify_file


@pytest.fixture
def sim():
    return SimulatedVerifier()


class TestSimulatedVerifyFile:
    def test_undefined_reference_is_one_error_at_declaration(self, project, sim):
        project.write("A.lean", "def a : T := ghost\n")
        ok, diags = sim.verify_file(project, "A.lean")
        assert not ok
        assert err_count(diags) == 1
        err = diags.errors()[0]
        assert "ghost" in err.message
        assert err.range.start_line == 0

    def test_determinism_on_identical_bytes(self, project, sim):
        project.write("A.lean", "def a : T := sorry\ntheorem t : T := a\n")
        first = sim.verify_file(project, "A.lean")
        second = sim.verify_file(project, "A.lean")
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_warning_only_file_is_ok(self, project, sim):
        project.write("A.lean", "def a : T := sorry\n")
        ok, diags = sim.verify_file(project, "A.lean")
        assert ok
        assert [d.severity for d in diags] == ["warning"]

    def test_theorem_hole_produces_no_diagnostic(self, project, sim):
        project.write("A.lean", "theorem t : P := by sorry\n")
        ok, diags = sim.verify_file(project, "A.lean")
        assert ok and len(diags) == 0

    def test_type_mismatch(self, project, sim):
        project.write("A.lean", "def a : T := sorry\nlemma l : U := a\n")
        ok, diags = sim.verify_file(project, "A.lean")
        assert not ok
        assert "type mismatch" in diags.errors()[0].message

    def test_reference_must_precede_use(self, project, sim):
        project.write("A.lean", "theorem t : T := later\ndef later : T := sorry\n")
        ok, diags = sim.verify_file(project, "A.lean")
        assert not ok

    def test_duplicate_declaration(self, project, sim):
        project.write("A.lean", "def a : T := sorry\ndef a : T := sorry\n")
        ok, diags = sim.verify_file(project, "A.lean")
        assert not ok
        assert "already been declared" in diags.errors()[0].message

    def test_builtin_table(self, project, sim):
        project.write("A.lean", "theorem t : True := trivial\n")
        ok, _ = sim.verify_file(project, "A.lean")
        assert ok

    def test_import_resolution(self, project, sim):
        project.write("Lib/Base.lean", "def base : T := sorry\n")
        project.write("A.lean", "import Lib.Base\ntheorem t : T := base\n")
        ok, diags = sim.verify_file(project, "A.lean")
        assert ok, diags

    def test_transitive_imports(self, project, sim):
        project.write("A.lean", "def a : T := sorry\n")
        project.write("B.lean", "import A\ndef b : U := sorry\n")
        project.write("C.lean", "import B\ntheorem t : T := a\n")
        ok, _ = sim.verify_file(project, "C.lean")
        assert ok

    def test_missing_module_is_an_error_at_import_line(self, project, sim):
        project.write("A.lean", "import Nowhere.Real\ndef a : T := sorry\n")
        ok, diags = sim.verify_file(project, "A.lean")
        assert not ok
        err = diags.errors()[0]
        assert err.range.start_line == 0 and "Nowhere.Real" in err.message

    def test_an_import_that_leads_out_of_the_project_is_an_error(self, project, sim, tmp_path):
        # `.a.b` would name `/a/b.lean`: a module name must be dotted
        # identifiers, and no check reads a file outside the root
        outside = tmp_path / "outside" / "Out.lean"
        outside.parent.mkdir()
        outside.write_text("theorem outside : True := trivial\n")
        module = "." + ".".join(outside.with_suffix("").parts[1:])
        project.write("A.lean", f"import {module}\ntheorem t : True := outside\n")
        project.write("B.lean", "import A\ntheorem u : True := outside\n")
        expected = {
            "A.lean": [(0, f"invalid module name '{module}'"), (1, "unknown identifier 'outside'")],
            "B.lean": [(1, "unknown identifier 'outside'")],
        }
        for file_id, errors in expected.items():
            ok, diags = sim.verify_file(project, file_id)
            assert not ok
            assert [(e.range.start_line, e.message) for e in diags.errors()] == errors
            ref_ok, ref_diags = ref_verify_file(project, file_id)
            assert (ok, diags.items) == (ref_ok, ref_diags.items)

    def test_missing_file(self, project, sim):
        ok, diags = sim.verify_file(project, "Ghost.lean")
        assert not ok and err_count(diags) == 1

    def test_two_file_import_cycle_is_an_error_in_both(self, project, sim):
        project.write("A.lean", "import B\ndef a : T := sorry\n")
        project.write("B.lean", "import A\ndef b : T := sorry\n")
        for file_id, module in (("A.lean", "B"), ("B.lean", "A")):
            ok, diags = sim.verify_file(project, file_id)
            assert not ok
            assert [(e.range.start_line, e.message) for e in diags.errors()] == [
                (0, f"import cycle through '{module}'")
            ]
            ref_ok, ref_diags = ref_verify_file(project, file_id)
            assert (ok, diags.items) == (ref_ok, ref_diags.items)

    def test_self_import_is_an_error_at_its_line(self, project, sim):
        project.write("A.lean", "import Lib\nimport A\ndef a : T := sorry\n")
        project.write("Lib.lean", "def lib : T := sorry\n")
        ok, diags = sim.verify_file(project, "A.lean")
        assert not ok
        assert [(e.range.start_line, e.message) for e in diags.errors()] == [
            (1, "import cycle through 'A'")
        ]

    def test_importing_a_module_on_a_cycle_is_an_error(self, project, sim):
        project.write("A.lean", "import B\ndef a : T := sorry\n")
        project.write("B.lean", "import A\ndef b : T := sorry\n")
        project.write("C.lean", "import Lib\nimport B\ntheorem c : T := b\n")
        project.write("Lib.lean", "def lib : T := sorry\n")
        ok, diags = sim.verify_file(project, "C.lean")
        assert not ok
        assert [(e.range.start_line, e.message) for e in diags.errors()] == [
            (1, "import cycle through 'B'")
        ]


def write_random_project(project, rng: random.Random, modules: int) -> list[str]:
    """Modules M0..M{n-1}, each importing some earlier ones (import chains),
    sometimes a missing module or a later one (an import cycle)."""
    file_ids = []
    for k in range(modules):
        imports = [f"M{j}" for j in range(k) if rng.random() < 0.6]
        if rng.random() < 0.1:
            imports.append("Missing")
        if rng.random() < 0.1:
            imports.append(f"M{modules - 1}")
        file_id = f"M{k}.lean"
        project.write(file_id, random_module(rng, imports, decls=rng.randint(0, 10)))
        file_ids.append(file_id)
    return file_ids


class TestCheckMatchesReference:
    """verify_file, and goal_state on the files that verify, over the kept
    analysis against the checker that re-parsed every file on every call."""

    def test_multi_file_projects_with_import_chains(self, project, sim):
        rng = random.Random(2026)
        verdicts, goals = set(), 0
        cycles = 0
        for _ in range(40):
            for file_id in project.files():
                project.delete(file_id)
            file_ids = write_random_project(project, rng, rng.randint(1, 5))
            for round_ in range(2):
                for file_id in file_ids:
                    ok, diags = sim.verify_file(project, file_id)
                    ref_ok, ref_diags = ref_verify_file(project, file_id)
                    assert (ok, diags.items) == (ref_ok, ref_diags.items)
                    verdicts.add(ok)
                    cycles += any(d.message.startswith("import cycle") for d in diags)
                    if not ok:
                        continue  # a goal is asked only of a file that verifies
                    text = project.read(file_id)
                    for hole in ref_find_hole_ranges(text):
                        goal = sim.goal_state(project, file_id, hole)
                        got = None if goal is None else (goal.goal, goal.context)
                        assert got == ref_goal_state(project, file_id, hole)
                        goals += 1
                # edit an imported module in place: importers must see the edit
                victim = rng.choice(file_ids)
                project.write(victim, project.read(victim).replace("T1", "T2"))
        assert verdicts == {True, False} and goals > 0
        assert cycles > 0

    def test_goal_state_at_the_edges_of_declarations(self, project, sim):
        lines = [
            "open Foo",
            "",
            "def a : A := sorry",
            "",
            "theorem t :",
            "    B :=",
            "  by sorry",
            "",
            "lemma l : B := t",
            "theorem u : B := l",
        ]
        project.write("A.lean", "\n".join(lines) + "\n")
        assert sim.verify_file(project, "A.lean")[0]  # a goal is asked only then
        expected = {
            (4, 0, 4, 0): "B",  # column 0 of a declaration's first line
            (9, 0, 9, 0): "B",  # the same, right where the one before ends
            (6, 10, 6, 10): "B",  # the end of a declaration's last line
            (9, 18, 9, 18): "B",  # the end of the last declaration
            (2, 18, 4, 0): "A",  # from one declaration's end into the next
            (3, 0, 3, 0): None,  # a blank line between two declarations
            (7, 0, 7, 0): None,
            (0, 0, 0, 8): None,  # the header
            (1, 0, 1, 0): None,
            (10, 0, 10, 0): None,  # past the last line
            (40, 3, 41, 0): None,
        }
        for hole, goal in expected.items():
            hole = SourceRange(*hole)
            got = sim.goal_state(project, "A.lean", hole)
            assert (got and got.goal) == goal, hole
            ref = ref_goal_state(project, "A.lean", hole)
            assert (None if got is None else (got.goal, got.context)) == ref, hole


class TestAnalysisReuse:
    def test_verify_scans_each_content_once(self, project, monkeypatch):
        scans = []
        scan = simlang.noncode_spans
        monkeypatch.setattr(
            simlang, "noncode_spans", lambda *args: scans.append(1) or scan(*args)
        )
        text = "".join(
            f"/-- [{k}] Item {k} -/\ndef d{k} : T := sorry\n\n" for k in range(400)
        )
        project.write("Big.lean", text)
        verifier = Verifier(SimulatedVerifier(), EventSink())
        ok, _ = verifier.verify_file(project, "Big.lean")
        assert ok and len(scans) == 1
        verifier.verify_file(project, "Big.lean")
        hole = project.analysis("Big.lean").hole_ranges[-1]
        assert verifier.goal_state(project, "Big.lean", hole).goal == "T"
        assert len(scans) == 1
        project.write("Big.lean", text + "def e : T := sorry\n")
        verifier.verify_file(project, "Big.lean")
        assert len(scans) == 2


def ref_check(project, file_id: str) -> tuple[bool, tuple]:
    ok, diags = ref_verify_file(project, file_id)
    return ok, diags.items


def assert_checks_match_reference(project, sim) -> list[tuple[bool, DiagnosticSet]]:
    """Every file's ``verify_file``, the ``goal_state`` at the first hole
    of each file that verifies, and ``verify_project``, against the checker
    that re-parses every file on every call; returns the file checks."""
    checks = []
    for file_id in project.files():
        ok, diags = sim.verify_file(project, file_id)
        assert (ok, diags.items) == ref_check(project, file_id), file_id
        checks.append((ok, diags))
        for hole in ref_find_hole_ranges(project.read(file_id))[: 1 if ok else 0]:
            goal = sim.goal_state(project, file_id, hole)
            got = None if goal is None else (goal.goal, goal.context)
            assert got == ref_goal_state(project, file_id, hole), (file_id, hole)
    ok, diags = sim.verify_project(project)
    every = DiagnosticSet.of(d for _, ds in checks for d in ds)
    assert (ok, diags.items) == (all(ok for ok, _ in checks), every.items)
    return checks


class TestLongLivedChecker:
    """One checker kept across in-place edits of an import graph: staged and
    committed, at the bottom of a chain, into and out of cycles. No file's
    kept analysis may answer for bytes that changed, anywhere in the graph."""

    def test_answers_match_the_reference_across_edits(self, project):
        rng = random.Random(1616)
        sim = SimulatedVerifier()
        n = 6
        imports = {k: [f"M{k - 1}"] if k else [] for k in range(n)}  # M0 <- M1 <- ... <- M5
        for k in range(n):
            project.write(f"M{k}.lean", random_module(rng, imports[k], decls=6))
        checks = []
        for _ in range(50):
            # most edits are at the bottom of the chain, below every other file
            k = rng.choice((0, 0, 1, rng.randrange(n)))
            file_id = f"M{k}.lean"
            roll = rng.random()
            if roll < 0.15:  # import a module at or above this one: a cycle
                imports[k] = imports[k] + [f"M{rng.randrange(k, n)}"]
            elif roll < 0.35:  # import only modules below: no cycle through here
                imports[k] = [m for m in imports[k] if int(m[1:]) < k]
            if rng.random() < 0.5:
                text = random_module(rng, imports[k], decls=rng.randint(0, 8))
            else:  # a small edit of the current text
                old, new = (f"T{rng.randrange(3)}" for _ in range(2))
                text = project.read(file_id).replace(old, new)
            how = rng.choice(("write", "stage", "stage_then_commit", "stage_then_discard"))
            if how == "write":
                project.write(file_id, text)
            else:
                project.stage(file_id, text)
            checks += assert_checks_match_reference(project, sim)
            if how == "stage_then_commit":
                project.commit()
            elif how == "stage_then_discard":
                project.discard()
            if how.startswith("stage_then"):
                checks += assert_checks_match_reference(project, sim)
        assert {ok for ok, _ in checks} == {True, False}
        assert any(d.message.startswith("import cycle") for _, diags in checks for d in diags)


def probe_section() -> str:
    """A 270-item section in the shape of the benchmark's probe file: a
    docstring, a declaration and a blank line per item, definitions
    alternating with theorems that use them."""
    items = []
    for k in range(270):
        if k % 2 == 0:
            decl = f"def probe{k} : P{k} := sorry"
        else:
            decl = f"theorem probe{k}Spec : P{k - 1} := by exact probe{k - 1}"
        items.append(f"/-- [{k + 1}] Item {k + 1} -/\n{decl}\n\n")
    return "".join(items)


def probe_chain(project: Project) -> list[str]:
    """``probe_section`` split at 40 lines into a chain of 21 parts, each
    importing the one before, and committed; returns the part files in
    chain order."""
    project.write("Probe.lean", probe_section())
    split_if_large_and_resolve(project, "Probe.lean", None, 40)
    project.commit()
    parts = [f for f in project.files() if f != "Probe.lean"]
    return sorted(parts, key=lambda f: int(f.removeprefix("Probe_part").removesuffix(".lean")))


class TestSplitChain:
    """Counts, not timings: a check of a chain's last part reads its
    imports' kept analyses, so it analyses no file it has analysed before."""

    def test_each_part_is_analysed_once_and_an_edit_only_where_it_is(
        self, tmp_path, monkeypatch
    ):
        parts = probe_chain(Project(tmp_path))
        assert len(parts) == 21
        analysed = []
        real = simlang._analyse
        monkeypatch.setattr(
            simlang, "_analyse", lambda text, *args: analysed.append(text) or real(text, *args)
        )
        project, sim = Project(tmp_path), SimulatedVerifier()
        ok, _ = sim.verify_project(project)
        assert ok and len(analysed) <= len(project.files()) == 22
        analysed.clear()
        assert sim.verify_project(project)[0] and analysed == []

        edited = project.read(parts[0]).replace(
            "def probe0 : P0 := sorry", "def probe0 : P0 := by sorry"
        )
        project.write(parts[0], edited)
        ok, diags = sim.verify_file(project, parts[-1])
        assert analysed == [edited]
        assert (ok, diags.items) == ref_check(project, parts[-1])

    def test_a_split_reads_no_unit_of_its_parts(self, tmp_path, monkeypatch):
        # every part's analysis comes from the section file's
        project = Project(tmp_path)
        project.write("Probe.lean", probe_section())
        project.analysis("Probe.lean")
        parsed = []
        parse = simlang._parse_declaration
        monkeypatch.setattr(
            simlang, "_parse_declaration", lambda *args: parsed.append(1) or parse(*args)
        )
        split_if_large_and_resolve(project, "Probe.lean", None, 40)
        parts = [f"Probe_part{k}.lean" for k in range(1, 22)]
        assert [len(project.analysis(p).declarations) for p in parts] == [13] * 20 + [10]
        assert parsed == []

    def test_the_first_patch_of_a_part_split_in_the_same_item_reads_one_unit(
        self, tmp_path, monkeypatch
    ):
        # the patch's analysis starts from the part's staged one, not afresh
        project = Project(tmp_path)
        project.write("Probe.lean", probe_section())
        task = stage2.ProofTask(index=201, label="Item 201")
        part = split_if_large_and_resolve(project, "Probe.lean", task, 40)
        assert part == "Probe_part16.lean"
        parsed = []
        parse = simlang._parse_declaration
        monkeypatch.setattr(
            simlang, "_parse_declaration", lambda *args: parsed.append(1) or parse(*args)
        )
        patched = project.read(part).replace("probe200 : P200 := sorry", "probe200 : P200 := p")
        project.stage(part, patched)
        analysis = project.analysis(part)
        assert 1 <= len(parsed) <= 2
        assert analysis == simlang._analyse(patched)


class TestSimulatedVerifyProject:
    def test_empty_project(self, project, sim):
        ok, diags = sim.verify_project(project)
        assert ok and len(diags) == 0

    def test_single_failing_file(self, project, sim):
        project.write("Good.lean", "def g : T := sorry\n")
        project.write("Bad.lean", "def b : T := ghost\n")
        ok, diags = sim.verify_project(project)
        assert not ok
        assert err_count(diags) == 1


class TestGoalState:
    def test_goal_and_context_at_hole(self, project, sim):
        project.write("A.lean", "def w : P := sorry\nlemma l : P := by sorry\n")
        hole = simlang.analyse(project.read("A.lean")).hole_ranges[1]
        goal = sim.goal_state(project, "A.lean", hole)
        assert goal is not None
        assert goal.goal == "P"
        assert ("w", "P") in goal.context

    def test_adapter_without_goal_support_yields_absent(self, project):
        ext = ExternalVerifier(command=["true"])
        verifier = Verifier(ext, EventSink())
        project.write("A.lean", "lemma l : P := by sorry\n")
        hole = simlang.analyse(project.read("A.lean")).hole_ranges[0]
        assert verifier.goal_state(project, "A.lean", hole) is None


class TestInstrumentedVerifier:
    def test_exactly_one_lean_check_event_per_call(self, project):
        sink = EventSink()
        verifier = Verifier(SimulatedVerifier(), metrics=sink)
        project.write("A.lean", "def a : T := sorry\n")
        verifier.verify_file(project, "A.lean")
        verifier.verify_file(project, "A.lean")
        assert sink.count("lean_check") == 2
        assert verifier.calls == 2

    def test_project_check_is_not_a_lean_check(self, project):
        sink = EventSink()
        verifier = Verifier(SimulatedVerifier(), metrics=sink)
        project.write("A.lean", "def a : T := sorry\n")
        verifier.verify_project(project)
        assert sink.count("lean_check") == 0
        assert sink.count("project_check") == 1

    def test_closing_check_lists_the_project_once(self, project, monkeypatch):
        sink = EventSink()
        verifier = Verifier(SimulatedVerifier(), metrics=sink)
        project.write("A.lean", "def a : T := sorry\n")
        project.write("B.lean", "def b : T := ghost\n")
        listings = []
        files = Project.files
        monkeypatch.setattr(Project, "files", lambda self: listings.append(1) or files(self))
        ok, _ = verifier.verify_project(project)
        assert not ok and len(listings) == 1
        assert sink.events[-1]["data"] == {"ok": False, "errors": 1, "files": 2}


DIAG_OUTPUT = """\
A.lean:3:4: error: unknown identifier 'foo'
  continuation detail
A.lean:10:0: warning: unused variable
build summary line
"""


class TestToolchainOutputParsing:
    def test_positions_and_severities(self):
        diags = parse_toolchain_output(DIAG_OUTPUT, "A.lean", 12)
        by_sev = {d.severity: d for d in diags}
        err = by_sev["error"]
        assert err.range.start_line == 2 and err.range.start_col == 4  # 1-based input line
        assert "unknown identifier" in err.message
        assert "continuation detail" in err.message

    def test_unparseable_lines_become_full_file_info(self):
        diags = parse_toolchain_output(DIAG_OUTPUT, "A.lean", 12)
        infos = [d for d in diags if d.severity == "info"]
        assert len(infos) == 1
        assert infos[0].message == "build summary line"
        assert infos[0].range.end_line == 12

    def test_empty_output(self):
        assert parse_toolchain_output("", "A.lean", 1) == DiagnosticSet()


def write_script(path, body: str) -> str:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


class TestExternalVerifier:
    def test_failed_check_parses_diagnostics(self, tmp_path, project):
        project.write("A.lean", "def a : T := ghost\n")
        script = write_script(
            tmp_path / "check.sh",
            'echo "$1:1:13: error: unknown identifier ghost"\nexit 1\n',
        )
        ext = ExternalVerifier(command=[script, "{file}"])
        ok, diags = ext.verify_file(project, "A.lean")
        assert not ok
        assert err_count(diags) == 1
        assert diags.errors()[0].range.start_line == 0

    def test_clean_check(self, tmp_path, project):
        project.write("A.lean", "def a : T := sorry\n")
        script = write_script(tmp_path / "ok.sh", "exit 0\n")
        ext = ExternalVerifier(command=[script, "{file}"])
        ok, diags = ext.verify_file(project, "A.lean")
        assert ok and len(diags) == 0

    def test_nonzero_exit_without_errors_synthesizes_one(self, tmp_path, project):
        project.write("A.lean", "def a : T := sorry\n")
        script = write_script(tmp_path / "die.sh", "echo crashed unexpectedly\nexit 2\n")
        ext = ExternalVerifier(command=[script, "{file}"])
        ok, diags = ext.verify_file(project, "A.lean")
        assert not ok
        assert err_count(diags) == 1
        assert any("status 2" in d.message for d in diags.errors())

    def test_output_that_is_not_utf8_is_read_with_replacement(self, tmp_path, project):
        project.write("A.lean", "def a : T := ghost\n")
        script = write_script(
            tmp_path / "check.sh", "printf '%s:1:13: error: bad \\377 byte\\n' \"$1\"\nexit 1\n"
        )
        ok, diags = ExternalVerifier(command=[script, "{file}"]).verify_file(project, "A.lean")
        assert not ok
        assert [d.message for d in diags.errors()] == ["bad \ufffd byte"]

    def test_launch_failure_is_distinguished(self, project):
        project.write("A.lean", "def a : T := sorry\n")
        ext = ExternalVerifier(command=["/nonexistent/toolchain", "{file}"])
        with pytest.raises(VerifierLaunchError):
            ext.verify_file(project, "A.lean")

    def test_command_template_expansion(self, tmp_path, project):
        project.write("Sub/A.lean", "def a : T := sorry\n")
        out = tmp_path / "argv.txt"
        script = write_script(tmp_path / "dump.sh", f'echo "$@" > {out}\nexit 0\n')
        ext = ExternalVerifier(command=[script, "{file}", "{root}"])
        ext.verify_file(project, "Sub/A.lean")
        recorded = out.read_text().split()
        assert recorded[0] == "Sub/A.lean"
        assert recorded[1] == str(project.root)

    def test_a_relative_root_expands_to_paths_the_tool_can_open(self, tmp_path, monkeypatch):
        """The tool runs in the root, so ``{abs_file}`` and ``{root}`` must
        not be relative to where the project was named."""
        monkeypatch.chdir(tmp_path)
        project = Project("proj")
        project.write("A.lean", "def a : T := sorry\n")
        opener = "import os, sys; open(sys.argv[1]); assert os.path.isdir(sys.argv[2])"
        ext = ExternalVerifier(command=[sys.executable, "-c", opener, "{abs_file}", "{root}"])
        ok, diags = ext.verify_file(project, "A.lean")
        assert ok and len(diags) == 0
        assert project.root.is_absolute() and project.root.samefile(tmp_path / "proj")
        assert project.files() == ["A.lean"]

    def test_project_command(self, tmp_path, project):
        project.write("A.lean", "def a : T := sorry\n")
        script = write_script(tmp_path / "build.sh", "exit 0\n")
        ext = ExternalVerifier(command=["true"], project_command=[script])
        ok, _ = ext.verify_project(project)
        assert ok
