from __future__ import annotations

import random
import stat

import pytest

from autoform import simlang
from autoform.diagnostics import DiagnosticSet, SourceRange, err_count
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

    def test_external_modules_are_tolerated_when_configured(self, project):
        sim = SimulatedVerifier(external_modules=frozenset({"Mathlib"}))
        project.write("A.lean", "import Mathlib\ndef a : T := sorry\n")
        ok, _ = sim.verify_file(project, "A.lean")
        assert ok

    def test_missing_file(self, project, sim):
        ok, diags = sim.verify_file(project, "Ghost.lean")
        assert not ok and err_count(diags) == 1


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
    """verify_file and goal_state over the memoised analysis against the
    checker that re-parsed every file on every call."""

    def test_multi_file_projects_with_import_chains(self, project, sim):
        rng = random.Random(2026)
        verdicts, goals = set(), set()
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
                    text = project.read(file_id)
                    for hole in ref_find_hole_ranges(text):
                        goal = sim.goal_state(project, file_id, hole)
                        got = None if goal is None else (goal.goal, goal.context)
                        assert got == ref_goal_state(project, file_id, hole)
                        goals.add(got is None)
                # edit an imported module in place: importers must see the edit
                victim = rng.choice(file_ids)
                project.write(victim, project.read(victim).replace("T1", "T2"))
        assert verdicts == goals == {True, False}

    def test_goal_state_is_absent_for_a_missing_file(self, project, sim):
        assert sim.goal_state(project, "Ghost.lean", SourceRange(0, 0, 0, 1)) is None


class TestAnalysisReuse:
    def test_verify_scans_each_content_once(self, project, monkeypatch):
        scans = []
        scan = simlang.noncode_spans
        monkeypatch.setattr(simlang, "noncode_spans", lambda text: scans.append(1) or scan(text))
        simlang._memo.cache_clear()
        text = "".join(
            f"/-- [{k}] Item {k} -/\ndef d{k} : T := sorry\n\n" for k in range(400)
        )
        project.write("Big.lean", text)
        verifier = Verifier(SimulatedVerifier())
        ok, _ = verifier.verify_file(project, "Big.lean")
        assert ok and len(scans) == 1
        verifier.verify_file(project, "Big.lean")
        hole = simlang.find_hole_ranges(project.read("Big.lean"))[-1]
        assert verifier.goal_state(project, "Big.lean", hole).goal == "T"
        assert len(scans) == 1
        project.write("Big.lean", text + "def e : T := sorry\n")
        verifier.verify_file(project, "Big.lean")
        assert len(scans) == 2

    def test_memo_never_exceeds_its_bound(self):
        simlang._memo.cache_clear()
        for k in range(3 * simlang.ANALYSIS_MEMO_SIZE):
            simlang.analyse(f"def d{k} : T := sorry\n")
            assert simlang._memo.cache_info().currsize <= simlang.ANALYSIS_MEMO_SIZE
        assert simlang._memo.cache_info().currsize == simlang.ANALYSIS_MEMO_SIZE


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
    def test_absent_when_file_has_errors(self, project, sim):
        project.write("A.lean", "lemma l : P := by sorry\ndef bad : T := ghost\n")
        from autoform.simlang import find_hole_ranges

        hole = find_hole_ranges(project.read("A.lean"))[0]
        assert sim.goal_state(project, "A.lean", hole) is None

    def test_goal_and_context_at_hole(self, project, sim):
        project.write("A.lean", "def w : P := sorry\nlemma l : P := by sorry\n")
        from autoform.simlang import find_hole_ranges

        hole = find_hole_ranges(project.read("A.lean"))[1]
        goal = sim.goal_state(project, "A.lean", hole)
        assert goal is not None
        assert goal.goal == "P"
        assert ("w", "P") in goal.context

    def test_adapter_without_goal_support_yields_absent(self, project):
        ext = ExternalVerifier(command=["true"])
        verifier = Verifier(ext)
        project.write("A.lean", "lemma l : P := by sorry\n")
        from autoform.simlang import find_hole_ranges

        hole = find_hole_ranges(project.read("A.lean"))[0]
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

    def test_project_command(self, tmp_path, project):
        project.write("A.lean", "def a : T := sorry\n")
        script = write_script(tmp_path / "build.sh", "exit 0\n")
        ext = ExternalVerifier(command=["true"], project_command=[script])
        ok, _ = ext.verify_project(project)
        assert ok
