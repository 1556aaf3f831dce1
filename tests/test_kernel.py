from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from autoform.diagnostics import Diagnostic, DiagnosticSet, Scope, SourceRange, err_count, localize
from autoform.kernel import (
    AttemptOutcome,
    ObjectivePair,
    PatchOutOfScopeError,
    PatchProposal,
    Snapshot,
    SnapshotRestoreError,
    expand_scope,
    prec,
    stage1_objective,
    stage2_objective,
    try_patch,
)
from autoform.verifier import (
    ExternalVerifier,
    SimulatedVerifier,
    Verifier,
    VerifierLaunchError,
    header_scope,
)

from helpers import EventSink


def pair(a, b):
    return ObjectivePair(a, b)


class TestPriorityOrder:
    def test_primary_dominates(self):
        assert prec(pair(0, 9), pair(1, 0))

    def test_secondary_breaks_ties(self):
        assert prec(pair(1, 2), pair(1, 3))

    def test_strictness(self):
        assert not prec(pair(1, 2), pair(1, 2))

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            ObjectivePair(-1, 0)

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
    def test_matches_tuple_order(self, a, b, c, d):
        assert prec(pair(a, b), pair(c, d)) == ((a, b) < (c, d))


ranges = st.builds(
    lambda a, b: SourceRange(min(a, b)[0], min(a, b)[1], max(a, b)[0], max(a, b)[1]),
    st.tuples(st.integers(0, 20), st.integers(0, 6)),
    st.tuples(st.integers(0, 20), st.integers(0, 6)),
)
diag_sets = st.lists(
    st.builds(Diagnostic, ranges, st.sampled_from(["error", "warning", "info"]), st.just("m")),
    max_size=12,
).map(DiagnosticSet.of)
scopes = st.lists(ranges, max_size=3).map(lambda rs: Scope(tuple(rs)))


class TestObjectives:
    def test_stage1_empty(self):
        assert stage1_objective(DiagnosticSet(), Scope()) == pair(0, 0)

    def test_stage1_two_errors_one_in_scope(self):
        ds = DiagnosticSet.of(
            [
                Diagnostic(SourceRange(1, 0, 1, 5), "error", "in"),
                Diagnostic(SourceRange(50, 0, 50, 5), "error", "out"),
            ]
        )
        scope = Scope.of(SourceRange.whole_lines(0, 10))
        assert stage1_objective(ds, scope) == pair(2, 1)

    @given(diag_sets, scopes)
    def test_stage1_matches_composed_oracle(self, ds, scope):
        got = stage1_objective(ds, scope)
        assert got.primary == err_count(ds)
        assert got.secondary == err_count(localize(ds, scope))

    def test_stage2_clean_file_three_holes(self):
        text = "def a : T := sorry\ndef b : U := sorry\ntheorem t : P := by sorry\n"
        assert stage2_objective(DiagnosticSet(), text) == pair(0, 3)

    def test_stage2_erroring_file_zero_holes(self):
        ds = DiagnosticSet.of([Diagnostic(SourceRange(0, 0, 0, 1), "error", "x")])
        assert stage2_objective(ds, "def a : T := ghost\n") == pair(1, 0)


def make_verifier(sink=None):
    return Verifier(SimulatedVerifier(), metrics=sink)


def whole_file_scope(text: str) -> Scope:
    return Scope.of(SourceRange.whole_lines(0, text.count("\n") + 1))


class TestTryPatch:
    def setup_file(self, project, text):
        project.write("A.lean", text)
        verifier = make_verifier()
        _, diags = verifier.verify_file(project, "A.lean")
        return verifier, diags

    def patch(self, rng, replacement):
        return PatchProposal(file="A.lean", scope=Scope.of(rng), replacement=replacement)

    def test_accept_on_primary_improvement(self, project):
        text = "def a : T := ghost\ndef b : U := phantom\n"
        verifier, diags = self.setup_file(project, text)
        assert err_count(diags) == 2
        outcome = try_patch(
            1,
            project,
            "A.lean",
            whole_file_scope(text),
            self.patch(SourceRange.whole_lines(0, 0), "def a : T := sorry"),
            diags,
            verifier,
        )
        assert outcome.accepted
        assert outcome.before.primary == 2 and outcome.after.primary == 1
        assert err_count(outcome.diagnostics_after) == 1

    def test_accept_on_secondary_improvement_at_equal_primary(self, project):
        # errors 1 -> 1 but the localized count drops 1 -> 0
        text = "def a : T := ghost\ndef b : U := phantom\n"
        verifier, diags = self.setup_file(project, text)
        scope = Scope.of(SourceRange.whole_lines(0, 0))
        outcome = try_patch(
            1,
            project,
            "A.lean",
            scope,
            self.patch(SourceRange.whole_lines(0, 0), "def a : T := sorry\n"),
            diags,
            verifier,
        )
        assert outcome.accepted
        assert outcome.before == pair(2, 1)
        assert outcome.after == pair(1, 0)

    def test_stage2_never_trades_errors_for_holes(self, project):
        # E: 0 -> 1 while H: 3 -> 2 must be rejected and rolled back
        text = "def a : T := sorry\ndef b : U := sorry\ntheorem t : P := by sorry\n"
        verifier, diags = self.setup_file(project, text)
        snap = Snapshot.capture(project, "A.lean")
        outcome = try_patch(
            2,
            project,
            "A.lean",
            whole_file_scope(text),
            self.patch(SourceRange.whole_lines(2, 2), "theorem t : P := ghost"),
            diags,
            verifier,
        )
        assert not outcome.accepted
        assert outcome.after.primary == 1 and outcome.after.secondary == 2
        assert snap.matches(project)
        assert outcome.diagnostics_after == diags

    def test_tie_is_rejected(self, project):
        text = "theorem t : P := by sorry\n"
        verifier, diags = self.setup_file(project, text)
        snap = Snapshot.capture(project, "A.lean")
        outcome = try_patch(
            2,
            project,
            "A.lean",
            whole_file_scope(text),
            self.patch(SourceRange(0, 20, 0, 25), "sorry"),
            diags,
            verifier,
        )
        assert not outcome.accepted
        assert snap.matches(project)

    def test_stage2_accepts_hole_closure(self, project):
        text = "def w : P := sorry\nlemma l : P := by sorry\n"
        verifier, diags = self.setup_file(project, text)
        outcome = try_patch(
            2,
            project,
            "A.lean",
            whole_file_scope(text),
            self.patch(SourceRange(1, 18, 1, 23), "exact w"),
            diags,
            verifier,
        )
        assert outcome.accepted
        assert outcome.before.secondary == 2 and outcome.after.secondary == 1

    def test_patch_file_mismatch_rejected(self, project):
        text = "def a : T := sorry\n"
        verifier, diags = self.setup_file(project, text)
        bad = PatchProposal(file="B.lean", scope=Scope.of(SourceRange(0, 0, 0, 1)), replacement="")
        with pytest.raises(ValueError, match="does not match"):
            try_patch(1, project, "A.lean", whole_file_scope(text), bad, diags, verifier)

    def test_out_of_scope_rejected_before_application(self, project):
        text = "def a : T := ghost\ndef b : U := sorry\n"
        sink = EventSink()
        project.write("A.lean", text)
        verifier = make_verifier(sink)
        _, diags = verifier.verify_file(project, "A.lean")
        checks_before = verifier.calls
        scope = Scope.of(SourceRange.whole_lines(0, 0))
        with pytest.raises(PatchOutOfScopeError):
            try_patch(
                1,
                project,
                "A.lean",
                scope,
                self.patch(SourceRange.whole_lines(1, 1), "def b : U := sorry"),
                diags,
                verifier,
            )
        assert verifier.calls == checks_before  # no verifier call was spent
        assert project.read("A.lean") == text

    def test_multi_range_patch_scope_rejected(self, project):
        text = "def a : T := ghost\n"
        verifier, diags = self.setup_file(project, text)
        bad = PatchProposal(
            file="A.lean",
            scope=Scope.of(SourceRange(0, 0, 0, 1), SourceRange(0, 5, 0, 6)),
            replacement="x",
        )
        with pytest.raises(PatchOutOfScopeError, match="contiguous"):
            try_patch(1, project, "A.lean", whole_file_scope(text), bad, diags, verifier)

    def test_exactly_one_verifier_call_per_attempt(self, project):
        text = "def a : T := ghost\n"
        sink = EventSink()
        project.write("A.lean", text)
        verifier = make_verifier(sink)
        _, diags = verifier.verify_file(project, "A.lean")
        try_patch(
            1,
            project,
            "A.lean",
            whole_file_scope(text),
            self.patch(SourceRange.whole_lines(0, 0), "def a : T := sorry"),
            diags,
            verifier,
        )
        assert sink.count("lean_check") == 2  # initial + the attempt


class TestSnapshot:
    def test_restore_is_byte_exact(self, project):
        project.write("A.lean", "original\n")
        snap = Snapshot.capture(project, "A.lean")
        project.write("A.lean", "mutated\n")
        snap.restore(project)
        assert project.read("A.lean") == "original\n"

    def test_missing_file_snapshot_restores_to_absent(self, project):
        snap = Snapshot.capture(project, "Ghost.lean")
        project.write("Ghost.lean", "now exists\n")
        snap.restore(project)
        assert not project.exists("Ghost.lean")

    def test_restore_failure_detected(self, project, monkeypatch):
        project.write("A.lean", "original\n")
        snap = Snapshot.capture(project, "A.lean")
        project.write("A.lean", "mutated\n")
        monkeypatch.setattr(
            type(project), "write_bytes", lambda self, f, d: None
        )
        with pytest.raises(SnapshotRestoreError):
            snap.restore(project)

    def test_restore_check_reads_the_disk_not_the_cache(self, project, monkeypatch):
        project.write("A.lean", "original\n")
        snap = Snapshot.capture(project, "A.lean")
        project.write("A.lean", "mutated\n")
        real = Path.write_bytes
        # the project caches the full bytes while the disk gets a torn write
        monkeypatch.setattr(Path, "write_bytes", lambda self, data: real(self, data[:-1]))
        with pytest.raises(SnapshotRestoreError):
            snap.restore(project)
        assert project.read("A.lean") == "original"  # what the disk holds


class TestVerifierFailure:
    def test_launch_error_restores_the_pre_attempt_bytes(self, project, tmp_path):
        text = "def a : T := ghost\r\ndef b : U := sorry\n"
        project.write_bytes("A.lean", text.encode())
        before = (project.root / "A.lean").read_bytes()
        _, diags = make_verifier().verify_file(project, "A.lean")
        broken = Verifier(ExternalVerifier([str(tmp_path / "no-such-verifier"), "{file}"]))
        scope = Scope.of(SourceRange.whole_lines(0, 0))
        patch = PatchProposal(file="A.lean", scope=scope, replacement="def a : T := sorry")
        for stage in (1, 2):
            with pytest.raises(VerifierLaunchError):
                try_patch(stage, project, "A.lean", whole_file_scope(text), patch, diags, broken)
            assert (project.root / "A.lean").read_bytes() == before
            assert project.read_bytes("A.lean") == before
            assert project.read("A.lean") == before.decode().replace("\r\n", "\n")


class TestExpandScope:
    def fixture(self):
        # theorem-kind hole bodies produce no diagnostics, so the test scope
        # localizes nothing while the lone error sits far outside it
        lines = ["theorem filler%d : T := by sorry" % i for i in range(45)]
        lines[40] = "def broken : T := ghost"
        text = "import Base\n" + "\n".join(lines) + "\n"
        return text

    def test_gains_nearest_error_and_header(self, project):
        project.write("Base.lean", "def base : B := sorry\n")
        text = self.fixture()
        project.write("A.lean", text)
        verifier = make_verifier()
        _, diags = verifier.verify_file(project, "A.lean")
        scope = Scope.of(SourceRange.whole_lines(5, 10))
        assert len(localize(diags, scope)) == 0  # precondition: nothing localizes
        header = header_scope(text)
        grown = expand_scope(scope, diags, header)
        assert len(localize(diags, grown)) > 0
        assert any(r.start_line == 0 for r in grown.ranges)  # header joined

    def test_no_errors_leaves_scope_unchanged(self):
        scope = Scope.of(SourceRange.whole_lines(2, 4))
        assert expand_scope(scope, DiagnosticSet(), Scope()) == scope

    def test_nearest_by_line_distance(self):
        scope = Scope.of(SourceRange.whole_lines(10, 12))
        near = Diagnostic(SourceRange.whole_lines(15, 15), "error", "near")
        far = Diagnostic(SourceRange.whole_lines(40, 40), "error", "far")
        grown = expand_scope(scope, DiagnosticSet.of([far, near]), Scope())
        assert grown.intersects(near.range)
        assert not grown.intersects(far.range)


class TestRandomizedAcceptContract:
    """Seeded mini version of the acceptance monotonicity/rollback suite."""

    def test_contract_holds_over_random_attempts(self, project):
        rng = random.Random(7)
        verifier = make_verifier()
        violations = []
        for trial in range(40):
            file_id = f"R{trial}.lean"
            names = [f"n{trial}_{i}" for i in range(4)]
            lines = []
            for i, name in enumerate(names):
                body = rng.choice(["sorry", "ghost", names[0] if i else "sorry"])
                lines.append(f"def {name} : T{i % 2} := {body}")
            text = "\n".join(lines) + "\n"
            project.write(file_id, text)
            _, diags = verifier.verify_file(project, file_id)
            for _ in range(6):
                stage = rng.choice([1, 2])
                line = rng.randrange(len(names))
                scope = Scope.of(SourceRange.whole_lines(line, line))
                replacement = rng.choice(
                    [
                        f"def {names[line]} : T{line % 2} := sorry",
                        f"def {names[line]} : T{line % 2} := ghost",
                        f"def {names[line]} : T{line % 2} := {rng.choice(names)}",
                        "complete garbage ::",
                    ]
                )
                snap = Snapshot.capture(project, file_id)
                patch = PatchProposal(file=file_id, scope=scope, replacement=replacement)
                outcome = try_patch(stage, project, file_id, scope, patch, diags, verifier)
                if outcome.accepted:
                    if not prec(outcome.after, outcome.before):
                        violations.append((trial, "not strict"))
                    if outcome.after.primary > outcome.before.primary:
                        violations.append((trial, "errors grew"))
                else:
                    if not snap.matches(project):
                        violations.append((trial, "rollback broke bytes"))
                diags = outcome.diagnostics_after
        assert violations == []
