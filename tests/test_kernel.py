from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, strategies as st

from autoform import simlang
from autoform.diagnostics import (
    Diagnostic,
    DiagnosticSet,
    Scope,
    SourceRange,
    apply_replacement,
    err_count,
    localize,
)
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
    _write_file,
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
        assert stage2_objective(DiagnosticSet(), simlang.analyse(text)) == pair(0, 3)

    def test_stage2_erroring_file_zero_holes(self):
        ds = DiagnosticSet.of([Diagnostic(SourceRange(0, 0, 0, 1), "error", "x")])
        assert stage2_objective(ds, simlang.analyse("def a : T := ghost\n")) == pair(1, 0)


def make_verifier(sink=None):
    return Verifier(SimulatedVerifier(), sink or EventSink())


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
    """A restore puts back the pre-attempt view and checks that the disk
    holds the committed bytes, writing them back where a sync replaced
    them."""

    def test_restore_is_byte_exact(self, project):
        project.write_bytes("A.lean", b"original\r\n")
        snap = Snapshot.capture(project, "A.lean")
        project.stage("A.lean", "mutated\n")
        project.sync()
        snap.restore(project)
        assert (project.root / "A.lean").read_bytes() == b"original\r\n"
        assert project.read("A.lean") == "original\n"

    def test_restore_puts_back_the_items_earlier_edit(self, project):
        project.write("A.lean", "original\n")
        project.stage("A.lean", "item edit\r\n")
        snap = Snapshot.capture(project, "A.lean")
        project.stage("A.lean", "candidate\n")
        project.sync()
        snap.restore(project)
        assert project.read_bytes("A.lean") == b"item edit\r\n"
        assert (project.root / "A.lean").read_bytes() == b"original\n"

    def test_missing_file_snapshot_restores_to_absent(self, project):
        snap = Snapshot.capture(project, "new/Ghost.lean")
        project.stage("new/Ghost.lean", "now exists\n")
        project.sync()
        assert (project.root / "new" / "Ghost.lean").exists()
        snap.restore(project)
        assert not project.exists("new/Ghost.lean")
        assert not (project.root / "new" / "Ghost.lean").exists()

    def test_restore_failure_detected(self, project, monkeypatch):
        project.write("A.lean", "original\n")
        snap = Snapshot.capture(project, "A.lean")
        project.stage("A.lean", "mutated\n")
        project.sync()
        monkeypatch.setattr("autoform.verifier._write_file", lambda path, data: None)
        with pytest.raises(SnapshotRestoreError):
            snap.restore(project)

    def test_restore_check_reads_the_disk_not_the_cache(self, project, monkeypatch):
        project.write("A.lean", "original\n")
        snap = Snapshot.capture(project, "A.lean")
        project.stage("A.lean", "mutated\n")
        project.sync()
        # the project caches the full bytes while the disk gets a torn write
        monkeypatch.setattr(
            "autoform.verifier._write_file", lambda path, data: _write_file(path, data[:-1])
        )
        with pytest.raises(SnapshotRestoreError):
            snap.restore(project)
        assert project.read("A.lean") == "original"  # what the disk holds


class TestVerifierFailure:
    def test_launch_error_restores_the_pre_attempt_bytes(self, project, tmp_path):
        text = "def a : T := ghost\r\ndef b : U := sorry\n"
        project.write_bytes("A.lean", text.encode())
        before = (project.root / "A.lean").read_bytes()
        _, diags = make_verifier().verify_file(project, "A.lean")
        adapter = ExternalVerifier([str(tmp_path / "no-such-verifier"), "{file}"])
        broken = Verifier(adapter, EventSink())
        scope = Scope.of(SourceRange.whole_lines(0, 0))
        patch = PatchProposal(file="A.lean", scope=scope, replacement="def a : T := sorry")
        for stage in (1, 2):
            with pytest.raises(VerifierLaunchError):
                try_patch(stage, project, "A.lean", whole_file_scope(text), patch, diags, broken)
            assert (project.root / "A.lean").read_bytes() == before
            assert project.read_bytes("A.lean") == before
            assert project.read("A.lean") == before.decode().replace("\r\n", "\n")


class DiskSpy:
    """``SimulatedVerifier`` that records, inside every check, what the disk
    holds for the file under check (None when absent)."""

    def __init__(self):
        self.inner = SimulatedVerifier()
        self.seen: list[bytes | None] = []

    def verify_file(self, project, file_id):
        path = project.root / file_id
        self.seen.append(path.read_bytes() if path.is_file() else None)
        return self.inner.verify_file(project, file_id)


# tool for ExternalVerifier: copies the file it checks to seen.bin, and
# reports an error when the file contains "ghost"
MARKER_CHECK = """
import sys
data = open(sys.argv[1], "rb").read()
open(sys.argv[2], "wb").write(data)
if b"ghost" in data:
    print(sys.argv[1] + ":1:0: error: ghost")
    sys.exit(1)
"""


ERRING = "def a : T := ghost\n"
HOLED = "def w : P := sorry\nlemma l : P := by sorry\n"
NEW = "new/dir/N.lean"  # absent, in a directory that does not exist
LINE0 = SourceRange.whole_lines(0, 0)
HOLE = SourceRange(1, 18, 1, 23)  # the "sorry" of lemma l in HOLED


class TestStagedCandidates:
    """The candidate is checked from memory; the disk changes only on accept."""

    @pytest.mark.parametrize(
        "stage, file_id, text, rng, replacement, accepted",
        [
            pytest.param(1, "A.lean", ERRING, LINE0, "def a : T := sorry", True, id="1-accept"),
            pytest.param(1, "A.lean", ERRING, LINE0, "def a : T := phantom", False, id="1-reject"),
            pytest.param(1, NEW, None, LINE0, "def n : T := sorry\n", True, id="1-accept-new"),
            pytest.param(1, NEW, None, LINE0, "def n : T := ghost\n", False, id="1-reject-new"),
            pytest.param(2, "A.lean", HOLED, HOLE, "exact w", True, id="2-accept"),
            pytest.param(2, "A.lean", HOLED, HOLE, "ghost", False, id="2-reject"),
        ],
    )
    def test_disk_holds_the_pre_attempt_bytes_during_the_check(
        self, project, stage, file_id, text, rng, replacement, accepted
    ):
        if text is not None:
            project.write(file_id, text)
        before = text.encode() if text is not None else None
        spy = DiskSpy()
        verifier = Verifier(spy, EventSink())
        _, diags = verifier.verify_file(project, file_id)
        patch = PatchProposal(file=file_id, scope=Scope.of(rng), replacement=replacement)
        scope = whole_file_scope(text or "")
        outcome = try_patch(stage, project, file_id, scope, patch, diags, verifier)
        assert outcome.accepted == accepted
        assert spy.seen == [before, before]  # the initial check, then the attempt's
        path = project.root / file_id
        on_disk = path.read_bytes() if path.is_file() else None
        assert on_disk == before  # an accepted candidate stays staged until the commit
        project.commit()
        if accepted:
            candidate = apply_replacement(text or "", rng, replacement).encode()
            assert path.read_bytes() == candidate == project.read_bytes(file_id)
        elif before is None:
            assert not path.exists() and not project.exists(file_id)
        else:
            assert path.read_bytes() == before == project.read_bytes(file_id)

    def test_external_tool_checks_the_staged_candidate(self, project, tmp_path):
        tool = tmp_path / "check.py"
        tool.write_text(MARKER_CHECK)
        seen = tmp_path / "seen.bin"
        ext = ExternalVerifier([sys.executable, str(tool), "{file}", str(seen)])
        verifier = Verifier(ext, EventSink())
        text = HOLED
        project.write("A.lean", text)
        before = text.encode()
        ok, diags = verifier.verify_file(project, "A.lean")
        assert ok
        scope = whole_file_scope(text)

        rejected = PatchProposal(file="A.lean", scope=Scope.of(HOLE), replacement="ghost")
        outcome = try_patch(2, project, "A.lean", scope, rejected, diags, verifier)
        assert not outcome.accepted
        assert seen.read_bytes() == apply_replacement(text, HOLE, "ghost").encode()
        assert (project.root / "A.lean").read_bytes() == before == project.read_bytes("A.lean")
        assert project.read("A.lean") == text

        accepted = PatchProposal(file="A.lean", scope=Scope.of(HOLE), replacement="exact w")
        outcome = try_patch(2, project, "A.lean", scope, accepted, diags, verifier)
        assert outcome.accepted
        candidate = apply_replacement(text, HOLE, "exact w")
        assert seen.read_bytes() == candidate.encode()
        project.commit()
        assert (project.root / "A.lean").read_bytes() == candidate.encode()
        assert project.read_bytes("A.lean") == candidate.encode()
        assert project.read("A.lean") == candidate

    def test_external_tool_writes_each_accept_once_and_the_commit_no_more(
        self, project, tmp_path, monkeypatch
    ):
        tool = tmp_path / "check.py"
        tool.write_text(MARKER_CHECK)
        seen = str(tmp_path / "seen.bin")
        adapter = ExternalVerifier([sys.executable, str(tool), "{file}", seen])
        verifier = Verifier(adapter, EventSink())
        text = "def w : P := sorry\nlemma l : P := by sorry\nlemma m : P := by sorry\n"
        project.write("A.lean", text)
        _, diags = verifier.verify_file(project, "A.lean")
        writes = []

        def counting(path, data):
            writes.append(data)
            return _write_file(path, data)

        monkeypatch.setattr("autoform.verifier._write_file", counting)
        for line in (1, 2):  # k = 2 accepted attempts: one sync write each
            scope = Scope.of(SourceRange(line, 18, line, 23))
            patch = PatchProposal(file="A.lean", scope=scope, replacement="exact w")
            outcome = try_patch(2, project, "A.lean", whole_file_scope(text), patch, diags, verifier)
            assert outcome.accepted
            diags = outcome.diagnostics_after
        assert len(writes) == 2
        project.commit()  # the last sync already put the staged bytes on disk
        assert len(writes) == 2 and writes[-1] == project.read_bytes("A.lean")
        assert (project.root / "A.lean").read_bytes() == project.read_bytes("A.lean")

        writes.clear()  # a rejected attempt: its sync write, then the restore write
        scope = Scope.of(SourceRange(0, 13, 0, 18))
        patch = PatchProposal(file="A.lean", scope=scope, replacement="ghost")
        assert not try_patch(2, project, "A.lean", scope, patch, diags, verifier).accepted
        assert len(writes) == 2 and writes[-1] == project.read_bytes("A.lean")


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
        header = header_scope(simlang.analyse(text))
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
