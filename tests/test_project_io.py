"""Project's write-through content cache, its staged candidates, and the
kept-open stream handles.

The cache is checked against a cold ``Project`` on the same root and
against the disk itself after every operation of random sequences, kernel
attempts included, so no staged candidate outlives its attempt; the I/O
savings are checked as counts of ``open`` calls, never as timings.
"""

from __future__ import annotations

import builtins
import io
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from autoform.diagnostics import Diagnostic, DiagnosticSet, Scope, SourceRange
from autoform.instrumentation import HistoryRecord, HistoryStore, MetricsWriter, read_events
from autoform.kernel import PatchProposal, try_patch
from autoform.verifier import (
    ExternalVerifier,
    Project,
    SimulatedVerifier,
    Verifier,
    VerifierLaunchError,
)

FILES = ("A.lean", "sub/B.lean", "sub/deep/C.lean", "other/D.lean")
CONTENTS = (
    "",
    "def a : T := sorry\n",
    "x\r\ny\r\n",
    "lone\rcr",
    "\r",
    "mixed\r\n\rend\n",
    "ünï ∀ x → y\n",
    "no newline at end",
)
OPS = (
    "write",
    "write_bytes",
    "delete",
    "ensure",
    "read",
    "read_bytes",
    "exists",
    "files",
    "patch_accepted",
    "patch_rejected",
    "patch_raises",
)
FIRST_LINE = SourceRange.whole_lines(0, 0)
LINE_ERROR = DiagnosticSet.of([Diagnostic(FIRST_LINE, "error", "e")])


class VerdictAdapter:
    """Adapter whose verdict is fixed: one error on the first line, none, or
    a launch error. It reads the file under check, as a checker would."""

    def __init__(self, verdict: str):
        self.verdict = verdict

    def verify_file(self, project, file_id):
        project.read(file_id)
        if self.verdict == "raises":
            raise VerifierLaunchError("no toolchain")
        return (self.verdict == "ok", DiagnosticSet() if self.verdict == "ok" else LINE_ERROR)


def patch_attempt(project: Project, op: str, file_id: str, content: str) -> None:
    """A stage-1 attempt that replaces the first line with ``content``. The
    adapter decides: accepted (an error goes away), rejected (one appears)
    or raising."""
    verdict = {"patch_accepted": "ok", "patch_rejected": "error", "patch_raises": "raises"}[op]
    before = LINE_ERROR if verdict == "ok" else DiagnosticSet()
    scope = Scope.of(FIRST_LINE)
    patch = PatchProposal(file=file_id, scope=scope, replacement=content)
    verifier = Verifier(VerdictAdapter(verdict))
    outcome = try_patch(1, project, file_id, scope, patch, before, verifier)
    assert outcome.accepted == (verdict == "ok")


def _answer(fn, *args):
    try:
        return ("ok", fn(*args))
    except (OSError, UnicodeDecodeError) as exc:
        return ("raises", type(exc).__name__)


def observe(project: Project) -> dict:
    """Every answer the project gives about FILES, plus its file listing."""
    out = {"files": project.files()}
    for f in FILES:
        out[f] = (
            project.exists(f),
            _answer(project.read, f),
            _answer(project.read_bytes, f),
        )
    return out


def disk(root: Path) -> dict:
    """The same answers straight from the file system, the way Project
    answered them before it had a cache."""
    out = {"files": sorted(str(p.relative_to(root)) for p in root.rglob("*.lean") if p.is_file())}
    for f in FILES:
        p = root / f
        out[f] = (
            p.is_file(),
            _answer(lambda: p.read_text(encoding="utf-8")),
            _answer(p.read_bytes),
        )
    return out


def apply(project: Project, op: str, file_id: str, content: str, raw: bytes) -> None:
    if op == "write":
        project.write(file_id, content)
    elif op == "write_bytes":
        project.write_bytes(file_id, raw)
    elif op == "delete":
        project.delete(file_id)
    elif op == "ensure":
        project.ensure(file_id)
    elif op == "files":
        project.files()
    elif op == "exists":
        project.exists(file_id)
    elif op.startswith("patch_"):
        try:
            patch_attempt(project, op, file_id, content)
        except (UnicodeDecodeError, VerifierLaunchError):
            pass
    else:
        _answer(getattr(project, op), file_id)


def check_sequence(root: Path, steps) -> None:
    project = Project(root)
    for step in steps:
        apply(project, *step)
        cached = observe(project)
        assert cached == observe(Project(root)), step
        assert cached == disk(root), step


class TestProjectCache:
    def test_seeded_sequences_match_a_cold_project_and_the_disk(self, tmp_path):
        rng = random.Random(3)
        raws = [c.encode("utf-8") for c in CONTENTS] + [b"\xff\xfe bad utf-8", b"\r\n\r"]
        for trial in range(12):
            steps = [
                (rng.choice(OPS), rng.choice(FILES), rng.choice(CONTENTS), rng.choice(raws))
                for _ in range(40)
            ]
            check_sequence(tmp_path / f"t{trial}", steps)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.sampled_from(FILES),
                st.text(alphabet="a\r\n ü∀", max_size=8),
                st.binary(max_size=6),
            ),
            max_size=25,
        )
    )
    def test_random_sequences_match_a_cold_project_and_the_disk(self, steps):
        with tempfile.TemporaryDirectory() as tmp:
            check_sequence(Path(tmp), steps)

    def test_delete_then_recreate_in_a_new_directory(self, tmp_path):
        project = Project(tmp_path)
        project.write("x/y/Z.lean", "first\n")
        project.delete("x/y/Z.lean")
        assert not project.exists("x/y/Z.lean")
        (tmp_path / "x" / "y").rmdir()
        project.write("x/y/Z.lean", "second\r\n")
        assert project.read("x/y/Z.lean") == "second\n"
        assert (tmp_path / "x" / "y" / "Z.lean").read_bytes() == b"second\r\n"

    def test_failed_disk_write_drops_the_entry(self, tmp_path, monkeypatch):
        project = Project(tmp_path)
        project.write("A.lean", "old text\n")
        assert project.read("A.lean") == "old text\n"
        real = Path.write_bytes

        def torn(self, data):
            real(self, data[:3])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", torn)
        with pytest.raises(OSError, match="disk full"):
            project.write("A.lean", "new text\n")
        monkeypatch.undo()
        assert project.read("A.lean") == "new" == (tmp_path / "A.lean").read_text()
        assert project.read_bytes("A.lean") == b"new"


class TestStagedCandidates:
    def test_a_staged_candidate_is_read_from_memory_until_synced(self, tmp_path):
        project = Project(tmp_path)
        project.stage("new/N.lean", "staged\r\n")
        assert project.exists("new/N.lean")
        assert project.read("new/N.lean") == "staged\n"
        assert project.read_bytes("new/N.lean") == b"staged\r\n"
        assert not (tmp_path / "new").exists() and project.files() == []
        assert project.discard("new/N.lean") and not project.discard("new/N.lean")
        assert not project.exists("new/N.lean")

        project.stage("new/N.lean", "staged\n")
        project.sync()
        assert (tmp_path / "new" / "N.lean").read_bytes() == b"staged\n"
        assert project.files() == ["new/N.lean"]
        assert not project.discard("new/N.lean")  # synced: nothing left to drop

        project.stage("new/N.lean", "again\n")
        project.write("new/N.lean", "written\n")
        assert not project.discard("new/N.lean")  # a write drops the candidate
        project.stage("new/N.lean", "again\n")
        project.delete("new/N.lean")
        assert not project.exists("new/N.lean")

    def test_a_project_command_sees_staged_candidates(self, tmp_path):
        project = Project(tmp_path / "p")
        project.write("A.lean", "def a : T := sorry\n")
        project.stage("A.lean", "def a : T := ghost\n")
        fails_on_ghost = "import sys; sys.exit(b'ghost' in open('A.lean', 'rb').read())"
        build = [sys.executable, "-c", fails_on_ghost]
        ok, _ = ExternalVerifier(["true"], project_command=build).verify_project(project)
        assert not ok
        assert (tmp_path / "p" / "A.lean").read_text() == "def a : T := ghost\n"


class OpenCounter:
    """Records the (path, mode) of every ``open`` made through io or builtins."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[str, str]] = []
        real = io.open

        def counting(file, mode="r", *args, **kwargs):
            self.calls.append((str(file), mode))
            return real(file, mode, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting)
        monkeypatch.setattr(builtins, "open", counting)

    def count(self, path: Path, modes: str) -> int:
        return sum(1 for f, m in self.calls if f == str(path) and any(c in m for c in modes))


class TestIOCounts:
    def test_rejected_attempts_read_the_file_once_each(self, tmp_path, monkeypatch):
        project = Project(tmp_path)
        text = "def w : P := sorry\nlemma l : P := by sorry\n"
        project.write("A.lean", text)
        verifier = Verifier(SimulatedVerifier())
        _, diags = verifier.verify_file(project, "A.lean")
        scope = Scope.of(SourceRange.whole_lines(1, 1))
        patch = PatchProposal(file="A.lean", scope=scope, replacement="lemma l : P := by ghost")

        opens = OpenCounter(monkeypatch)
        for _ in range(50):
            assert not try_patch(2, project, "A.lean", scope, patch, diags, verifier).accepted
        # the one disk read per attempt is the restore read-back; the
        # candidate is staged in memory, so nothing is written
        assert opens.count(tmp_path / "A.lean", "r") == 50
        assert opens.count(tmp_path / "A.lean", "w") == 0

        opens.calls.clear()
        verifier.verify_file(project, "A.lean")
        verifier.goal_state(project, "A.lean", SourceRange.whole_lines(1, 1))
        assert opens.calls == []

    def test_metrics_writer_opens_once_and_flushes_every_line(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        opens = OpenCounter(monkeypatch)
        with MetricsWriter(path, "r") as metrics:
            metrics.run_start({})
            for i in range(100):
                metrics.emit("tick", {"i": i})
                assert read_events(path)[-1]["data"] == {"i": i}
            assert len(read_events(path)) == 101
        assert opens.count(path, "a") == 1

    def test_history_store_opens_once_and_flushes_every_line(self, tmp_path, monkeypatch):
        path = tmp_path / "h.jsonl"
        opens = OpenCounter(monkeypatch)
        with HistoryStore(path) as store:
            for i in range(20):
                store.append(HistoryRecord("proof", "r", "A.lean", str(i), "agent_a_attempt"))
                assert read_events(path)[-1]["task_id"] == str(i)
        assert opens.count(path, "a") == 1

    def test_closed_writer_reopens_on_the_next_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        metrics = MetricsWriter(path, "r")
        metrics.run_start({})
        metrics.close()
        metrics.close()  # idempotent
        with metrics:
            metrics.emit("tick", {})
        assert [e["event"] for e in read_events(path)] == ["run_start", "tick"]
