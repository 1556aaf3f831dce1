"""Project's write-through content cache, its staged edits, and the
kept-open stream handles.

Over random sequences of operations, kernel attempts, commits and
discards included, the committed bytes the project knows are checked
against the disk after every operation, and everything it answers is
checked against a cold ``Project`` on the same root and against the disk
whenever nothing is staged; the I/O savings are checked as counts of
``open`` calls, never as timings.
"""

from __future__ import annotations

import builtins
import io
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from autoform import diagnostics, simlang
from autoform.diagnostics import Diagnostic, DiagnosticSet, Scope, SourceRange
from autoform.instrumentation import MetricsWriter, read_events
from autoform.kernel import PatchProposal, Snapshot, try_patch
from autoform.verifier import (
    ExternalVerifier,
    Project,
    SimulatedVerifier,
    Verifier,
    VerifierLaunchError,
    _READ_CHUNK,
    _write_file,
)

from helpers import EventSink
from oracles import ref_project_files

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
    "new_bytes",
    "delete",
    "commit",
    "discard",
    "sync",
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
    patch = PatchProposal(file=file_id, range=FIRST_LINE, replacement=content)
    verifier = Verifier(VerdictAdapter(verdict), EventSink())
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


def write_behind(project: Project, file_id: str, data: bytes) -> Project:
    """Write ``data`` to the file on disk, behind ``project``, and return a
    new project of the root, as the ownership rule asks after such a write."""
    path = project.path(file_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return Project(project.root)


def apply(project: Project, op: str, file_id: str, content: str, raw: bytes) -> Project:
    """Run ``op`` on ``project``; the project to go on with, which is a new
    one after ``new_bytes``."""
    if op == "write":
        project.write(file_id, content)
    elif op == "new_bytes":
        return write_behind(project, file_id, raw)
    elif op == "delete":
        project.delete(file_id)
    elif op in ("commit", "discard", "sync"):
        getattr(project, op)()
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
    return project


def check_sequence(root: Path, steps) -> None:
    project = Project(root)
    synced = False  # a sync put staged edits on disk that a commit or discard has not settled
    for step in steps:
        project = apply(project, *step)
        synced = step[0] == "sync" or synced and step[0] not in ("commit", "discard")
        if synced:
            continue
        on_disk = {f: (root / f).read_bytes() if (root / f).is_file() else None for f in FILES}
        assert {f: project.committed_bytes(f) for f in FILES} == on_disk, step
        if all(project.staged_entry(f) is None for f in FILES):
            cached = observe(project)
            assert cached == observe(Project(root)), step
            assert cached == disk(root), step
    project.commit()
    assert observe(project) == observe(Project(root)) == disk(root)


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
        def torn(path, data):
            _write_file(path, data[:3])
            raise OSError("disk full")

        monkeypatch.setattr("autoform.verifier._write_file", torn)
        with pytest.raises(OSError, match="disk full"):
            project.write("A.lean", "new text\n")
        monkeypatch.undo()
        assert project.read("A.lean") == "new" == (tmp_path / "A.lean").read_text()
        assert project.read_bytes("A.lean") == b"new"


ANALYSED_TEXTS = (
    "",
    "def a : T := sorry\n",
    "import B\n\n/-- [1] One -/\ndef a : T := sorry\n\ntheorem t : T := a\n",
    "import B\n\n/-- [1] One -/\ndef a : T := sorry\n\ntheorem t : T := by exact a\n",
    "/- open\ndef a : T := sorry\n-/ def b : T := \"sorry\"\n",
    "def a : T := sorry\r\nlemma l : T := a\r\n",
    "stray sorry line\ndef a : T :=",
)
ANALYSED_BYTES = tuple(t.encode("utf-8") for t in ANALYSED_TEXTS) + (
    b"def a : T := sorry\r\n\r\ntheorem t : T := a\r\n",
    b"\xff\xfe bad utf-8",
)
ANALYSIS_OPS = (
    "write",
    "new_bytes",
    "stage",
    "commit",
    "discard",
    "sync",
    "delete",
    "reload_bytes",
    "analysis",  # asks only
)
CHANGING_OPS = ("write", "new_bytes", "stage", "delete", "reload_bytes")


class TestProjectAnalysis:
    """``Project.analysis`` answers for the text ``read`` returns, once per
    content: the staged candidate has its own, a commit keeps it, and
    everything that changes the bytes drops it."""

    def test_seeded_sequences_keep_the_analysis_of_what_read_returns(self, tmp_path, monkeypatch):
        rng = random.Random(16)
        analysed = []  # the texts simlang.analyse was asked for
        analyse = simlang.analyse
        monkeypatch.setattr(
            simlang, "analyse", lambda text, base=None: analysed.append(text) or analyse(text, base)
        )
        for trial in range(12):
            root = tmp_path / f"t{trial}"
            project = Project(root)
            kept: dict[str, object] = {}  # file -> its analysis after the last step
            discarded = []  # (text, analysis) of every discarded candidate
            for step in range(60):
                op, f = rng.choice(ANALYSIS_OPS), rng.choice(FILES)
                staged = {g for g in FILES if project.staged_entry(g) is not None}
                if op == "write":
                    project.write(f, rng.choice(ANALYSED_TEXTS))
                elif op == "new_bytes":
                    project = write_behind(project, f, rng.choice(ANALYSED_BYTES))
                elif op == "stage":
                    project.stage(f, rng.choice(ANALYSED_TEXTS))
                elif op == "discard":
                    discarded += [(project.read(g), kept[g]) for g in staged if g in kept]
                    project.discard()
                elif op == "reload_bytes":
                    if rng.random() < 0.5 and (root / f).is_file():
                        # new bytes behind the project: the reload must drop the entry
                        (root / f).write_bytes(rng.choice(ANALYSED_BYTES))
                    data = project.reload_bytes(f)
                    if data is not None and project.staged_entry(f) is None:
                        assert project.read_bytes(f) == data == (root / f).read_bytes()
                elif op in ("commit", "sync"):
                    getattr(project, op)()
                elif op == "delete":
                    project.delete(f)
                # the files whose content the step may change (a new project
                # drops the staged edits); a commit moves each staged analysis
                # into the committed entry as it is
                changed = staged if op == "discard" else {f} if op in CHANGING_OPS else set()
                if op == "new_bytes":
                    changed |= staged
                for g in FILES:
                    try:
                        text = project.read(g) if project.exists(g) else None
                    except UnicodeDecodeError:
                        text = None
                    if text is None:
                        kept.pop(g, None)
                        continue
                    analysed.clear()
                    analysis = project.analysis(g)
                    where = (trial, step, op, f, g)
                    assert analysis == simlang._analyse(text), where
                    assert project.analysis(g) is analysis, where
                    # a file the step did not change is not analysed again
                    assert g in changed or g not in kept or analysed == [], where
                    assert g in changed or g not in kept or kept[g] is analysis, where
                    assert not any(old is analysis for t, old in discarded if t != text), where
                    kept[g] = analysis

    def test_a_commit_keeps_the_candidate_analysis_and_a_write_drops_it(self, tmp_path):
        project = Project(tmp_path)
        project.write("A.lean", "def a : T := sorry\n")
        committed = project.analysis("A.lean")
        project.stage("A.lean", "def a : T := sorry\ndef b : T := a\n")
        candidate = project.analysis("A.lean")
        assert candidate is not committed
        project.discard()
        assert project.analysis("A.lean") is committed
        project.stage("A.lean", "def a : T := sorry\ndef b : T := a\n")
        project.analysis("A.lean")
        project.commit()
        assert project.analysis("A.lean") == candidate
        moved = project.analysis("A.lean")
        assert project.reload_bytes("A.lean") is not None  # same bytes: kept
        assert project.analysis("A.lean") is moved
        project.write("A.lean", "def c : T := sorry\n")
        assert project.analysis("A.lean").declarations[0].name == "c"


    def test_a_discard_after_a_sync_keeps_the_committed_analysis(self, tmp_path):
        project = Project(tmp_path)
        project.write("A.lean", "def a : T := sorry\n")
        committed = project.analysis("A.lean")
        project.stage("A.lean", "def a : T := sorry\ndef b : T := a\n")
        project.sync()
        project.discard()
        assert (tmp_path / "A.lean").read_text() == "def a : T := sorry\n"
        assert project.analysis("A.lean") is committed

    def test_staging_the_bytes_it_reads_keeps_the_entry_and_its_analysis(self, tmp_path):
        project = Project(tmp_path)
        project.write("A.lean", "def a : T := sorry\n")
        committed = project.analysis("A.lean")
        project.stage("A.lean", "def a : T := sorry\n")
        assert project.staged_entry("A.lean")[2] is committed
        project.stage("A.lean", "def a : T := sorry\ndef b : T := a\n")
        candidate = project.analysis("A.lean")
        project.stage("A.lean", "def a : T := sorry\ndef b : T := a\n")
        assert project.staged_entry("A.lean")[2] is candidate

    def test_a_new_project_keeps_the_analyses_of_unchanged_bytes(self, tmp_path, monkeypatch):
        root, other = tmp_path / "root", tmp_path / "other"
        files = [f"M{k}.lean" for k in range(12)]
        old = Project(root)
        for k, f in enumerate(files):
            old.write(f, f"def d{k} : T := sorry\n")
        analyses = {f: old.analysis(f) for f in files}
        for f in files:
            (other / f).parent.mkdir(parents=True, exist_ok=True)
            (other / f).write_bytes((root / f).read_bytes())
        (root / "M0.lean").write_text("def e : T := sorry\n")  # rewritten behind the project
        analysed = []
        real = simlang._analyse
        monkeypatch.setattr(
            simlang, "_analyse", lambda text, *args: analysed.append(text) or real(text, *args)
        )
        new = Project(root)
        assert all(new.analysis(f) is analyses[f] for f in files[1:])
        assert analysed == []
        assert new.analysis("M0.lean").declarations[0].name == "e"
        assert analysed == ["def e : T := sorry\n"]
        # another root inherits nothing, even where its bytes are the same
        elsewhere = Project(other)
        assert not any(elsewhere.analysis(f) is analyses[f] for f in files)
        assert len(analysed) == 1 + len(files)


class TestInPlaceWrite:
    """A project file is written in place from offset 0 and then cut to
    the new length; it is never truncated to zero first. A first write into
    new directories and a sync then discard of a new file are covered by
    ``test_delete_then_recreate_in_a_new_directory`` and
    ``TestStagedCandidates``."""

    @pytest.mark.parametrize(
        "before, after",
        [
            (b"a longer first version\n", b"short\n"),
            (b"short\n", b"a longer second version\n"),
            (b"same length\n", b"SAME LENGTH\n"),
            (b"something\n", b""),
            (b"", b"from empty\n"),
            (b"x\n", b"x\r\ny\r\n\r"),
        ],
    )
    def test_a_rewrite_lands_byte_exact(self, tmp_path, before, after):
        project = Project(tmp_path)
        project.write("A.lean", before.decode("utf-8"))
        project.write("A.lean", after.decode("utf-8"))
        assert (tmp_path / "A.lean").read_bytes() == after
        assert Project(tmp_path).read_bytes("A.lean") == after

    def test_a_commit_and_a_discard_after_a_sync_land_byte_exact(self, tmp_path):
        project = Project(tmp_path)
        project.write("A.lean", "the committed text, longer\r\n")
        project.stage("A.lean", "short\n")
        project.sync()
        assert (tmp_path / "A.lean").read_bytes() == b"short\n"
        project.discard()  # the longer committed bytes go back over the shorter ones
        assert (tmp_path / "A.lean").read_bytes() == b"the committed text, longer\r\n"
        project.stage("A.lean", "short\r\n")
        project.commit()
        assert (tmp_path / "A.lean").read_bytes() == b"short\r\n"

    def test_a_commit_never_truncates_an_existing_file(self, tmp_path, monkeypatch):
        project = Project(tmp_path)
        project.write("A.lean", "a long committed version\n")
        real = os.open
        flags = []

        def recording(path, flag, *args, **kwargs):
            if Path(path) == tmp_path / "A.lean":
                flags.append(flag)
            return real(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        project.stage("A.lean", "short\n")
        project.commit()
        monkeypatch.undo()
        assert flags and all(f & os.O_WRONLY and not f & os.O_TRUNC for f in flags)
        assert (tmp_path / "A.lean").read_bytes() == b"short\n"


class DescriptorCounter:
    """Counts the descriptors ``os.open`` returns and ``os.close`` closes,
    and the ``os.read`` calls, each of which it lets take at most ``limit``
    bytes when one is given."""

    def __init__(self, monkeypatch, limit: int | None = None):
        self.opened: list[int] = []
        self.closed: list[int] = []
        self.reads = 0
        real_open, real_close, real_read = os.open, os.close, os.read

        def counting_open(*args, **kwargs):
            fd = real_open(*args, **kwargs)
            self.opened.append(fd)
            return fd

        def counting_close(fd):
            self.closed.append(fd)
            real_close(fd)

        def counting_read(fd, n):
            self.reads += 1
            return real_read(fd, n if limit is None else min(n, limit))

        monkeypatch.setattr(os, "open", counting_open)
        monkeypatch.setattr(os, "close", counting_close)
        monkeypatch.setattr(os, "read", counting_read)


class TestRawRead:
    """A project file is read through a raw descriptor, ``os.read`` until
    an empty read, and the descriptor is closed whatever the read did."""

    def test_a_file_larger_than_one_read_comes_back_whole(self, tmp_path, monkeypatch):
        data = random.Random(3).randbytes(3 * _READ_CHUNK + 123)
        (tmp_path / "Big.lean").write_bytes(data)
        project = Project(tmp_path)
        fds = DescriptorCounter(monkeypatch)
        assert project.reload_bytes("Big.lean") == data
        assert fds.reads == 5  # three full chunks, the rest, then the empty read
        # a system that hands back fewer bytes than asked changes nothing
        fds = DescriptorCounter(monkeypatch, limit=1000)
        assert project.reload_bytes("Big.lean") == data
        assert fds.reads == len(data) // 1000 + 2

    def test_a_thousand_reads_leave_no_descriptor_open(self, tmp_path, monkeypatch):
        # a directory opens and its read raises; a missing file and a path
        # under a regular file open nothing; all three read as absent
        (tmp_path / "A.lean").write_text("def a : T := sorry\n")
        (tmp_path / "X.lean").mkdir()
        project = Project(tmp_path)
        fds = DescriptorCounter(monkeypatch)
        file_ids = ("A.lean", "X.lean", "Missing.lean", "A.lean/B.lean")
        for k in range(1000):
            data = project.reload_bytes(file_ids[k % 4])
            assert (data is not None) == (k % 4 == 0)
        assert len(fds.opened) == 500
        assert sorted(fds.closed) == sorted(fds.opened)


class TestListing:
    """``Project.files`` is one ``os.scandir`` walk that lists what the
    ``rglob`` listing before it listed (``oracles.ref_project_files``)."""

    def make_tree(self, root: Path) -> None:
        for file_id in ("A.lean", "sub/B.lean", "sub/deep/C.lean", "X.lean/Inner.lean", ".hidden/H.lean"):
            (root / file_id).parent.mkdir(parents=True, exist_ok=True)
            (root / file_id).write_text("def a : T := sorry\n")
        (root / "notes.txt").write_text("not a source file\n")
        (root / "sub" / "B.lean.bak").write_text("not a source file\n")
        (root / ".lean").write_text("")
        (root / "link.lean").symlink_to(root / "sub" / "B.lean")
        (root / "dirlink").symlink_to(root / "sub", target_is_directory=True)
        (root / "dirlink.lean").symlink_to(root / "sub", target_is_directory=True)
        (root / "dangling.lean").symlink_to(root / "missing.lean")
        (root / "loop.lean").symlink_to(root / "loop.lean")

    def test_the_walk_lists_what_rglob_listed(self, tmp_path):
        root = tmp_path / "project"
        self.make_tree(root)
        project = Project(root)
        assert project.files() == ref_project_files(root) == [
            ".hidden/H.lean",
            ".lean",
            "A.lean",
            "X.lean/Inner.lean",
            "link.lean",
            "sub/B.lean",
            "sub/deep/C.lean",
        ]

    def test_an_unreadable_directory_is_skipped(self, tmp_path, monkeypatch):
        root = tmp_path / "project"
        self.make_tree(root)
        locked = root / "locked"
        (locked / "inner").mkdir(parents=True)
        (locked / "L.lean").write_text("")
        (locked / "inner" / "M.lean").write_text("")
        scandir = os.scandir

        def refusing_scandir(path="."):
            # the refusal a directory without read permission gives, which a
            # superuser would not get from chmod
            if os.fspath(path) == str(locked):
                raise PermissionError(13, "Permission denied", os.fspath(path))
            return scandir(path)

        monkeypatch.setattr(os, "scandir", refusing_scandir)
        project = Project(root)
        assert project.files() == ref_project_files(root)
        assert "link.lean" in project.files()
        assert not [f for f in project.files() if f.startswith("locked/")]

    def test_an_empty_root_and_a_missing_one_list_nothing(self, tmp_path):
        root = tmp_path / "project"
        project = Project(root)
        assert project.files() == ref_project_files(root) == []
        root.rmdir()
        assert project.files() == ref_project_files(root) == []
        root.write_text("a regular file where the root was\n")
        assert project.files() == ref_project_files(root) == []


class TestStagedCandidates:
    def test_a_staged_candidate_stays_off_disk_until_synced(self, tmp_path):
        project = Project(tmp_path)
        project.stage("new/N.lean", "staged\r\n")
        assert project.exists("new/N.lean")
        assert project.read("new/N.lean") == "staged\n"
        assert project.read_bytes("new/N.lean") == b"staged\r\n"
        assert project.staged_entry("new/N.lean")[0] == b"staged\r\n"
        assert not (tmp_path / "new").exists() and project.files() == []
        project.discard()
        assert not project.exists("new/N.lean") and project.staged_entry("new/N.lean") is None

        project.stage("new/N.lean", "staged\n")
        project.sync()  # on disk for a tool that reads it, still staged, not committed
        assert (tmp_path / "new" / "N.lean").read_bytes() == b"staged\n"
        assert project.files() == ["new/N.lean"]
        assert project.committed_bytes("new/N.lean") is None
        assert project.staged_entry("new/N.lean")[0] == b"staged\n"
        project.discard()  # puts the committed state, absent, back on disk
        assert not (tmp_path / "new" / "N.lean").exists() and not project.exists("new/N.lean")

        project.stage("new/N.lean", "again\n")
        project.write("new/N.lean", "written\n")  # a write drops the staged edit
        assert project.staged_entry("new/N.lean") is None
        project.stage("new/N.lean", "again\n")
        project.delete("new/N.lean")
        assert not project.exists("new/N.lean")

    def test_commit_writes_in_staging_order_and_discard_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        project = Project(tmp_path)
        project.write("S.lean", "original\n")
        written = []

        def recording(path, data):
            written.append(path.relative_to(tmp_path).as_posix())
            return _write_file(path, data)

        monkeypatch.setattr("autoform.verifier._write_file", recording)
        project.stage("S_part1.lean", "one\n")
        project.stage("S_part2.lean", "two\n")
        project.stage("S.lean", "import S_part1\nimport S_part2\n")
        project.stage("S_part1.lean", "one, patched\n")  # keeps its place
        project.discard("S_part2.lean")
        project.stage("S_part2.lean", "two\n")  # staged again: now after the aggregate
        assert written == []
        project.commit()
        assert written == ["S_part1.lean", "S.lean", "S_part2.lean"]
        assert project.staged_entry("S.lean") is None
        assert (tmp_path / "S_part1.lean").read_text() == "one, patched\n"

        written.clear()
        project.stage("S.lean", "edit\n")
        project.discard()
        assert written == [] and project.read("S.lean") == "import S_part1\nimport S_part2\n"

        project.stage("S.lean", "edit\n")
        project.sync()
        project.discard()  # the sync wrote the edit, so the committed bytes go back
        assert written == ["S.lean", "S.lean"]
        assert (tmp_path / "S.lean").read_text() == "import S_part1\nimport S_part2\n"

    def test_sync_writes_only_edits_the_disk_does_not_hold(self, tmp_path, monkeypatch):
        project = Project(tmp_path)
        written = []
        monkeypatch.setattr(
            "autoform.verifier._write_file",
            lambda p, d: (written.append(p.name), _write_file(p, d)),
        )
        project.stage("A_part1.lean", "one\n")
        project.stage("A.lean", "import A_part1\n")
        project.sync()
        project.sync()  # nothing changed since the last sync
        project.stage("A_part1.lean", "one, patched\n")
        project.sync()
        assert written == ["A_part1.lean", "A.lean", "A_part1.lean"]
        project.discard("A_part1.lean")  # never committed: the sync is undone
        assert not (tmp_path / "A_part1.lean").exists()
        assert (tmp_path / "A.lean").read_text() == "import A_part1\n"

        # a candidate whose bytes are the committed ones: the disk holds them
        project.commit()
        written.clear()
        project.stage("A.lean", "import A_part1\n")
        project.sync()
        project.discard()
        assert written == []
        # after another edit's sync, staging the committed bytes puts them back once
        project.stage("A.lean", "edit\n")
        project.sync()
        project.stage("A.lean", "import A_part1\n")
        project.sync()
        project.sync()
        project.discard()
        assert written == ["A.lean", "A.lean"]
        assert (tmp_path / "A.lean").read_text() == "import A_part1\n"

    def test_a_disk_read_of_synced_bytes_keeps_the_committed_entry(self, tmp_path):
        project = Project(tmp_path)
        project.write("A.lean", "committed\n")
        committed = project.analysis("A.lean")
        project.stage("A.lean", "synced\n")
        project.sync()
        assert project.reload_bytes("A.lean") == b"synced\n"
        assert project.committed_bytes("A.lean") == b"committed\n"
        project.discard()
        assert (tmp_path / "A.lean").read_bytes() == b"committed\n"
        assert project.read("A.lean") == "committed\n"
        assert project.analysis("A.lean") is committed

    def test_a_sync_whose_write_raises_is_put_back_by_the_discard(self, tmp_path, monkeypatch):
        project = Project(tmp_path)
        project.write("A.lean", "committed\n")

        def torn(path, data):
            _write_file(path, data[:3])
            raise OSError("disk full")

        for staged in ("synced\n", "committed\n"):
            project.stage("A.lean", "other\n")
            project.sync()
            project.stage("A.lean", staged)
            with monkeypatch.context() as m:
                m.setattr("autoform.verifier._write_file", torn)
                with pytest.raises(OSError, match="disk full"):
                    project.sync()
            project.discard()
            assert (tmp_path / "A.lean").read_bytes() == b"committed\n"
            assert project.reload_bytes("A.lean") == b"committed\n"

    def test_a_path_that_is_not_a_regular_file_is_absent(self, tmp_path):
        (tmp_path / "X.lean").mkdir()
        (tmp_path / "F.lean").write_text("a file\n")
        project = Project(tmp_path)
        for file_id in ("X.lean", "F.lean/B.lean"):
            assert not project.exists(file_id)
            assert project.committed_bytes(file_id) is None
            assert project.reload_bytes(file_id) is None
            with pytest.raises(FileNotFoundError):
                project.read(file_id)

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
    """Records the (path, mode) of every ``open`` made through io or
    builtins, and of every ``os.open`` as mode "w" when it opens for
    writing, else "r"."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[str, str]] = []
        real, real_os_open = io.open, os.open

        def counting(file, mode="r", *args, **kwargs):
            self.calls.append((str(file), mode))
            return real(file, mode, *args, **kwargs)

        def os_counting(path, flags, *args, **kwargs):
            self.calls.append((str(path), "w" if flags & (os.O_WRONLY | os.O_RDWR) else "r"))
            return real_os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting)
        monkeypatch.setattr(builtins, "open", counting)
        monkeypatch.setattr(os, "open", os_counting)

    def count(self, path: Path, modes: str) -> int:
        return sum(1 for f, m in self.calls if f == str(path) and any(c in m for c in modes))


class TestIOCounts:
    def test_rejected_attempts_read_the_file_once_each(self, tmp_path, monkeypatch):
        project = Project(tmp_path)
        text = "def w : P := sorry\nlemma l : P := by sorry\n"
        project.write("A.lean", text)
        verifier = Verifier(SimulatedVerifier(), EventSink())
        _, diags = verifier.verify_file(project, "A.lean")
        scope = Scope.of(SourceRange.whole_lines(1, 1))
        patch = PatchProposal(file="A.lean", range=SourceRange.whole_lines(1, 1), replacement="lemma l : P := by ghost")

        committed = project.analysis("A.lean")
        opens = OpenCounter(monkeypatch)
        for _ in range(50):
            assert not try_patch(2, project, "A.lean", scope, patch, diags, verifier).accepted
        # the one disk read per attempt is the restore read-back; the
        # candidate is staged in memory, so nothing is written
        assert opens.count(tmp_path / "A.lean", "r") == 50
        assert opens.count(tmp_path / "A.lean", "w") == 0
        # the read-back finds the same bytes, so the entry keeps its analysis
        assert project.analysis("A.lean") is committed

        opens.calls.clear()
        verifier.verify_file(project, "A.lean")
        verifier.goal_state(project, "A.lean", SourceRange.whole_lines(1, 1))
        assert opens.calls == []

    def test_rejected_attempts_on_a_never_committed_file_read_the_disk_only_to_restore(
        self, tmp_path, monkeypatch
    ):
        project = Project(tmp_path)
        assert not project.exists("N.lean")  # stage 1 looks before it stages a skeleton
        project.stage("N.lean", "def w : P := sorry\nlemma l : P := by sorry\n")
        verifier = Verifier(SimulatedVerifier(), EventSink())
        _, diags = verifier.verify_file(project, "N.lean")
        scope = Scope.of(SourceRange.whole_lines(1, 1))
        patch = PatchProposal(file="N.lean", range=SourceRange.whole_lines(1, 1), replacement="lemma l : P := by ghost")

        capturing = [False]
        reloads = {"capture": 0, "restore": 0}
        real_capture, real_reload = Snapshot.capture.__func__, Project.reload_bytes

        def capture(cls, project, file_id):
            capturing[0] = True
            try:
                return real_capture(cls, project, file_id)
            finally:
                capturing[0] = False

        def reload_bytes(project, file_id):
            reloads["capture" if capturing[0] else "restore"] += 1
            return real_reload(project, file_id)

        monkeypatch.setattr(Snapshot, "capture", classmethod(capture))
        monkeypatch.setattr(Project, "reload_bytes", reload_bytes)
        opens = OpenCounter(monkeypatch)
        for _ in range(50):
            assert not try_patch(2, project, "N.lean", scope, patch, diags, verifier).accepted
        # the project remembers the file is absent, so capturing the snapshot
        # asks no disk; every restore still reads the disk back, once
        assert reloads == {"capture": 0, "restore": 50}
        assert opens.count(tmp_path / "N.lean", "r") == 50
        assert project.committed_bytes("N.lean") is None and not (tmp_path / "N.lean").exists()

        project.commit()  # the write forgets the absence
        assert project.exists("N.lean") and project.committed_bytes("N.lean") is not None

    def test_rejected_attempts_take_objective_and_offsets_from_the_project(
        self, tmp_path, monkeypatch
    ):
        project = Project(tmp_path)
        project.write("A.lean", "def w : P := sorry\nlemma l : P := by sorry\n")
        verifier = Verifier(SimulatedVerifier(), EventSink())
        _, diags = verifier.verify_file(project, "A.lean")
        scope = Scope.of(SourceRange.whole_lines(1, 1))
        patch = PatchProposal(file="A.lean", range=SourceRange.whole_lines(1, 1), replacement="lemma l : P := by ghost")

        counts = {"analyse": 0, "line_starts": 0}
        real_analyse, real_line_starts = simlang.analyse, diagnostics.line_starts

        def analyse(text, base=None):
            counts["analyse"] += 1
            return real_analyse(text, base)

        def line_starts(*args, **kwargs):
            counts["line_starts"] += 1
            return real_line_starts(*args, **kwargs)

        monkeypatch.setattr(simlang, "analyse", analyse)
        monkeypatch.setattr(diagnostics, "line_starts", line_starts)
        opens = OpenCounter(monkeypatch)
        for _ in range(20):
            assert not try_patch(2, project, "A.lean", scope, patch, diags, verifier).accepted
        # the one analysis lookup per attempt is the staged candidate's check;
        # both hole counts and the line offsets come from the project's analyses
        assert counts == {"analyse": 20, "line_starts": 0}
        assert opens.count(tmp_path / "A.lean", "r") == 20

    def test_rejected_attempts_after_an_accepted_one_keep_its_analysis(
        self, tmp_path, monkeypatch
    ):
        project = Project(tmp_path)
        project.write(
            "A.lean", "def w : P := sorry\nlemma l : P := by sorry\nlemma m : P := sorry\n"
        )
        verifier = Verifier(SimulatedVerifier(), EventSink())
        _, diags = verifier.verify_file(project, "A.lean")
        scope = Scope.of(SourceRange.whole_lines(2, 2))
        patch = PatchProposal(file="A.lean", range=SourceRange.whole_lines(2, 2), replacement="lemma m : P := w")
        outcome = try_patch(2, project, "A.lean", scope, patch, diags, verifier)
        assert outcome.accepted and project.staged_entry("A.lean") is not None
        staged = project.analysis("A.lean")

        lookups = []
        real_analyse = simlang.analyse
        monkeypatch.setattr(
            simlang,
            "analyse",
            lambda text, base=None: lookups.append(1) or real_analyse(text, base),
        )
        opens = OpenCounter(monkeypatch)
        scope = Scope.of(SourceRange.whole_lines(1, 1))
        patch = PatchProposal(file="A.lean", range=SourceRange.whole_lines(1, 1), replacement="lemma l : P := by ghost")
        diags = outcome.diagnostics_after
        for _ in range(20):
            assert not try_patch(2, project, "A.lean", scope, patch, diags, verifier).accepted
        # a restore puts back the accepted edit's entry, analysis included, so
        # the one lookup per attempt is the candidate's check
        assert len(lookups) == 20
        assert opens.count(tmp_path / "A.lean", "r") == 20
        assert project.analysis("A.lean") is staged

    def test_a_rejected_no_op_attempt_analyses_nothing(self, tmp_path, monkeypatch):
        text = "def w : P := sorry\nlemma l : P := by sorry\n"
        project = Project(tmp_path)
        project.write("A.lean", text)
        verifier = Verifier(SimulatedVerifier(), EventSink())
        _, diags = verifier.verify_file(project, "A.lean")
        committed = project.analysis("A.lean")
        scope = Scope.of(SourceRange.whole_lines(1, 1))
        patch = PatchProposal(file="A.lean", range=SourceRange.whole_lines(1, 1), replacement="lemma l : P := by sorry\n")
        analysed = []
        real = simlang._analyse
        monkeypatch.setattr(
            simlang, "_analyse", lambda text, *args: analysed.append(text) or real(text, *args)
        )
        for stage in (1, 2):
            assert not try_patch(stage, project, "A.lean", scope, patch, diags, verifier).accepted
        assert analysed == []
        assert project.analysis("A.lean") is committed

    def test_a_staged_edit_starts_from_the_committed_analysis(
        self, tmp_path, monkeypatch
    ):
        text = "".join(f"/-- [{k}] Item {k} -/\ndef d{k} : T := sorry\n\n" for k in range(400))
        project = Project(tmp_path)
        project.write("Big.lean", text)
        verifier = Verifier(SimulatedVerifier(), EventSink())
        _, diags = verifier.verify_file(project, "Big.lean")
        line = 1 + 3 * 200
        target = SourceRange(line, 16, line, 21)
        patch = PatchProposal(file="Big.lean", range=target, replacement="d199")

        kept_units = []
        real_kept_units = simlang._kept_units
        monkeypatch.setattr(
            simlang, "_kept_units", lambda *args: kept_units.append(1) or real_kept_units(*args)
        )
        outcome = try_patch(2, project, "Big.lean", Scope.of(target), patch, diags, verifier)
        assert outcome.accepted
        assert len(kept_units) <= 1
        edited = project.read("Big.lean")
        assert edited == text.replace("def d200 : T := sorry", "def d200 : T := d199")

        # staged again after a discard, the base still comes from the project
        project.discard()
        project.stage("Big.lean", edited)
        parsed = []
        parse = simlang._parse_declaration
        monkeypatch.setattr(
            simlang, "_parse_declaration", lambda *args: parsed.append(1) or parse(*args)
        )
        analysis = project.analysis("Big.lean")
        assert 1 <= len(parsed) <= 2
        monkeypatch.undo()
        assert analysis == simlang._analyse(edited)

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

    def test_closed_writer_reopens_on_the_next_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        metrics = MetricsWriter(path, "r")
        metrics.run_start({})
        metrics.close()
        metrics.close()  # idempotent
        with metrics:
            metrics.emit("tick", {})
        assert [e["event"] for e in read_events(path)] == ["run_start", "tick"]
