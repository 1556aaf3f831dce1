"""Verification oracles: project store, simulated and external adapters.

The simulated adapter is a pure function of file bytes, takes no settings,
and is the desk-scale test oracle. The external adapter shells out to a configurable single-file
check command and parses its output; it never silently drops toolchain
output. Both present the same surface: ``verify_file`` returning
``(ok, DiagnosticSet)`` where ok holds iff there are zero error-level
diagnostics. A goal query (``goal_state``) is asked only of a file whose
last counted check found no error, so it runs no check and counts as no call.
"""

from __future__ import annotations

import errno
import os
import re
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from . import simlang
from .diagnostics import (
    Diagnostic,
    DiagnosticSet,
    Scope,
    SourceRange,
    err_count,
)
from .instrumentation import MetricsWriter
from .simlang import DEFINITION_KINDS

DEFAULT_BUILTINS = {"trivial": "True"}
_READ_CHUNK = 1 << 16  # bytes per os.read: one read takes a file below 64 KiB


class VerifierLaunchError(RuntimeError):
    """Toolchain could not be launched; distinct from a failed verification."""


def run_process(
    argv: list[str], timeout: float, input: str | None = None, cwd: Path | None = None
) -> tuple[int | None, str, str]:
    """(exit status, stdout, stderr) of ``argv`` run with ``input`` on its
    stdin as UTF-8; the status is None when ``timeout`` killed it, and the
    output then what it wrote before. The verify command and the agent
    bridge both run here, so output that is not UTF-8 fails neither."""
    try:
        data = None if input is None else input.encode("utf-8")
        proc = subprocess.run(argv, cwd=cwd, input=data, capture_output=True, timeout=timeout)
        code, out = proc.returncode, (proc.stdout, proc.stderr)
    except subprocess.TimeoutExpired as exc:
        code, out = None, (exc.stdout, exc.stderr)
    # text as ``subprocess`` reads it, but each byte that is not UTF-8 as U+FFFD
    stdout, stderr = (
        (b or b"").decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")
        for b in out
    )
    return code, stdout, stderr


@dataclass(frozen=True)
class GoalState:
    goal: str
    context: tuple[tuple[str, str], ...] = ()

    def as_dict(self) -> dict:
        return {"goal": self.goal, "context": [list(p) for p in self.context]}


def _decode(data: bytes) -> str:
    """The text ``Path.read_text(encoding="utf-8")`` returns for ``data``:
    UTF-8 with universal newlines (``\\r\\n`` and lone ``\\r`` read as ``\\n``)."""
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_file(path: Path) -> bytes:
    """The bytes of the file at ``path``, read through a raw descriptor:
    ``os.read`` until an empty read, with no file object, buffer or
    ``fstat``. A directory opens, and its first read raises
    ``IsADirectoryError``. ``O_BINARY`` (Windows only) keeps the bytes from
    newline translation."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _write_file(path: Path, data: bytes) -> None:
    """Write ``data`` as the whole file at ``path``, in place: open without
    truncating, write from offset 0, then cut the file to the new length.
    Truncating to zero first would make ext4 (``auto_da_alloc``) start
    writeback when the file is closed, a flush that buys nothing without an
    ``fsync``. Like ``Path.write_bytes``, this is not atomic. ``O_BINARY``
    (Windows only) keeps the bytes from newline translation."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# a file's entry: its bytes, their decoded text and the text's analysis, each
# None until first asked for
Entry = tuple[bytes, str | None, simlang.Analysis | None]


def _encode(text: str) -> Entry:
    """A cache entry for ``text``: its UTF-8 bytes, and the text itself
    unless it holds "\\r", which reads back with universal newlines."""
    return text.encode("utf-8"), None if "\r" in text else text, None


def _kept(entry: Entry | None, data: bytes) -> Entry:
    """``entry``, with its text and analysis, when it holds ``data``; else a
    new entry of ``data``."""
    return entry if entry is not None and entry[0] == data else (data, None, None)


# the root and the committed entries of the last Project built in this
# process, for the next Project built on that root to take over
_last_cache: tuple[Path, dict[str, Entry | None]] | None = None


class Project:
    """A project is a directory tree of source files addressed by relative path.

    The project keeps one record of each fact about the disk. A file's
    committed entry holds the bytes the disk holds, their decoded text and
    the text's analysis, or is None for a file known to be absent (not a
    regular file). One private read fills it, so unchanged bytes are read
    from disk once and an absent file is not asked for again until the
    project writes or deletes it. ``analysis`` computes the analysis on
    first ask through ``simlang.analyse``, which keeps nothing, and keeps it
    in the entry until the bytes change. The project owns every analysis of
    its files. Writes go to disk first and then to the cache; a write that
    raises drops the file's entry, so the next read goes to disk.

    The project is the working copy of one dataset item: its edits are
    *staged* in memory on top of the committed bytes, where ``read``,
    ``read_bytes``, ``analysis`` and ``exists`` see them and the disk does
    not, until ``commit`` writes or ``discard`` drops them. A staged edit
    carries its own analysis, which ``commit`` moves into the committed
    entry. The analysis starts from that of the entry the edit replaced:
    the staged entry's, when it holds one, else the committed entry's, so
    only the edited units are read again. A caller that holds the analysis
    of the text it stages (a split's part) stages the two together.
    Staging the bytes the project already reads for the file keeps that
    entry. ``sync`` writes the edits to disk for a tool that reads it, and
    the project records only synced bytes that differ from the committed
    ones. So ``sync``, ``commit`` and ``discard`` write a file only when
    the disk holds other bytes than it must: a rejected candidate whose
    bytes are the committed ones costs no write. A write or delete of a
    file drops its staged edit. ``files`` lists the disk.

    Ownership rule: while a run segment runs, its ``Project`` is the only
    writer of the root; build a new one after anything else changes it.
    Each pipeline segment builds its own, which reads every file from disk
    again. It takes over the committed entries of the last ``Project`` built
    on the same root in this process, each only when the bytes it reads are
    the entry's bytes. ``reload_bytes`` always reads the disk.
    """

    def __init__(self, root: str | Path):
        global _last_cache
        # absolute, so a tool run in the root reads ``{root}`` and ``{abs_file}`` right
        self.root = Path(root).absolute()
        self.root.mkdir(parents=True, exist_ok=True)
        # file_id -> the entry of its committed bytes; None: not a regular file
        self._cache: dict[str, Entry | None] = {}
        # the last project's committed entries on this root, each taken by a
        # read from disk that finds the same bytes
        self._inherited = _last_cache[1] if _last_cache and _last_cache[0] == self.root else {}
        _last_cache = (self.root, self._cache)
        # staged edits, same shape, in staging order
        self._staged: dict[str, Entry] = {}
        # file_id -> the staged entry, analysis and all, that its staged edit
        # replaced: the base of the edit's analysis
        self._replaced: dict[str, Entry] = {}
        # file_id -> the staged bytes a sync wrote in place of the committed ones
        self._synced: dict[str, bytes] = {}
        # file_id -> its path under the root, built once
        self._paths: dict[str, Path] = {}

    def path(self, file_id: str) -> Path:
        path = self._paths.get(file_id)
        if path is None:
            path = self._paths[file_id] = self.root / file_id
        return path

    def exists(self, file_id: str) -> bool:
        return file_id in self._staged or self._committed(file_id) is not None

    def read(self, file_id: str) -> str:
        data, text, analysis = self._entry(file_id)
        if text is None:
            text = _decode(data)
            self._holder(file_id)[file_id] = (data, text, analysis)
        return text

    def read_bytes(self, file_id: str) -> bytes:
        return self._entry(file_id)[0]

    def analysis(self, file_id: str) -> simlang.Analysis:
        """The analysis of the text ``read`` returns, kept with the bytes. A
        staged edit's analysis starts from that of the entry the edit
        replaced: the staged entry, when it held an analysis, else the
        committed entry."""
        data, text, analysis = self._entry(file_id)
        if analysis is None:
            if text is None:
                text = _decode(data)
            base = None
            if file_id in self._staged:
                replaced = self._replaced.pop(file_id, None) or self._cache.get(file_id)
                if replaced is not None and replaced[2] is not None:
                    base = (replaced[1], replaced[2])
            analysis = simlang.analyse(text, base)
            self._holder(file_id)[file_id] = (data, text, analysis)
        return analysis

    def _entry(self, file_id: str) -> Entry:
        entry = self._staged.get(file_id) or self._committed(file_id)
        if entry is None:
            raise FileNotFoundError(errno.ENOENT, "no such file", str(self.path(file_id)))
        return entry

    def _holder(self, file_id: str) -> dict[str, Entry]:
        """The entries that hold the file's entry as this project reads it."""
        return self._staged if file_id in self._staged else self._cache

    def _committed(self, file_id: str) -> Entry | None:
        """The file's committed entry, read on first ask; None when absent."""
        if file_id not in self._cache:
            self._read(file_id)
        return self._cache[file_id]

    def _read(self, file_id: str) -> bytes | None:
        """The one disk read: the file's bytes, None when it is not a regular
        file. Unless a sync put them there, they become the committed entry,
        which keeps the text and analysis of an entry of the same bytes."""
        try:
            data = _read_file(self.path(file_id))
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            data = None
        if file_id not in self._synced:
            entry = self._cache.get(file_id) or self._inherited.get(file_id)
            self._cache[file_id] = None if data is None else _kept(entry, data)
        return data

    def staged_entry(self, file_id: str) -> Entry | None:
        """The file's staged entry, with whatever text and analysis it holds
        so far; None when nothing is staged. ``restage`` puts it back."""
        return self._staged.get(file_id)

    def restage(self, file_id: str, entry: Entry) -> None:
        """Stage an entry ``staged_entry`` returned, as it is: the bytes,
        and the text and analysis already made of them."""
        self._replaced.pop(file_id, None)
        self._staged[file_id] = entry

    def committed_bytes(self, file_id: str) -> bytes | None:
        """The file's committed bytes, whatever is staged; None when absent."""
        entry = self._committed(file_id)
        return None if entry is None else entry[0]

    def reload_bytes(self, file_id: str) -> bytes | None:
        """The file's bytes read from disk, bypassing the cache; None when
        the file is absent. Bytes a sync put there leave the committed entry
        as it is; other bytes replace it, the same bytes keep it."""
        return self._read(file_id)

    def write(self, file_id: str, text: str) -> None:
        self._store(file_id, _encode(text))

    def _store(self, file_id: str, entry: Entry) -> None:
        self._unstage(file_id)
        self._synced.pop(file_id, None)
        p = self.path(file_id)
        if self._cache.pop(file_id, None) is None:
            p.parent.mkdir(parents=True, exist_ok=True)
        _write_file(p, entry[0])
        self._cache[file_id] = entry

    def stage(
        self, file_id: str, text: str, analysis: simlang.Analysis | None = None
    ) -> None:
        """Make ``text`` the file's content as this project reads it, with no
        disk call. Text whose bytes the project already reads for the file
        keeps that entry, with its text and analysis. Otherwise the entry
        holds ``analysis``, which the caller vouches is ``text``'s, when one
        is given; without one, it records the staged entry it replaces, when
        that holds an analysis, for ``analysis`` to start from."""
        entry = _encode(text)
        staged = self._staged.get(file_id)
        current = staged or self._cache.get(file_id)
        if current and current[0] == entry[0]:
            entry = current
        else:
            self._replaced.pop(file_id, None)
            if analysis is not None and entry[1] is not None:
                entry = (entry[0], text, analysis)
            elif staged is not None and staged[2] is not None:
                self._replaced[file_id] = staged
        self._staged[file_id] = entry

    def commit(self) -> None:
        """Write every staged edit by the write path in staging order, so
        the parts of a split land before the aggregate that imports them. An
        edit whose bytes the disk holds, committed or synced, is not written.
        Each edit's entry, analysis included, becomes the committed one."""
        for file_id, entry in list(self._staged.items()):
            if self._synced.pop(file_id, self.committed_bytes(file_id)) == entry[0]:
                self._unstage(file_id)
                self._cache[file_id] = entry
            else:
                self._store(file_id, entry)

    def discard(self, file_id: str | None = None) -> None:
        """Drop the file's staged edit, or every one. Where a sync left other
        bytes on disk, the committed bytes go back."""
        for fid in list(self._staged) if file_id is None else [file_id]:
            self._unstage(fid)
            if fid in self._synced:
                entry = self._cache[fid]
                if entry is None:
                    self.delete(fid)
                else:
                    self._store(fid, entry)

    def _unstage(self, file_id: str) -> None:
        """Drop the file's staged edit, if any, and the entry it replaced."""
        self._staged.pop(file_id, None)
        self._replaced.pop(file_id, None)

    def sync(self) -> None:
        """Write every staged edit the disk does not hold, for a tool that
        reads it; the edits stay staged. A write that raises leaves the file
        recorded as synced, so a discard puts the committed bytes back."""
        for file_id, (data, _, _) in self._staged.items():
            committed = self.committed_bytes(file_id)
            if self._synced.get(file_id, committed) == data:
                continue
            if committed is None:
                self.path(file_id).parent.mkdir(parents=True, exist_ok=True)
            if data != committed:
                self._synced[file_id] = data
            _write_file(self.path(file_id), data)
            if data == committed:
                del self._synced[file_id]

    def delete(self, file_id: str) -> None:
        self._unstage(file_id)
        self._synced.pop(file_id, None)
        self._cache.pop(file_id, None)
        p = self.path(file_id)
        if p.exists():
            p.unlink()

    def files(self) -> list[str]:
        """The ids of the project's source files on disk, sorted: every
        ``.lean`` name under the root that is a regular file or a symlink to
        one, its path parts joined with ``/``. One ``os.scandir`` walk that
        does not descend into a symlink to a directory and skips a directory
        it may not read; a missing root lists nothing. This is the list
        ``root.rglob("*.lean")`` filtered by ``is_file`` gives, without a
        ``Path`` per entry."""
        ids: list[str] = []
        dirs = [(str(self.root), "")]  # (path, file id prefix) still to list
        while dirs:
            path, prefix = dirs.pop()
            try:
                it = os.scandir(path)
            except (FileNotFoundError, NotADirectoryError, PermissionError):
                continue
            with it:
                for entry in it:
                    name = entry.name
                    if entry.is_dir(follow_symlinks=False):
                        dirs.append((entry.path, f"{prefix}{name}/"))
                    elif name.endswith(".lean"):
                        try:
                            if entry.is_file():
                                ids.append(prefix + name)
                        except OSError:  # a symlink loop, or a path gone meanwhile
                            pass
        ids.sort()
        return ids


def _verify_each_file(
    adapter, project: Project, files: list[str] | None
) -> tuple[bool, DiagnosticSet]:
    """Project check as one ``adapter.verify_file`` call per source file
    (``files``, else the project's listing); ok iff every file verifies."""
    if files is None:
        files = project.files()
    checks = [adapter.verify_file(project, file_id) for file_id in files]
    return (
        all(ok for ok, _ in checks),
        DiagnosticSet.of(d for _, diags in checks for d in diags),
    )


class SimulatedVerifier:
    """Deterministic in-memory checker for the miniature declaration language.

    Diagnostics: an unresolved name reference is an error at the referencing
    body; a declared-type/body-type mismatch under the trivial type table is
    an error; a hole in a definition-kind declaration is a warning. Names in
    ``DEFAULT_BUILTINS`` are in scope everywhere, every import must name
    a project file, and an import from which the imports lead round a cycle
    is an error at its line.

    The checker reads each file through ``Project.analysis``, so it analyses
    each file's content once and takes each body's term from the analysis,
    which interprets it when it reads the declaration. Each check still walks
    every import, the import closure's names and every declaration afresh,
    so its cost grows with the file.
    """

    # -- name resolution -------------------------------------------------

    def _exports(
        self, project: Project, file_id: str, cache: dict, seen: set
    ) -> tuple[dict[str, str], bool]:
        """The names ``file_id`` and everything it imports declare, and
        whether its imports lead to a file still on the walk (in ``seen``
        but not yet in ``cache``): an import cycle."""
        if file_id in cache:
            return cache[file_id]
        if file_id in seen:
            return {}, True
        if not project.exists(file_id):
            return {}, False
        seen.add(file_id)
        analysis = project.analysis(file_id)
        table: dict[str, str] = {}
        cyclic = False
        for imp in analysis.imports:
            dep = simlang.module_file(imp.module)
            if dep is None:
                continue
            exports, cycle = self._exports(project, dep, cache, seen)
            table.update(exports)
            cyclic = cyclic or cycle
        for decl in analysis.declarations:
            if decl.name and not decl.malformed:
                table[decl.name] = decl.type_text
        cache[file_id] = (table, cyclic)
        return table, cyclic

    # -- oracle surface ---------------------------------------------------

    def verify_file(self, project: Project, file_id: str) -> tuple[bool, DiagnosticSet]:
        if not project.exists(file_id):
            full = SourceRange(0, 0, 0, 0)
            diags = DiagnosticSet.of([Diagnostic(full, "error", f"no such file: {file_id}")])
            return (False, diags)
        diags = self._check(project, file_id, project.analysis(file_id))
        return (err_count(diags) == 0, diags)

    def _check(self, project: Project, file_id: str, analysis: simlang.Analysis) -> DiagnosticSet:
        out: list[Diagnostic] = []

        imported: dict[str, str] = {}
        cache: dict = {}
        for imp in analysis.imports:
            dep = simlang.module_file(imp.module)
            rng = SourceRange.whole_lines(imp.lineno, imp.lineno)
            if dep is None:
                out.append(Diagnostic(rng, "error", f"invalid module name '{imp.module}'"))
                continue
            if not project.exists(dep):
                out.append(Diagnostic(rng, "error", f"unknown module '{imp.module}'"))
                continue
            exports, cyclic = self._exports(project, dep, cache, {file_id})
            if cyclic:
                out.append(Diagnostic(rng, "error", f"import cycle through '{imp.module}'"))
            imported.update(exports)

        for lineno in analysis.stray_lines:
            rng = SourceRange.whole_lines(lineno, lineno)
            out.append(Diagnostic(rng, "error", "unexpected content outside a declaration"))

        scope_table = dict(DEFAULT_BUILTINS)
        scope_table.update(imported)
        for decl in analysis.declarations:
            if decl.malformed:
                out.append(
                    Diagnostic(decl.range, "error", f"malformed declaration: {decl.malformed}")
                )
                continue
            if decl.name and decl.name in scope_table and decl.name not in DEFAULT_BUILTINS:
                out.append(
                    Diagnostic(decl.range, "error", f"'{decl.name}' has already been declared")
                )
            term = decl.term
            if term.error:
                out.append(Diagnostic(decl.body_range, "error", term.error))
            elif term.is_hole:
                if decl.kind in DEFINITION_KINDS:
                    out.append(
                        Diagnostic(decl.body_range, "warning", "declaration uses placeholder")
                    )
            elif term.reference is not None:
                ref_type = scope_table.get(term.reference)
                if ref_type is None:
                    out.append(
                        Diagnostic(
                            decl.body_range,
                            "error",
                            f"unknown identifier '{term.reference}'",
                        )
                    )
                elif ref_type != decl.type_text:
                    out.append(
                        Diagnostic(
                            decl.body_range,
                            "error",
                            f"type mismatch: expected '{decl.type_text}', got '{ref_type}'",
                        )
                    )
            if decl.name:
                scope_table[decl.name] = decl.type_text
        return DiagnosticSet.of(out)

    def verify_project(
        self, project: Project, files: list[str] | None = None
    ) -> tuple[bool, DiagnosticSet]:
        return _verify_each_file(self, project, files)

    def goal_state(self, project: Project, file_id: str, hole: SourceRange) -> GoalState | None:
        """Goal and preceding context of the declaration at ``hole``, or None:
        a lookup in the analysis, asked only of a file that verifies."""
        declarations = project.analysis(file_id).declarations
        i = simlang.declaration_at(declarations, hole)
        if i is None:
            return None
        context = tuple((d.name, d.type_text) for d in declarations[:i] if d.name)
        return GoalState(goal=declarations[i].type_text, context=context)


_DIAG_LINE_RE = re.compile(
    r"^(?P<path>[^\s:][^:]*):(?P<line>\d+):(?P<col>\d+):\s*(?P<sev>error|warning|info):\s?(?P<msg>.*)$"
)


def parse_toolchain_output(output: str, file_id: str, file_line_count: int) -> DiagnosticSet:
    """Parse per-file check output into diagnostics.

    Lines matching ``path:line:col: severity: message`` (1-based lines,
    0-based columns) open a diagnostic; indented lines continue the last
    message; anything else becomes an info diagnostic spanning the whole
    file so no toolchain output is dropped.
    """
    full_range = SourceRange.whole_lines(0, max(file_line_count - 1, 0))
    diags: list[Diagnostic] = []
    open_diag: dict | None = None

    def flush():
        nonlocal open_diag
        if open_diag is not None:
            diags.append(
                Diagnostic(open_diag["range"], open_diag["sev"], "\n".join(open_diag["msg"]))
            )
            open_diag = None

    for raw in output.splitlines():
        m = _DIAG_LINE_RE.match(raw)
        if m:
            flush()
            line = max(int(m.group("line")) - 1, 0)
            col = int(m.group("col"))
            open_diag = {
                "range": SourceRange(line, col, line, col),
                "sev": m.group("sev"),
                "msg": [m.group("msg")],
            }
        elif open_diag is not None and (not raw.strip() or raw[:1] in (" ", "\t")):
            open_diag["msg"].append(raw)
        elif raw.strip():
            flush()
            diags.append(Diagnostic(full_range, "info", raw))
    flush()
    return DiagnosticSet.of(diags)


class ExternalVerifier:
    """Adapter over a toolchain's single-file check command.

    The command is a template list; ``{file}`` expands to the project-relative
    path, ``{abs_file}`` to the absolute path, ``{root}`` to the project root.
    The working directory is the project root. The tool reads the disk, so
    each check first syncs the project's staged candidates to it.
    """

    def __init__(
        self,
        command: list[str],
        project_command: list[str] | None = None,
        timeout: float = 600.0,
    ):
        self.command = list(command)
        self.project_command = list(project_command) if project_command else None
        self.timeout = timeout

    def _run(self, argv: list[str], cwd: Path) -> tuple[int, str]:
        try:
            code, stdout, stderr = run_process(argv, self.timeout, cwd=cwd)
        except (FileNotFoundError, PermissionError, NotADirectoryError) as exc:
            raise VerifierLaunchError(f"cannot launch verifier {argv[0]!r}: {exc}") from exc
        if code is None:
            raise VerifierLaunchError(f"verifier timed out after {self.timeout}s")
        return code, stdout + stderr

    def verify_file(self, project: Project, file_id: str) -> tuple[bool, DiagnosticSet]:
        project.sync()
        argv = [
            a.format(file=file_id, abs_file=str(project.path(file_id)), root=str(project.root))
            for a in self.command
        ]
        line_count = 0
        if project.exists(file_id):
            line_count = project.read(file_id).count("\n") + 1
        code, output = self._run(argv, project.root)
        diags = parse_toolchain_output(output, file_id, line_count)
        if code != 0 and err_count(diags) == 0:
            full = SourceRange.whole_lines(0, max(line_count - 1, 0))
            diags = diags.union(
                DiagnosticSet.of(
                    [Diagnostic(full, "error", f"verifier exited with status {code}")]
                )
            )
        return (err_count(diags) == 0, diags)

    def verify_project(
        self, project: Project, files: list[str] | None = None
    ) -> tuple[bool, DiagnosticSet]:
        if self.project_command is not None:
            project.sync()
            argv = [a.format(root=str(project.root)) for a in self.project_command]
            code, output = self._run(argv, project.root)
            diags = parse_toolchain_output(output, "<project>", 1)
            if code != 0 and err_count(diags) == 0:
                full = SourceRange(0, 0, 0, 0)
                diags = diags.union(
                    DiagnosticSet.of(
                        [Diagnostic(full, "error", f"project build exited with status {code}")]
                    )
                )
            return (err_count(diags) == 0, diags)
        return _verify_each_file(self, project, files)

    def goal_state(self, project: Project, file_id: str, hole: SourceRange) -> GoalState | None:
        return None


@dataclass
class Verifier:
    """Engine-facing oracle: adapter plus instrumentation.

    Every ``verify_file`` call emits exactly one verifier-check metrics
    event; project checks emit a distinct event and never count toward the
    verifier-call total. A goal-state query needs no line: asked only of a
    file whose last counted check found no error, it runs no check.
    """

    adapter: object
    metrics: MetricsWriter
    calls: int = field(default=0, init=False)

    def verify_file(self, project: Project, file_id: str) -> tuple[bool, DiagnosticSet]:
        ok, diags = self.adapter.verify_file(project, file_id)
        self.calls += 1
        size = lines = 0
        if project.exists(file_id):
            text = project.read(file_id)
            size = len(text.encode("utf-8"))
            lines = text.count("\n") + 1
        self.metrics.emit(
            "lean_check",
            {
                "lean_file": file_id,
                "ok": ok,
                "errors": err_count(diags),
                "warnings": diags.warning_count,
                "size": size,
                "lines": lines,
            },
        )
        return ok, diags

    def verify_project(self, project: Project) -> tuple[bool, DiagnosticSet]:
        """Check the whole project over one listing of its files, which the
        ``project_check`` event counts."""
        files = project.files()
        ok, diags = self.adapter.verify_project(project, files)
        self.metrics.emit(
            "project_check", {"ok": ok, "errors": err_count(diags), "files": len(files)}
        )
        return ok, diags

    def goal_state(self, project: Project, file_id: str, hole: SourceRange) -> GoalState | None:
        return self.adapter.goal_state(project, file_id, hole)


def header_scope(analysis: simlang.Analysis) -> Scope:
    """Scope over the header prefix (``simlang.HEADER_BOUND``) of the
    analysed file; empty if none."""
    span = analysis.header_span
    if span is None:
        return Scope()
    return Scope.of(SourceRange.whole_lines(span[0], span[1]))
