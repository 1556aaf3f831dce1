"""Verification oracles: project store, simulated and external adapters.

The simulated adapter is a pure function of file bytes and is the desk-scale
test oracle. The external adapter shells out to a configurable single-file
check command and parses its output; it never silently drops toolchain
output. Both present the same surface: ``verify_file`` returning
``(ok, DiagnosticSet)`` where ok holds iff there are zero error-level
diagnostics.
"""

from __future__ import annotations

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
from .simlang import DEFAULT_HEADER_BOUND, DEFINITION_KINDS

DEFAULT_BUILTINS = {"trivial": "True"}


class VerifierLaunchError(RuntimeError):
    """Toolchain could not be launched; distinct from a failed verification."""


@dataclass(frozen=True)
class VerifierEnvironment:
    toolchain_id: str
    dependency_revision: str
    adapter: str  # "external" | "simulated"

    def as_dict(self) -> dict:
        return {
            "toolchain_id": self.toolchain_id,
            "dependency_revision": self.dependency_revision,
            "adapter": self.adapter,
        }


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


class Project:
    """A project is a directory tree of source files addressed by relative path.

    The project keeps, per file, the bytes it last read or wrote and their
    decoded text, so unchanged bytes are read from disk once. Writes go to
    disk first and then to the cache; a write that raises drops the file's
    entry, so the next read goes to disk.

    Ownership rule: while a run segment runs, its ``Project`` is the only
    writer of the root. A change made under the root by anything else is
    not seen by a live ``Project``; build a new one after it (each pipeline
    segment builds its own, so ``--resume`` starts cold). ``reload_bytes``
    is the one read that always goes to disk.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # file_id -> (bytes, decoded text or None until first read)
        self._cache: dict[str, tuple[bytes, str | None]] = {}

    def path(self, file_id: str) -> Path:
        return self.root / file_id

    def exists(self, file_id: str) -> bool:
        return file_id in self._cache or self.path(file_id).is_file()

    def read(self, file_id: str) -> str:
        data, text = self._cache.get(file_id) or self._load(file_id)
        if text is None:
            text = _decode(data)
            self._cache[file_id] = (data, text)
        return text

    def read_bytes(self, file_id: str) -> bytes:
        return (self._cache.get(file_id) or self._load(file_id))[0]

    def reload_bytes(self, file_id: str) -> bytes | None:
        """The file's bytes read from disk, bypassing the cache and then
        replacing its entry; None when the file is absent."""
        self._cache.pop(file_id, None)
        try:
            return self._load(file_id)[0]
        except FileNotFoundError:
            return None

    def _load(self, file_id: str) -> tuple[bytes, str | None]:
        entry = (self.path(file_id).read_bytes(), None)
        self._cache[file_id] = entry
        return entry

    def write(self, file_id: str, text: str) -> None:
        data = text.encode("utf-8")
        # text holding "\r" reads back with universal newlines, so decode it then
        self._store(file_id, data, None if "\r" in text else text)

    def write_bytes(self, file_id: str, data: bytes) -> None:
        self._store(file_id, bytes(data), None)

    def _store(self, file_id: str, data: bytes, text: str | None) -> None:
        p = self.path(file_id)
        if self._cache.pop(file_id, None) is None:
            p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(data)
        self._cache[file_id] = (data, text)

    def delete(self, file_id: str) -> None:
        self._cache.pop(file_id, None)
        p = self.path(file_id)
        if p.exists():
            p.unlink()

    def ensure(self, file_id: str) -> None:
        if not self.exists(file_id):
            self.write(file_id, "")

    def files(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(
            str(p.relative_to(self.root)).replace("\\", "/")
            for p in self.root.rglob("*.lean")
            if p.is_file()
        )


class SimulatedVerifier:
    """Deterministic in-memory checker for the miniature declaration language.

    Diagnostics: an unresolved name reference is an error at the referencing
    body; a declared-type/body-type mismatch under the trivial type table is
    an error; a hole in a definition-kind declaration is a warning.
    """

    supports_goal_state = True

    def __init__(
        self,
        builtins: dict[str, str] | None = None,
        external_modules: frozenset[str] = frozenset(),
        header_bound: int = DEFAULT_HEADER_BOUND,
    ):
        self.builtins = dict(DEFAULT_BUILTINS if builtins is None else builtins)
        self.external_modules = external_modules
        self.header_bound = header_bound

    # -- name resolution -------------------------------------------------

    def _exports(self, project: Project, file_id: str, cache: dict, seen: set) -> dict[str, str]:
        if file_id in cache:
            return cache[file_id]
        if file_id in seen or not project.exists(file_id):
            return {}
        seen.add(file_id)
        parsed = simlang.analyse(project.read(file_id), self.header_bound).parsed
        table: dict[str, str] = {}
        for imp in parsed.imports:
            dep = simlang.module_file(imp.module)
            table.update(self._exports(project, dep, cache, seen))
        for decl in parsed.declarations:
            if decl.name and not decl.malformed:
                table[decl.name] = decl.type_text
        cache[file_id] = table
        return table

    # -- oracle surface ---------------------------------------------------

    def verify_file(self, project: Project, file_id: str) -> tuple[bool, DiagnosticSet]:
        if not project.exists(file_id):
            full = SourceRange(0, 0, 0, 0)
            diags = DiagnosticSet.of([Diagnostic(full, "error", f"no such file: {file_id}")])
            return (False, diags)
        analysis = simlang.analyse(project.read(file_id), self.header_bound)
        diags = self._check(project, file_id, analysis)
        return (err_count(diags) == 0, diags)

    def _check(self, project: Project, file_id: str, analysis: simlang.Analysis) -> DiagnosticSet:
        parsed = analysis.parsed
        out: list[Diagnostic] = []

        imported: dict[str, str] = {}
        cache: dict = {}
        for imp in parsed.imports:
            if imp.module in self.external_modules:
                continue
            dep = simlang.module_file(imp.module)
            if not project.exists(dep):
                rng = SourceRange.whole_lines(imp.lineno, imp.lineno)
                out.append(Diagnostic(rng, "error", f"unknown module '{imp.module}'"))
                continue
            imported.update(self._exports(project, dep, cache, {file_id}))

        for lineno in parsed.stray_lines:
            rng = SourceRange.whole_lines(lineno, lineno)
            out.append(Diagnostic(rng, "error", "unexpected content outside a declaration"))

        scope_table = dict(self.builtins)
        scope_table.update(imported)
        for decl, body in zip(parsed.declarations, analysis.body_tokens):
            if decl.malformed:
                out.append(
                    Diagnostic(decl.range, "error", f"malformed declaration: {decl.malformed}")
                )
                continue
            if decl.name and decl.name in scope_table and decl.name not in self.builtins:
                out.append(
                    Diagnostic(decl.range, "error", f"'{decl.name}' has already been declared")
                )
            term = simlang.interpret_body(body)
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

    def verify_project(self, project: Project) -> tuple[bool, DiagnosticSet]:
        all_diags: list[Diagnostic] = []
        ok = True
        for file_id in project.files():
            f_ok, diags = self.verify_file(project, file_id)
            ok = ok and f_ok
            all_diags.extend(diags)
        return (ok, DiagnosticSet.of(all_diags))

    def goal_state(
        self, project: Project, file_id: str, hole: SourceRange
    ) -> GoalState | None:
        """Goal and preceding context of the declaration at ``hole``; None
        unless the file exists and verifies. Not a counted verifier call."""
        if not project.exists(file_id):
            return None
        analysis = simlang.analyse(project.read(file_id), self.header_bound)
        if err_count(self._check(project, file_id, analysis)) > 0:
            return None
        declarations = analysis.parsed.declarations
        target = None
        for decl in declarations:
            if decl.range.intersects(hole):
                target = decl
                break
        if target is None:
            return None
        context = tuple(
            (d.name, d.type_text)
            for d in declarations
            if d.name and d.range.start < target.range.start
        )
        return GoalState(goal=target.type_text, context=context)


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
    The working directory is the project root.
    """

    supports_goal_state = False

    def __init__(
        self,
        command: list[str],
        project_command: list[str] | None = None,
        timeout: float = 600.0,
        header_bound: int = DEFAULT_HEADER_BOUND,
    ):
        self.command = list(command)
        self.project_command = list(project_command) if project_command else None
        self.timeout = timeout
        self.header_bound = header_bound

    def _run(self, argv: list[str], cwd: Path) -> tuple[int, str]:
        try:
            proc = subprocess.run(
                argv,
                cwd=str(cwd),
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except (FileNotFoundError, PermissionError, NotADirectoryError) as exc:
            raise VerifierLaunchError(f"cannot launch verifier {argv[0]!r}: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise VerifierLaunchError(f"verifier timed out after {self.timeout}s") from exc
        return proc.returncode, (proc.stdout or "") + (proc.stderr or "")

    def verify_file(self, project: Project, file_id: str) -> tuple[bool, DiagnosticSet]:
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

    def verify_project(self, project: Project) -> tuple[bool, DiagnosticSet]:
        if self.project_command is not None:
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
        all_diags: list[Diagnostic] = []
        ok = True
        for file_id in project.files():
            f_ok, diags = self.verify_file(project, file_id)
            ok = ok and f_ok
            all_diags.extend(diags)
        return (ok, DiagnosticSet.of(all_diags))

    def goal_state(self, project: Project, file_id: str, hole: SourceRange) -> GoalState | None:
        return None


@dataclass
class Verifier:
    """Engine-facing oracle: adapter plus instrumentation.

    Every ``verify_file`` call emits exactly one verifier-check metrics
    event; project checks emit a distinct event and never count toward the
    verifier-call total. Goal-state queries are logged nowhere and excluded
    from all accounting.
    """

    adapter: object
    metrics: object | None = None
    header_bound: int = DEFAULT_HEADER_BOUND
    calls: int = field(default=0, init=False)

    def _emit(self, event: str, data: dict) -> None:
        if self.metrics is not None:
            self.metrics.emit(event, data)

    def verify_file(self, project: Project, file_id: str) -> tuple[bool, DiagnosticSet]:
        ok, diags = self.adapter.verify_file(project, file_id)
        self.calls += 1
        size = lines = 0
        if project.exists(file_id):
            text = project.read(file_id)
            size = len(text.encode("utf-8"))
            lines = simlang.analyse(text, self.header_bound).parsed.line_count
        self._emit(
            "lean_check",
            {
                "lean_file": file_id,
                "ok": ok,
                "errors": err_count(diags),
                "warnings": sum(1 for d in diags if d.severity == "warning"),
                "size": size,
                "lines": lines,
            },
        )
        return ok, diags

    def verify_project(self, project: Project) -> tuple[bool, DiagnosticSet]:
        ok, diags = self.adapter.verify_project(project)
        self._emit(
            "project_check",
            {"ok": ok, "errors": err_count(diags), "files": len(project.files())},
        )
        return ok, diags

    def goal_state(self, project: Project, file_id: str, hole: SourceRange) -> GoalState | None:
        if not getattr(self.adapter, "supports_goal_state", False):
            return None
        return self.adapter.goal_state(project, file_id, hole)


def header_scope(text: str, bound: int = DEFAULT_HEADER_BOUND) -> Scope:
    """Scope over the bounded contiguous header prefix; empty if none."""
    span = simlang.analyse(text, bound).parsed.header_span
    if span is None:
        return Scope()
    return Scope.of(SourceRange.whole_lines(span[0], span[1]))
