"""Patch-proposal operators: the pluggable layer that suggests edits.

Operators only propose; the kernel alone certifies. An operator set maps
request kinds to handlers, which are either in-process callables (the
deterministic scripted operators used for testing) or an external
agent-process bridge that serializes the request to stdin, takes the final
fenced code block of stdout as the proposal, and writes a per-call
transcript log with STDOUT:/STDERR: sections and an optional token footer.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from .diagnostics import Scope, SourceRange
from .instrumentation import MetricsWriter, parse_token_footer
from .kernel import PatchProposal
from .verifier import run_process

# Short agent-role tags used in per-call log names and metrics payloads.
AGENT_ROLES = {
    "gen_skeleton": "s",
    "repair_patch": "b",
    "fix_compile_error": "b",
    "plan": "c",
    "replan": "c",
    "propose_proof_patch": "a",
}
OPERATOR_KINDS = tuple(AGENT_ROLES)

_FENCED_BLOCK_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


class OperatorConfigError(RuntimeError):
    """No handler registered for a requested operator kind."""


class OperatorRequest(namedtuple("OperatorRequest", "kind payload")):
    """An immutable tuple, with the caveats the ``diagnostics`` module gives
    for its records."""

    __slots__ = ()

    def __new__(cls, kind: str, payload: dict):
        if kind not in OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
        return tuple.__new__(cls, (kind, payload))

    def json_payload(self) -> dict:
        def conv(v):
            # a SourceRange is a tuple: convert it before the generic case
            if isinstance(v, SourceRange):
                return v.as_dict()
            if isinstance(v, Scope):
                return [r.as_dict() for r in v.ranges]
            if isinstance(v, dict):
                return {k: conv(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [conv(x) for x in v]
            return v

        return {"kind": self.kind, "payload": conv(self.payload)}


# Kinds whose proposal is free text (a plan or a skeleton) rather than a
# range-bounded patch.
TEXT_KINDS = frozenset({"gen_skeleton", "plan", "replan"})


class OperatorResponse(NamedTuple):
    ok: bool
    patch: PatchProposal | None = None
    text: str | None = None
    tokens_used: int | None = None
    transcript_ref: str | None = None
    error: str | None = None

    @classmethod
    def failed(
        cls, error: str, transcript_ref: str | None = None, tokens_used: int | None = None
    ) -> "OperatorResponse":
        return cls(ok=False, error=error, transcript_ref=transcript_ref, tokens_used=tokens_used)


Handler = Callable[[OperatorRequest], OperatorResponse]


def extract_fenced_block(text: str) -> str | None:
    """The last fenced code block in free-form agent output, if any."""
    blocks = _FENCED_BLOCK_RE.findall(text)
    if not blocks:
        return None
    return blocks[-1]


def format_per_call_log(stdout: str, stderr: str) -> str:
    return f"STDOUT:\n{stdout}\nSTDERR:\n{stderr}\n"


def write_per_call_log(
    log_dir: Path,
    pipeline: str,
    kind: str,
    task_id: str,
    seq: int,
    stdout: str,
    stderr: str,
) -> Path:
    """Persist one invocation transcript in a new file; the returned path is
    the log id that the call's ``oracle_result`` line names. That line also
    holds the count of the transcript's token footer, read once when the
    bridge writes the log. The file is created exclusively under sequence
    number ``seq``, or the first one above it that no log of the same name
    holds, so a run never overwrites an earlier run's transcript."""
    agent = AGENT_ROLES[kind]
    safe_task = re.sub(r"[^A-Za-z0-9_.-]", "-", task_id) or "task"
    log_dir.mkdir(parents=True, exist_ok=True)
    text = format_per_call_log(stdout, stderr)
    while True:
        path = log_dir / f"{pipeline}_agent_{agent}_task_{safe_task}_{seq:05d}.log"
        try:
            with path.open("x", encoding="utf-8") as fh:
                fh.write(text)
            return path
        except FileExistsError:
            seq += 1


@dataclass
class ExternalBridge:
    """Run one agent process per invocation and log the full transcript.

    ``command`` is an argv template; the request JSON document is written to
    the process's stdin. The final fenced block of stdout becomes the
    proposal text. Launch failures, timeouts, and output without a fenced
    block all come back as failed responses that consume one attempt. Every
    response but a launch failure's carries the token count of its
    transcript's footer, failed ones too: a timed-out call's is read from
    its partial stdout.
    """

    command: list[str]
    log_dir: Path
    pipeline: str = "run"
    timeout: float = 600.0
    _seq: int = field(default=0, init=False)

    def _log(self, request: OperatorRequest, stdout: str, stderr: str) -> tuple[str, int | None]:
        """Write the call's transcript: its path, and the count of its token
        footer."""
        task_id = str(request.payload.get("task_id", request.payload.get("index", "task")))
        path = write_per_call_log(
            self.log_dir, self.pipeline, request.kind, task_id, self._seq + 1, stdout, stderr
        )
        # the number used: above the next one when an earlier run holds that log
        self._seq = int(path.stem.rsplit("_", 1)[1])
        return str(path), parse_token_footer(format_per_call_log(stdout, stderr))

    def __call__(self, request: OperatorRequest) -> OperatorResponse:
        doc = json.dumps(request.json_payload(), ensure_ascii=False)
        try:
            code, stdout, stderr = run_process(self.command, self.timeout, input=doc)
        except (FileNotFoundError, PermissionError) as exc:
            log_path, _ = self._log(request, "", f"launch failure: {exc}")
            return OperatorResponse.failed(f"launch failure: {exc}", log_path)  # nothing ran
        if code is None:
            # below what the agent wrote before the kill, so a footer there counts
            if stderr and not stderr.endswith("\n"):
                stderr += "\n"
            stderr += f"timeout after {self.timeout}s"
        log_path, tokens = self._log(request, stdout, stderr)
        if code is None:
            return OperatorResponse.failed("timeout", log_path, tokens)

        if request.kind in TEXT_KINDS:
            block = extract_fenced_block(stdout)
            text = block if block is not None else stdout.strip()
            if not text:
                return OperatorResponse.failed("empty output", log_path, tokens)
            return OperatorResponse(ok=True, text=text, tokens_used=tokens, transcript_ref=log_path)

        block = extract_fenced_block(stdout)
        if block is None:
            return OperatorResponse.failed("no fenced block in output", log_path, tokens)
        target = request.payload.get("target_range")
        file_id = request.payload.get("file")
        if target is None or file_id is None:
            return OperatorResponse.failed("request lacks a target range", log_path, tokens)
        if isinstance(target, dict):
            target = SourceRange.from_dict(target)
        replacement = block.rstrip("\n")
        if target.end_col == 0 and target.end_line > target.start_line:
            replacement += "\n"  # line-oriented region: keep the file's line structure
        patch = PatchProposal(file_id, target, replacement, f"bridge:{request.kind}")
        return OperatorResponse(ok=True, patch=patch, tokens_used=tokens, transcript_ref=log_path)


def _file_snapshot(payload: dict) -> dict | None:
    text = payload.get("file_text")
    if not isinstance(text, str):
        return None
    return {
        "exists": True,
        "size": len(text.encode("utf-8")),
        "lines": text.count("\n") + 1,
    }


class OperatorSet:
    """Registry of handlers plus the single entry point, ``invoke``.

    Every invocation emits exactly one oracle-result metrics event tagged
    with the agent role, whether it succeeded or not; oracle-call counts in
    accounting are counts of these events.
    """

    def __init__(self, handlers: dict[str, Handler], metrics: MetricsWriter):
        unknown = set(handlers) - set(OPERATOR_KINDS)
        if unknown:
            raise OperatorConfigError(f"unknown operator kinds: {sorted(unknown)}")
        self.handlers = dict(handlers)
        self.metrics = metrics
        self.invocations = 0
        self.tokens_used = 0

    def invoke(self, request: OperatorRequest) -> OperatorResponse:
        handler = self.handlers.get(request.kind)
        if handler is None:
            raise OperatorConfigError(f"no operator registered for kind {request.kind!r}")
        try:
            response = handler(request)
        except Exception as exc:  # a crashing operator consumes the attempt
            response = OperatorResponse.failed(f"operator raised: {exc}")
        self.invocations += 1
        if response.tokens_used:
            self.tokens_used += response.tokens_used
        data = {
            "kind": request.kind,
            "agent": AGENT_ROLES[request.kind],
            "ok": response.ok,
            "task_id": str(request.payload.get("task_id", "")),
        }
        if response.tokens_used is not None:
            data["tokens_used"] = response.tokens_used
        if response.transcript_ref:
            data["log_path"] = response.transcript_ref
        if response.error:
            data["error"] = response.error
        if response.transcript_ref:
            snap = _file_snapshot(request.payload)
            if snap is not None:
                data["file_snapshot"] = snap
        self.metrics.emit("oracle_result", data)
        return response
