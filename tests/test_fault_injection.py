"""Fault injection at the write and call boundaries of a run.

Each case raises once at the N-th crossing of one boundary, then resumes
with ``--resume`` semantics until both stages are complete. The project
bytes, the provenance map (the names in the stage-1 ``item_end`` lines)
and the reported targets, solved, SCC and PSR must equal those of an
uninterrupted run. The faults are ``BaseException`` subclasses, so no
``except Exception`` on the way swallows them. In ``crash`` mode the
segment unwinds as after an exception, closing its streams. In ``kill``
mode no write lands after the fault fires, as when the process dies
there. Both corpora are the toy corpus; the second splits every
section file in stage 2.
"""

from __future__ import annotations

import os
from fnmatch import fnmatch
from pathlib import Path

import pytest

from autoform import accounting, pipeline, verifier
from autoform.corpus import dump_dataset
from autoform.instrumentation import MetricsWriter, read_events
from autoform.operators import OperatorSet
from autoform.pipeline import RunConfig, run_proof_stage, run_statement_stage
from autoform.toydata import build_toy_records
from autoform.verifier import SimulatedVerifier

from helpers import tree_hash

SPLIT_THRESHOLD = 10  # below every toy section file's length after stage 1


class Crash(BaseException):
    """An injected fault."""


class Fault:
    """Wraps ``owner.name`` so that its ``n``-th matching call raises
    ``Crash``, before the call or, with ``after``, once it has returned."""

    def __init__(self, monkeypatch, owner, name, n, after=False, matches=None):
        self.n, self.after, self.calls, self.fired = n, after, 0, False
        real = getattr(owner, name)
        matches = matches or (lambda *args: True)

        def wrapped(*args, **kwargs):
            hit = not self.fired and matches(*args) and self._count()
            if hit and not self.after:
                self.fired = True
                raise Crash(f"{name} call {n}")
            result = real(*args, **kwargs)
            if hit:
                self.fired = True
                raise Crash(f"{name} call {n}, after it returned")
            return result

        monkeypatch.setattr(owner, name, wrapped)

    def _count(self) -> bool:
        self.calls += 1
        return self.calls == self.n


class Kill:
    """Makes ``fault`` a kill: from the moment it fires until its run
    segment has unwound, no write lands (stream lines, project files and
    deletions, and renames)."""

    WRITES = (
        (MetricsWriter, "_write_line"),
        (verifier, "_write_file"),
        (Path, "write_bytes"),
        (Path, "write_text"),
        (Path, "unlink"),
        (os, "replace"),
    )

    def __init__(self, monkeypatch, fault: Fault):
        self.fault, self.unwound = fault, False
        for owner, name in self.WRITES:
            monkeypatch.setattr(owner, name, self._unless_dead(getattr(owner, name)))
        real_segment = pipeline._run_segment

        def segment(*args):
            try:
                return real_segment(*args)
            finally:
                self.unwound = self.fault.fired

        monkeypatch.setattr(pipeline, "_run_segment", segment)

    def _unless_dead(self, real):
        def write(*args, **kwargs):
            if self.fault.fired and not self.unwound:
                return None
            return real(*args, **kwargs)

        return write


def make_config(work: Path, split: bool) -> RunConfig:
    work.mkdir(parents=True)
    dump_dataset(build_toy_records(), work / "toy.json")
    return RunConfig(
        dataset=str(work / "toy.json"),
        project=str(work / "project"),
        runs_dir=str(work / "runs"),
        operators="toy",
        split_threshold=SPLIT_THRESHOLD if split else 1200,
    )


def run_to_completion(cfg: RunConfig) -> int:
    """Both stages, each resumed after every crash until it completes;
    returns the number of crashes."""
    crashes = 0
    for stage, run in ((1, run_statement_stage), (2, run_proof_stage)):
        cfg.stage, cfg.resume = stage, False
        while True:
            try:
                run(cfg)
                break
            except Crash:
                crashes += 1
                cfg.resume = True
    return crashes


def provenance(statement_events: list[dict]) -> dict[str, list[int]]:
    """Declaration name -> sorted indices of the stage-1 items whose
    ``item_end`` line names it."""
    indices: dict[str, set[int]] = {}
    for event in statement_events:
        if event["event"] == "item_end":
            for name in event["data"]["names"]:
                indices.setdefault(name, set()).add(event["data"]["index"])
    return {name: sorted(found) for name, found in sorted(indices.items())}


def outcome(cfg: RunConfig) -> dict:
    runs = Path(cfg.runs_dir)
    statement = read_events(runs / "metrics_statement.jsonl")
    report = accounting.build_report(statement + read_events(runs / "metrics_proof.jsonl"))
    return {
        "tree": tree_hash(Path(cfg.project)),
        "provenance": provenance(statement),
        "targets": report.targets,
        "solved": report.solved,
        "scc": report.metrics.scc,
        "psr": report.metrics.psr,
    }


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    out = {}
    for split in (False, True):
        cfg = make_config(tmp_path_factory.mktemp("solid") / "work", split)
        assert run_to_completion(cfg) == 0
        out[split] = outcome(cfg)
    return out


def lean_file(path, *args) -> bool:
    return path.suffix == ".lean"


def item_end(writer, event, *args) -> bool:
    return event == "item_end"


def lean_check(writer, event, *args) -> bool:
    return event == "lean_check"


def oracle_result(writer, event, *args) -> bool:
    return event == "oracle_result"


# (owner, method, call numbers, after, matches). The call numbers cross
# both stages on both corpora: the toy run makes 31 + 36 verifier calls
# (the last 4 of each stage are the closing project check), 27 + 32
# (split: 27 + 8) operator calls, each with its oracle_result line,
# 27 + 32 (split: 27 + 20) lean_check lines, 24 + 16 item_end lines and
# 24 + 16 project file writes, all of them commits. Each stage is one
# segment, so it writes one run_start line and one run_end line.
BOUNDARIES = {
    "verifier call": (SimulatedVerifier, "verify_file", (1, 5, 31, 40, 66), False, None),
    "verifier call, after it returns": (SimulatedVerifier, "verify_file", (5, 40), True, None),
    "operator call": (OperatorSet, "invoke", (1, 5, 28, 35), False, None),
    "commit write, before it lands": (verifier, "_write_file", (1, 24, 25, 40), False, lean_file),
    "commit write, after it lands": (verifier, "_write_file", (1, 24, 25, 40), True, lean_file),
    "run_start line": (MetricsWriter, "run_start", (1, 2), False, None),
    "run_start line, after it lands": (MetricsWriter, "run_start", (1, 2), True, None),
    "lean_check line, after it lands": (MetricsWriter, "emit", (1, 5, 27, 40), True, lean_check),
    "oracle_result line": (MetricsWriter, "emit", (1, 27, 28, 35), False, oracle_result),
    "oracle_result line, after it lands": (MetricsWriter, "emit", (1, 28), True, oracle_result),
    "item_end line": (MetricsWriter, "emit", (1, 24, 25, 40), False, item_end),
    "item_end line, after it lands": (
        MetricsWriter,
        "emit",
        (1, 3, 12, 24, 25, 30, 40),
        True,
        item_end,
    ),
    "run_end line": (MetricsWriter, "run_end", (1, 2), False, None),
    "run_end line, after it lands": (MetricsWriter, "run_end", (1, 2), True, None),
}

CASES = [
    pytest.param(
        boundary,
        n,
        split,
        mode,
        id=f"{'kill-' if mode == 'kill' else ''}{boundary}-{n}-{'split' if split else 'toy'}",
    )
    for boundary, (_, _, ns, _, _) in BOUNDARIES.items()
    for n in ns
    for split in (False, True)
    for mode in ("crash", "kill")
]


@pytest.mark.parametrize("boundary, n, split, mode", CASES)
def test_crash_then_resume_matches_an_uninterrupted_run(
    boundary, n, split, mode, tmp_path, monkeypatch, uninterrupted
):
    owner, name, _, after, matches = BOUNDARIES[boundary]
    cfg = make_config(tmp_path / "work", split)
    fault = Fault(monkeypatch, owner, name, n, after=after, matches=matches)
    if mode == "kill":
        Kill(monkeypatch, fault)
    assert run_to_completion(cfg) == 1
    assert fault.fired
    monkeypatch.undo()
    assert outcome(cfg) == uninterrupted[split]


def test_provenance_of_committed_items_survives_a_crash(tmp_path, monkeypatch, uninterrupted):
    # the verifier dies on its 5th call, inside item 4; items 1-3 are
    # committed and the cursor is past them, so their item_end lines name them
    cfg = make_config(tmp_path / "work", split=False)
    Fault(monkeypatch, SimulatedVerifier, "verify_file", 5)
    cfg.stage = 1
    with pytest.raises(Crash):
        run_statement_stage(cfg)
    monkeypatch.undo()
    stream = Path(cfg.runs_dir) / "metrics_statement.jsonl"
    assert provenance(read_events(stream)) == {
        "c1s1Alpha": [1],
        "c1s1AlphaSpec": [2],
        "c1s1Beta": [3],
    }
    cfg.resume = True
    run_statement_stage(cfg)
    recorded = provenance(read_events(stream))
    assert recorded == uninterrupted[False]["provenance"]
    assert len(recorded) == 24


def stream_lines(runs: Path) -> int:
    """The lines of every metrics stream in ``runs``."""
    return sum(len(path.read_bytes().splitlines()) for path in runs.glob("metrics_*.jsonl"))


@pytest.mark.parametrize("split", [False, True], ids=["toy", "split"])
def test_every_stream_line_passes_the_kill_harness_write_point(tmp_path, monkeypatch, split):
    # Kill silences MetricsWriter._write_line; a line written any other way
    # would land after a kill
    cfg = make_config(tmp_path / "work", split)
    real = MetricsWriter._write_line
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(MetricsWriter, "_write_line", counted)
    assert run_to_completion(cfg) == 0
    assert len(calls) == stream_lines(Path(cfg.runs_dir)) > 0


def test_no_metrics_line_lands_between_a_kill_and_the_unwind(tmp_path, monkeypatch):
    # the 5th lean_check line lands, then the process dies; the line the
    # dying writer still tries to emit must not land
    cfg = make_config(tmp_path / "work", split=False)
    stream = Path(cfg.runs_dir) / "metrics_statement.jsonl"
    fault = Fault(monkeypatch, MetricsWriter, "emit", 5, after=True, matches=lean_check)
    Kill(monkeypatch, fault)
    at_fault, at_unwind = [], []
    faulty_emit, killed_segment = MetricsWriter.emit, pipeline._run_segment

    def emit(writer, *args, **kwargs):
        try:
            return faulty_emit(writer, *args, **kwargs)
        except Crash:
            at_fault.append(len(read_events(stream)))
            writer.emit("tick", {"after": "the kill"})
            raise

    def segment(*args):
        try:
            return killed_segment(*args)
        except Crash:
            at_unwind.append(len(read_events(stream)))
            raise

    monkeypatch.setattr(MetricsWriter, "emit", emit)
    monkeypatch.setattr(pipeline, "_run_segment", segment)
    assert run_to_completion(cfg) == 1
    assert len(at_fault) == 1 and at_fault[0] > 5
    assert at_fault == at_unwind



RUN_FILES = ("metrics_*.jsonl",)


@pytest.mark.parametrize("crash", [False, True], ids=["uninterrupted", "crash-then-resume"])
def test_the_runs_directory_holds_only_the_metrics_streams(tmp_path, monkeypatch, crash):
    # the streams are the record of a run: no other file is kept beside them
    cfg = make_config(tmp_path / "work", split=False)
    if crash:
        Fault(monkeypatch, SimulatedVerifier, "verify_file", 5)
    assert run_to_completion(cfg) == int(crash)
    entries = sorted(p.name for p in Path(cfg.runs_dir).iterdir())
    assert [e for e in entries if not any(fnmatch(e, pattern) for pattern in RUN_FILES)] == []
    # one run_end line per segment that ran to its end
    runs = Path(cfg.runs_dir)
    events = read_events(runs / "metrics_statement.jsonl") + read_events(
        runs / "metrics_proof.jsonl"
    )
    assert len([e for e in events if e["event"] == "run_end"]) == 2
