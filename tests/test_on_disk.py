"""The on-disk path as a whole-pipeline differential.

A tool that reads the disk sees a project only through ``Project.sync``,
the write-back of a discard after a sync, and the commit that skips bytes
a sync already wrote. ``DiskTool`` is such a tool without a subprocess: an
``ExternalVerifier`` whose ``_run`` checks a fresh ``Project`` of the root
with the simulated checker, in process, and prints the diagnostics as
``file:line:col: severity: message`` lines, exiting 1 on an error. Each
shape runs both ways and must give the same V, Q, item statuses, report
and project bytes; the external adapter answers no goal query, and the
scripted operators do not read the goal. No project write may repeat
bytes the file already holds. Each write crossing of stage 1 under this
tool is a sync, so a forked child that sends itself ``SIGKILL`` just after
one leaves an uncommitted candidate on disk, with no restore run; a
resume must still reach the bytes and outcome of an uninterrupted run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from autoform import accounting, pipeline, verifier
from autoform.instrumentation import read_events
from autoform.pipeline import run_proof_stage, run_statement_stage
from autoform.verifier import ExternalVerifier, Project, SimulatedVerifier

from helpers import tree_hash
from test_fault_injection import make_config, needs_fork, outcome, run_killed_child, run_to_completion

# shape -> (split, stage-2 operators, V, Q)
SHAPES = {
    "toy": (False, "toy", 59, 59),
    "split": (True, "toy", 47, 35),
    "adversarial": (False, "adversarial", 3403, 3723),
}
# project file writes of stage 1 on the toy corpus under DiskTool, every
# one of them a sync: 24 skeletons and 3 repair candidates
STAGE1_WRITES = 27


class DiskTool(ExternalVerifier):
    """A check command that reads the project from disk, run in process."""

    def __init__(self):
        super().__init__(["check", "{file}"])

    def _run(self, argv: list[str], cwd: Path) -> tuple[int, str]:
        file_id = argv[1]
        ok, diags = SimulatedVerifier().verify_file(Project(cwd), file_id)
        lines = [
            f"{file_id}:{d.range.start_line + 1}:{d.range.start_col}: {d.severity}: {d.message}"
            for d in diags
        ]
        return (0 if ok else 1), "\n".join(lines)


def on_disk(monkeypatch) -> None:
    monkeypatch.setattr(pipeline, "make_adapter", lambda config: DiskTool())


class Writes:
    """Records every project file write: its stage, whether it ran inside
    ``Project.sync``, and whether the file already held the bytes."""

    def __init__(self, monkeypatch):
        self.stage, self.syncing, self.calls = 1, False, []
        real_write, real_sync = verifier._write_file, Project.sync

        def write(path, data):
            same = path.is_file() and path.read_bytes() == data
            self.calls.append((self.stage, self.syncing, same))
            return real_write(path, data)

        def sync(project):
            self.syncing = True
            try:
                return real_sync(project)
            finally:
                self.syncing = False

        monkeypatch.setattr(verifier, "_write_file", write)
        monkeypatch.setattr(Project, "sync", sync)


def run_shape(work: Path, shape: str, writes: Writes) -> dict:
    split, stage2_operators, _, _ = SHAPES[shape]
    cfg = make_config(work, split)
    cfg.stage = 1
    run_statement_stage(cfg)
    cfg.stage, cfg.operators, writes.stage = 2, stage2_operators, 2
    run_proof_stage(cfg)
    runs = Path(cfg.runs_dir)
    events = read_events(runs / "metrics_statement.jsonl") + read_events(
        runs / "metrics_proof.jsonl"
    )
    report = accounting.build_report(events).as_dict()
    del report["run_ids"]
    return {
        "report": report,
        "statuses": [
            (e["data"]["index"], e["data"]["status"]) for e in events if e["event"] == "item_end"
        ],
        "tree": tree_hash(Path(cfg.project)),
    }


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_tool_that_reads_the_disk_sees_what_the_simulated_checker_sees(
    shape, tmp_path, monkeypatch
):
    with monkeypatch.context() as m:
        simulated_writes = Writes(m)
        simulated = run_shape(tmp_path / "simulated", shape, simulated_writes)
    on_disk(monkeypatch)
    writes = Writes(monkeypatch)
    disk = run_shape(tmp_path / "disk", shape, writes)
    _, _, v, q = SHAPES[shape]
    assert (disk["report"]["verifier_calls"], disk["report"]["oracle_calls"]) == (v, q)
    assert disk == simulated
    # no write puts back bytes the file already holds: a rejected candidate
    # whose bytes are the committed ones costs no write
    for recorded in (simulated_writes, writes):
        assert recorded.calls and not any(same for _, _, same in recorded.calls)
    if shape == "toy":
        assert [syncing for stage, syncing, _ in writes.calls if stage == 1] == [
            True
        ] * STAGE1_WRITES


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    cfg = make_config(tmp_path_factory.mktemp("solid") / "work", split=False)
    assert run_to_completion(cfg) == 0
    return outcome(cfg)


@needs_fork
@pytest.mark.parametrize("n", range(1, STAGE1_WRITES + 1))
def test_a_kill_after_a_sync_resumes_to_the_uninterrupted_run(
    n, tmp_path, monkeypatch, uninterrupted
):
    cfg = make_config(tmp_path / "work", split=False)
    on_disk(monkeypatch)
    run_killed_child(cfg, "commit write, after it lands", n, monkeypatch)
    assert run_to_completion(cfg, resume=True) == 0
    assert outcome(cfg) == uninterrupted
