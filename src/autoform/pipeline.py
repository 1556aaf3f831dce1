"""Run orchestration: configuration, per-run wiring, and stage drivers.

A run segment wires together the dataset, project, verifier adapter,
operator set, and instrumentation sinks, emits run_start/run_end around the
stage driver, and writes a summary mirroring the run_end payload. Resumed
segments get a fresh run id and start from the checkpoint cursor; totals
are reconstructed later by summing over run ids.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

from . import scripted
from .corpus import (
    DEFAULT_PROOF_TARGET_ENVS,
    DatasetRecord,
    LemmaMapEntry,
    load_dataset,
    load_lemma_map,
)
from .instrumentation import (
    CheckpointError,
    HistoryStore,
    MetricsWriter,
    RunInstrumentation,
    new_run_id,
    read_checkpoint,
    write_summary,
)
from .operators import ExternalBridge, OperatorSet
from .stage1 import ProvenanceMap, Stage1Config, Stage1ItemResult, run_stage1
from .stage2 import Stage2Config, Stage2ItemResult, run_stage2
from .verifier import (
    ExternalVerifier,
    Project,
    SimulatedVerifier,
    Verifier,
    VerifierEnvironment,
)


@dataclass
class RunConfig:
    dataset: str = ""
    project: str = ""
    runs_dir: str = ""  # defaults to <project>/runs
    stage: int = 1
    adapter: str = "simulated"
    toolchain_id: str = "sim-verifier-1"
    dependency_revision: str = "builtin-prelude-1"
    budget_k: int = 3
    budget_t: int = 219
    budget_r: int = 10
    budget_c: int = 21
    split_threshold: int = 1200
    header_bound: int = 64
    alphas: tuple[float, ...] = (0.05, 0.10, 0.25)
    operators: str = "toy"  # toy | adversarial | bridge
    operator_command: list[str] = field(default_factory=list)
    verify_command: list[str] = field(default_factory=list)
    project_command: list[str] = field(default_factory=list)
    operator_timeout: float = 600.0
    lemma_map: str = ""
    goal_query_enabled: bool = True
    proof_target_envs: tuple[str, ...] = tuple(sorted(DEFAULT_PROOF_TARGET_ENVS))
    max_items: int | None = None
    resume: bool = False
    force_restart: bool = False
    run_id: str = ""

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        cfg = cls()
        for key, value in data.items():
            if not hasattr(cfg, key):
                raise ValueError(f"unknown config key {key!r}")
            if isinstance(getattr(cfg, key), tuple):
                value = tuple(value)
            setattr(cfg, key, value)
        return cfg

    def environment(self) -> VerifierEnvironment:
        return VerifierEnvironment(
            toolchain_id=self.toolchain_id,
            dependency_revision=self.dependency_revision,
            adapter=self.adapter,
        )

    def runs_path(self) -> Path:
        return Path(self.runs_dir) if self.runs_dir else Path(self.project) / "runs"

    def as_dict(self) -> dict:
        d = asdict(self)
        d["alphas"] = list(self.alphas)
        d["proof_target_envs"] = list(self.proof_target_envs)
        return d


PIPELINE_NAMES = {1: "statement", 2: "proof"}


def make_adapter(config: RunConfig):
    if config.adapter == "simulated":
        return SimulatedVerifier(header_bound=config.header_bound)
    if config.adapter == "external":
        if not config.verify_command:
            raise ValueError("external adapter requires verify_command")
        return ExternalVerifier(
            command=config.verify_command,
            project_command=config.project_command or None,
            header_bound=config.header_bound,
        )
    raise ValueError(f"unknown adapter {config.adapter!r}")


def make_operators(
    config: RunConfig, instrumentation: RunInstrumentation, pipeline: str
) -> OperatorSet:
    if config.operators == "toy":
        return OperatorSet(scripted.toy_handlers(), instrumentation)
    if config.operators == "adversarial":
        return OperatorSet(scripted.adversarial_handlers(), instrumentation)
    if config.operators == "bridge":
        if not config.operator_command:
            raise ValueError("bridge operators require operator_command")
        bridge = ExternalBridge(
            command=config.operator_command,
            log_dir=instrumentation.log_dir or (config.runs_path() / "calls"),
            pipeline=pipeline,
            timeout=config.operator_timeout,
        )
        from .operators import OPERATOR_KINDS

        return OperatorSet({kind: bridge for kind in OPERATOR_KINDS}, instrumentation)
    raise ValueError(f"unknown operator set {config.operators!r}")


def resolve_cursor(config: RunConfig, pipeline: str) -> int | None:
    """Start index for this segment, honoring checkpoint and override rules."""
    path = config.runs_path() / f"checkpoint_{pipeline}.json"
    try:
        checkpoint = read_checkpoint(path)
    except CheckpointError:
        if config.force_restart:
            return None
        raise
    if config.resume and checkpoint is not None:
        return checkpoint.cursor
    return None


def build_instrumentation(config: RunConfig, pipeline: str, stage: int) -> RunInstrumentation:
    runs = config.runs_path()
    run_id = config.run_id or new_run_id(pipeline, stage)
    metrics = MetricsWriter(runs / f"metrics_{pipeline}.jsonl", run_id)
    history = HistoryStore(runs / f"history_{pipeline}.jsonl")
    return RunInstrumentation(
        metrics=metrics,
        history=history,
        checkpoint_path=runs / f"checkpoint_{pipeline}.json",
        log_dir=runs / "calls",
    )


def run_statement_stage(
    config: RunConfig,
    records: list[DatasetRecord] | None = None,
) -> tuple[list[Stage1ItemResult], dict]:
    """One Stage-1 run segment over the dataset; returns results and summary."""
    pipeline = PIPELINE_NAMES[1]
    records = records if records is not None else load_dataset(config.dataset)
    start_index = resolve_cursor(config, pipeline)
    project = Project(config.project)
    with build_instrumentation(config, pipeline, 1) as instr:
        instr.metrics.run_start(
            {
                "pipeline": pipeline,
                "stage": 1,
                "data_file": str(config.dataset),
                "environment": config.environment().as_dict(),
                "config": config.as_dict(),
            }
        )
        adapter = make_adapter(config)
        verifier = Verifier(adapter, metrics=instr.metrics, header_bound=config.header_bound)
        operators = make_operators(config, instr, pipeline)
        stage_cfg = Stage1Config(k=config.budget_k)

        provenance_path = config.runs_path() / "provenance.json"
        provenance = (
            ProvenanceMap.load(provenance_path) if provenance_path.exists() else ProvenanceMap()
        )

        started = time.monotonic()
        provenance, results = run_stage1(
            records,
            project,
            stage_cfg,
            operators,
            verifier,
            instr,
            provenance=provenance,
            start_index=start_index,
            max_items=config.max_items,
        )
        pb_ok, _ = verifier.verify_project(project)
        provenance.save(provenance_path)

        compiled = sum(1 for r in results if r.compiled)
        summary = {
            "pipeline": pipeline,
            "stage": 1,
            "processed_items": len(results),
            "compiled": compiled,
            "restored_failed": sum(1 for r in results if r.status == "restored_failed"),
            "next_index": (results[-1].index + 1) if results else (start_index or 0),
            "total_seconds": round(time.monotonic() - started, 6),
            "total_b_attempts": sum(r.b_attempts for r in results),
            "total_verifier_calls": verifier.calls,
            "total_oracle_calls": operators.invocations,
            "total_tokens_used": operators.tokens_used,
            "scc": round(100.0 * compiled / len(results), 2) if results else None,
            "arr": round(sum(r.b_attempts for r in results if r.compiled) / compiled, 4)
            if compiled
            else None,
            "pb": pb_ok,
        }
        instr.metrics.run_end(summary)
        write_summary(config.runs_path() / f"summary_{instr.run_id}.json", summary)
        return results, summary


def run_proof_stage(
    config: RunConfig,
    records: list[DatasetRecord] | None = None,
    lemma_map: dict[str, LemmaMapEntry] | None = None,
) -> tuple[list[Stage2ItemResult], dict]:
    """One Stage-2 run segment over the proof targets."""
    pipeline = PIPELINE_NAMES[2]
    records = records if records is not None else load_dataset(config.dataset)
    if lemma_map is None and config.lemma_map:
        lemma_map = load_lemma_map(config.lemma_map)
    start_index = resolve_cursor(config, pipeline)
    project = Project(config.project)
    with build_instrumentation(config, pipeline, 2) as instr:
        instr.metrics.run_start(
            {
                "pipeline": pipeline,
                "stage": 2,
                "data_file": str(config.dataset),
                "environment": config.environment().as_dict(),
                "config": config.as_dict(),
            }
        )
        adapter = make_adapter(config)
        verifier = Verifier(adapter, metrics=instr.metrics, header_bound=config.header_bound)
        operators = make_operators(config, instr, pipeline)
        stage_cfg = Stage2Config(
            t=config.budget_t,
            r=config.budget_r,
            c=config.budget_c,
            split_threshold=config.split_threshold,
            goal_query_enabled=config.goal_query_enabled,
        )

        started = time.monotonic()
        results = run_stage2(
            records,
            project,
            stage_cfg,
            operators,
            verifier,
            instr,
            lemma_map=lemma_map,
            start_index=start_index,
            max_items=config.max_items,
            proof_target_envs=frozenset(config.proof_target_envs),
        )
        pb_ok, _ = verifier.verify_project(project)

        closed = sum(1 for r in results if r.closed)
        summary = {
            "pipeline": pipeline,
            "stage": 2,
            "processed_items": len(results),
            "solved": sum(1 for r in results if r.status == "solved"),
            "already_closed": sum(1 for r in results if r.status == "already_closed"),
            "unsolved": sum(1 for r in results if r.status == "unsolved"),
            "skipped": sum(1 for r in results if r.status == "skipped"),
            "next_index": (results[-1].index + 1) if results else (start_index or 0),
            "total_seconds": round(time.monotonic() - started, 6),
            "total_a_attempts": sum(r.proof_attempts for r in results),
            "total_b_attempts": sum(r.fix_attempts for r in results),
            "total_c_plans": sum(r.plans for r in results),
            "total_sorries_eliminated": sum(1 for r in results if r.status == "solved"),
            "total_verifier_calls": verifier.calls,
            "total_oracle_calls": operators.invocations,
            "total_tokens_used": operators.tokens_used,
            "psr": round(100.0 * closed / len(results), 2) if results else None,
            "pb": pb_ok,
        }
        instr.metrics.run_end(summary)
        write_summary(config.runs_path() / f"summary_{instr.run_id}.json", summary)
        return results, summary
