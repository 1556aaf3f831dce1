"""Run orchestration: configuration, per-run wiring, and stage drivers.

A run segment checks the whole configuration before it reads its metrics
stream or writes anything, wires together the dataset, project, verifier
adapter, operator set, and metrics stream, and emits run_start/run_end
around the stage driver; the run_end payload is the segment's summary.
The metrics stream is the one file a segment writes under the runs
directory, beside the bridge's per-call logs. Resumed segments get a fresh
run id and start one past the last ``item_end`` line
of the metrics stream (``resolve_cursor``), the one record of what the
run committed, including the names each stage-1 item declared; totals are
reconstructed later by summing over run ids.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import accounting, scripted, stage1, stage2
from .corpus import DatasetRecord, LemmaMapEntry, load_dataset, load_lemma_map
from .instrumentation import MetricsWriter, new_run_id, read_events_backwards
from .operators import OPERATOR_KINDS, ExternalBridge, OperatorSet
from .stage1 import Stage1Config, Stage1ItemResult, run_stage1
from .stage2 import Stage2Config, Stage2ItemResult, run_stage2
from .verifier import ExternalVerifier, Project, SimulatedVerifier, Verifier


# The JSON values a config file may give a RunConfig field, by the field's
# annotation, and how a message names them. JSON true and false are not
# integers here, and an integer is a number.
_JSON_TYPES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "int | None": ((int, type(None)), "an integer or null"),
    "list[str]": ((list,), "a list of strings"),
}


def _json_type_ok(value, accepted: tuple[type, ...]) -> bool:
    if isinstance(value, bool) and bool not in accepted:
        return False
    if isinstance(value, list):
        return list in accepted and all(isinstance(v, str) for v in value)
    return isinstance(value, accepted)


@dataclass
class RunConfig:
    dataset: str = ""
    project: str = ""
    runs_dir: str = ""  # defaults to <project>/runs
    stage: int = 1
    adapter: str = "simulated"
    toolchain_id: str = "sim-verifier-1"
    dependency_revision: str = "builtin-prelude-1"
    budget_k: int = stage1.DEFAULT_K
    budget_t: int = stage2.DEFAULT_T
    budget_r: int = stage2.DEFAULT_R
    budget_c: int = stage2.DEFAULT_C
    split_threshold: int = stage2.DEFAULT_SPLIT_THRESHOLD
    operators: str = "toy"  # toy | adversarial | bridge
    operator_command: list[str] = field(default_factory=list)
    verify_command: list[str] = field(default_factory=list)
    project_command: list[str] = field(default_factory=list)
    operator_timeout: float = 600.0
    lemma_map: str = ""
    max_items: int | None = None
    resume: bool = False
    run_id: str = ""

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"config {path} must hold a JSON object")
        annotations = {f.name: f.type for f in fields(cls)}
        cfg = cls()
        for key, value in data.items():
            if key not in annotations:
                raise ValueError(f"unknown config key {key!r}")
            accepted, name = _JSON_TYPES[annotations[key]]
            if not _json_type_ok(value, accepted):
                raise ValueError(f"config key {key!r} must be {name}")
            setattr(cfg, key, value)
        return cfg

    def stage1_config(self) -> Stage1Config:
        return Stage1Config(k=self.budget_k)

    def stage2_config(self) -> Stage2Config:
        return Stage2Config(
            t=self.budget_t,
            r=self.budget_r,
            c=self.budget_c,
            split_threshold=self.split_threshold,
        )

    def check(self) -> None:
        """Raise ValueError for a value that a run of either stage rejects;
        the stage configs hold the rules for their own fields."""
        if self.max_items is not None and self.max_items < 0:
            raise ValueError("max_items must be non-negative or null")
        if self.operator_timeout <= 0:
            raise ValueError("operator_timeout must be positive")
        self.stage1_config()
        self.stage2_config()

    def runs_path(self) -> Path:
        return Path(self.runs_dir) if self.runs_dir else Path(self.project) / "runs"


PIPELINE_NAMES = {1: "statement", 2: "proof"}


def make_adapter(config: RunConfig):
    if config.adapter == "simulated":
        return SimulatedVerifier()
    if config.adapter == "external":
        if not config.verify_command:
            raise ValueError("external adapter requires verify_command")
        return ExternalVerifier(
            command=config.verify_command,
            project_command=config.project_command or None,
        )
    raise ValueError(f"unknown adapter {config.adapter!r}")


def operator_handlers(config: RunConfig, log_dir: Path, pipeline: str) -> dict:
    if config.operators == "toy":
        return scripted.toy_handlers()
    if config.operators == "adversarial":
        return scripted.adversarial_handlers()
    if config.operators == "bridge":
        if not config.operator_command:
            raise ValueError("bridge operators require operator_command")
        bridge = ExternalBridge(
            command=config.operator_command,
            log_dir=log_dir,
            pipeline=pipeline,
            timeout=config.operator_timeout,
        )
        return {kind: bridge for kind in OPERATOR_KINDS}
    raise ValueError(f"unknown operator set {config.operators!r}")


def resolve_cursor(config: RunConfig, pipeline: str) -> int | None:
    """Start index for this segment; None starts at the first item.

    Without ``--resume`` that is always None. With it, the segment starts
    one past the ``index`` of the last ``item_end`` line in the pipeline's
    metrics stream: the line is flushed right after the item's commit, so it
    is the durable record of the last item done. The stream is read
    backwards and only the lines after that ``item_end`` are parsed; when
    the last segment ended no item, the scan goes on into the segment
    before it, but not past the ``run_start`` of a segment run without
    ``--resume``: that run started at the first item, and so does this one.
    A stream with no ``item_end`` line starts at the first item too.
    """
    if not config.resume:
        return None
    for event in read_events_backwards(config.runs_path() / f"metrics_{pipeline}.jsonl"):
        if event["event"] == "item_end":
            return event["data"]["index"] + 1
        if event["event"] == "run_start" and not event["data"]["config"]["resume"]:
            break
    return None


def _run_segment(config: RunConfig, stage: int, drive) -> tuple[list, dict]:
    """One run segment of ``stage``, wired to this segment's sinks.

    ``drive(project, verifier, operators, metrics, start_index)``
    processes the stage's items and returns them with the summary fields
    only that stage reports; the fields every stage reports are added here.
    The segment runs and records ``config`` with its ``stage`` set to ``stage``.
    """
    config = replace(config, stage=stage)
    pipeline = PIPELINE_NAMES[stage]
    runs = config.runs_path()
    # the whole config is checked before the segment reads its stream or writes anything
    config.check()
    adapter = make_adapter(config)
    handlers = operator_handlers(config, runs / "calls", pipeline)
    start_index = resolve_cursor(config, pipeline)
    project = Project(config.project)
    run_id = config.run_id or new_run_id(pipeline, stage)
    with MetricsWriter(runs / f"metrics_{pipeline}.jsonl", run_id) as metrics:
        metrics.run_start(
            {
                "pipeline": pipeline,
                "stage": stage,
                "data_file": str(config.dataset),
                "config": asdict(config),
            }
        )
        verifier = Verifier(adapter, metrics)
        operators = OperatorSet(handlers, metrics)
        started = time.monotonic()
        results, stage_fields = drive(project, verifier, operators, metrics, start_index)
        pb_ok, _ = verifier.verify_project(project)
        summary = {
            "pipeline": pipeline,
            "stage": stage,
            "processed_items": len(results),
            "next_index": (results[-1].index + 1) if results else (start_index or 0),
            "total_seconds": round(time.monotonic() - started, 6),
            "total_verifier_calls": verifier.calls,
            "total_oracle_calls": operators.invocations,
            "total_tokens_used": operators.tokens_used,
            "pb": pb_ok,
            **stage_fields,
        }
        metrics.run_end(summary)
        return results, summary


def run_statement_stage(
    config: RunConfig,
    records: list[DatasetRecord] | None = None,
) -> tuple[list[Stage1ItemResult], dict]:
    """One Stage-1 run segment over the dataset; returns results and summary."""
    records = records if records is not None else load_dataset(config.dataset)

    def drive(project, verifier, operators, metrics, start_index):
        results = run_stage1(
            records,
            project,
            config.stage1_config(),
            operators,
            verifier,
            metrics,
            start_index=start_index,
            max_items=config.max_items,
        )
        return results, accounting._stage_fields([r.end_fields() for r in results])[1]

    return _run_segment(config, 1, drive)


def run_proof_stage(
    config: RunConfig,
    records: list[DatasetRecord] | None = None,
    lemma_map: dict[str, LemmaMapEntry] | None = None,
) -> tuple[list[Stage2ItemResult], dict]:
    """One Stage-2 run segment over the proof targets."""
    records = records if records is not None else load_dataset(config.dataset)
    if lemma_map is None and config.lemma_map:
        lemma_map = load_lemma_map(config.lemma_map)

    def drive(project, verifier, operators, metrics, start_index):
        results = run_stage2(
            records,
            project,
            config.stage2_config(),
            operators,
            verifier,
            metrics,
            lemma_map=lemma_map,
            start_index=start_index,
            max_items=config.max_items,
        )
        return results, accounting._stage_fields([r.end_fields() for r in results])[2]

    return _run_segment(config, 2, drive)
