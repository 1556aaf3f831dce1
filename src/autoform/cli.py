"""Command-line entry points.

Subcommands: validate, stage1, stage2, resume, split, backfill, account,
report, simulate. All configuration is explicit via flags or a JSON config
file; the only environment override is AUTOFORM_ROOT, which rebases
relative dataset, project, runs-directory and lemma-map paths.

Exit codes: 0 success, 2 configuration/usage error, 3 data or IO error,
4 runtime failure (verifier launch, failed pipeline).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import accounting, synthlogs, toydata
from .corpus import DatasetError, load_dataset, load_lemma_map, is_proof_target, dump_dataset
from .instrumentation import (
    MetricsWriter,
    new_run_id,
    read_events,
    token_backfill,
)
from .pipeline import RunConfig, run_proof_stage, run_statement_stage
from .stage2 import DEFAULT_SPLIT_THRESHOLD, Stage2Config, split_if_large_and_resolve
from .verifier import Project, VerifierLaunchError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _root() -> Path | None:
    value = os.environ.get("AUTOFORM_ROOT")
    return Path(value) if value else None


def _resolve(path: str) -> str:
    p = Path(path)
    root = _root()
    if root is not None and not p.is_absolute():
        return str(root / p)
    return str(p)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if getattr(args, "config", None) else RunConfig()
    for key in ("dataset", "project", "runs_dir", "adapter", "operators", "lemma_map", "run_id"):
        value = getattr(args, key, None)
        if value:
            setattr(cfg, key, value)
    for key in ("budget_k", "budget_t", "budget_r", "budget_c", "split_threshold", "max_items"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "resume", False):
        cfg.resume = True
    if not cfg.dataset or not cfg.project:
        raise SystemExit2("--dataset and --project are required")
    for key in ("dataset", "project", "runs_dir", "lemma_map"):
        value = getattr(cfg, key)
        if value:
            setattr(cfg, key, _resolve(value))
    return cfg


class SystemExit2(Exception):
    """Configuration error carrying exit code 2."""


def cmd_validate(args: argparse.Namespace) -> int:
    records = load_dataset(_resolve(args.dataset))
    targets = sum(1 for r in records if is_proof_target(r))
    print(f"dataset ok: {len(records)} records, {targets} proof targets")
    if args.lemma_map:
        lm = load_lemma_map(_resolve(args.lemma_map))
        print(f"lemma map ok: {len(lm)} entries")
    return EXIT_OK


def cmd_stage1(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    results, summary = run_statement_stage(cfg)
    print(json.dumps(summary, indent=2))
    return EXIT_OK if summary["pb"] and summary["restored_failed"] == 0 else EXIT_RUNTIME


def cmd_stage2(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    results, summary = run_proof_stage(cfg)
    print(json.dumps(summary, indent=2))
    solved_all = summary["processed_items"] == summary["solved"] + summary["already_closed"]
    return EXIT_OK if summary["pb"] and solved_all else EXIT_RUNTIME


def cmd_resume(args: argparse.Namespace) -> int:
    args.resume = True
    if args.stage == 1:
        return cmd_stage1(args)
    return cmd_stage2(args)


def cmd_split(args: argparse.Namespace) -> int:
    if not args.file.endswith(".lean"):
        raise SystemExit2(f"--file must name a .lean file: {args.file}")
    Stage2Config(split_threshold=args.threshold)  # rejects a threshold below 1
    root = Path(_resolve(args.project))
    if not (root / args.file).is_file():
        raise FileNotFoundError(f"no such file: {args.file}")
    project = Project(root)
    result = split_if_large_and_resolve(project, args.file, None, args.threshold)
    project.commit()
    parts = [f for f in project.files() if f.startswith(args.file[:-5] + "_part")]
    print(json.dumps({"file": args.file, "resolved": result, "parts": parts}, indent=2))
    return EXIT_OK


def cmd_backfill(args: argparse.Namespace) -> int:
    run_id = args.run_id or new_run_id("backfill", "tokens")
    with MetricsWriter(_resolve(args.output), run_id) as metrics:
        metrics.run_start({"pipeline": "backfill", "log_dir": str(args.logs)})
        events = token_backfill(_resolve(args.logs), metrics)
        total = sum(ev.tokens_used_total for ev in events)
        metrics.run_end({"pipeline": "backfill", "tasks": len(events), "total_tokens_used": total})
    print(f"backfilled {len(events)} tasks, {total} tokens")
    return EXIT_OK


def _load_all_events(paths: list[str]) -> list[dict]:
    events: list[dict] = []
    for path in paths:
        events.extend(read_events(_resolve(path)))
    return events


def cmd_account(args: argparse.Namespace) -> int:
    events = _load_all_events(args.metrics)
    run_ids = set(args.run_id) if args.run_id else None
    alphas = tuple(args.alpha) if args.alpha else accounting.DEFAULT_ALPHAS
    report = accounting.build_report(events, run_ids, alphas)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(accounting.render_report_text(report))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    events = _load_all_events(args.metrics)
    run_ids = set(args.run_id) if args.run_id else None
    rows = accounting.per_problem_rows(events, run_ids)
    csv_text = accounting.render_csv(rows)
    if args.output:
        Path(_resolve(args.output)).write_text(csv_text, encoding="utf-8")
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    workdir = Path(_resolve(args.workdir))
    workdir.mkdir(parents=True, exist_ok=True)
    dataset_path = workdir / "data" / "toy_corpus.json"
    dataset_path.parent.mkdir(parents=True, exist_ok=True)
    records = toydata.build_toy_records()
    dump_dataset(records, dataset_path)
    lemma_path = workdir / "data" / "toy_lemma_map.json"
    lemma_path.write_text(
        json.dumps([e.as_dict() for e in toydata.build_toy_lemma_map().values()], indent=2) + "\n",
        encoding="utf-8",
    )

    cfg = RunConfig(
        dataset=str(dataset_path),
        project=str(workdir / "project"),
        runs_dir=str(workdir / "runs"),
        operators="toy",
        adapter="simulated",
        lemma_map=str(lemma_path),
    )
    _, s1 = run_statement_stage(cfg)
    _, s2 = run_proof_stage(cfg)

    events = read_events(Path(cfg.runs_dir) / "metrics_statement.jsonl")
    events += read_events(Path(cfg.runs_dir) / "metrics_proof.jsonl")
    report = accounting.build_report(events)
    print(accounting.render_report_text(report))
    ok = (
        s1["pb"]
        and s1["scc"] == 100.0
        and s2["pb"]
        and s2["psr"] == 100.0
        and report.verifier_calls == s1["total_verifier_calls"] + s2["total_verifier_calls"]
    )
    print(f"simulate: {'ok' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_RUNTIME


def cmd_synthlogs(args: argparse.Namespace) -> int:
    out = Path(_resolve(args.output))
    events = []
    events += synthlogs.real_analysis_stage1_fixture()
    events += synthlogs.convex_analysis_stage1_fixture()
    events += synthlogs.research_paper_stage1_fixture()
    events += synthlogs.real_analysis_stage2_fixture()
    events += synthlogs.fateh_auto_stage2_fixture()
    synthlogs.write_events(out, events)
    print(f"wrote {len(events)} events to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="autoform", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file mirroring the run configuration")
        p.add_argument("--dataset", help="dataset JSON array path")
        p.add_argument("--project", help="project root directory")
        p.add_argument("--runs-dir", dest="runs_dir", help="instrumentation directory")
        p.add_argument("--adapter", choices=["simulated", "external"])
        p.add_argument("--operators", choices=["toy", "adversarial", "bridge"])
        p.add_argument("--budget-k", dest="budget_k", type=int)
        p.add_argument("--budget-t", dest="budget_t", type=int)
        p.add_argument("--budget-r", dest="budget_r", type=int)
        p.add_argument("--budget-c", dest="budget_c", type=int)
        p.add_argument("--split-threshold", dest="split_threshold", type=int)
        p.add_argument("--lemma-map", dest="lemma_map")
        p.add_argument("--max-items", dest="max_items", type=int)
        p.add_argument("--resume", action="store_true")
        p.add_argument("--run-id", dest="run_id")

    p = sub.add_parser("validate", help="check a dataset (and lemma map) parses")
    p.add_argument("--dataset", required=True)
    p.add_argument("--lemma-map", dest="lemma_map")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stage1", help="run statement compilation")
    add_run_flags(p)
    p.set_defaults(func=cmd_stage1)

    p = sub.add_parser("stage2", help="run proof repair")
    add_run_flags(p)
    p.set_defaults(func=cmd_stage2)

    p = sub.add_parser("resume", help="resume a stage after its last ended item")
    p.add_argument("--stage", type=int, choices=[1, 2], required=True)
    add_run_flags(p)
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("split", help="split an oversized file at declaration boundaries")
    p.add_argument("--project", required=True)
    p.add_argument("--file", required=True)
    p.add_argument("--threshold", type=int, default=DEFAULT_SPLIT_THRESHOLD)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("backfill", help="aggregate token totals from per-call logs")
    p.add_argument("--logs", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--run-id", dest="run_id")
    p.set_defaults(func=cmd_backfill)

    p = sub.add_parser("account", help="reconstruct totals and metrics from metrics streams")
    p.add_argument("--metrics", action="append", required=True)
    p.add_argument("--run-id", dest="run_id", action="append")
    p.add_argument("--alpha", action="append", type=float,
                   help="cost fraction alpha in Cost_alpha = V + alpha * Q (repeatable)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_account)

    p = sub.add_parser("report", help="emit the per-problem CSV report")
    p.add_argument("--metrics", action="append", required=True)
    p.add_argument("--run-id", dest="run_id", action="append")
    p.add_argument("--output")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("simulate", help="full toy pipeline with scripted operators")
    p.add_argument("--workdir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synthlogs", help="write the bundled synthetic accounting fixtures")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_synthlogs)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except VerifierLaunchError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (FileNotFoundError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
