"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

A repetition sets up the workload's corpus and an empty project, runs
stage 1 then stage 2 through ``autoform.pipeline`` (as ``--resume``
segments when the workload asks for them), runs the accounting step, and
checks every item's outcome against the answer known from the workload
definition. It writes one JSON object to ``--out``. With ``--trace 1`` the
layers are wrapped by ``tracing`` first, and the spans are written to
``--spans`` when the repetition ends. ``--probe`` instead times
``verify_file`` and ``parse_file`` on single generated files.

Run with ``PYTHONPATH=<repo>/src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from autoform import accounting, corpus, instrumentation, pipeline, simlang
from autoform.pipeline import RunConfig
from autoform.verifier import Project, SimulatedVerifier

import tracing
from speed import Phase, SpeedSampler
from workloads import WORKLOADS, Workload

# set-up and accounting take milliseconds, so each repeats until it has taken
# REPEAT_BUDGET_S and at least MIN_REPEATS times
MIN_REPEATS = 5
REPEAT_BUDGET_S = 1.0
STREAMS = ("metrics_statement.jsonl", "metrics_proof.jsonl")
PROBE_LINES = (150, 600, 1200, 2400)
PROBE_BUDGET_S = 0.5  # small sizes repeat until this much time, the 2400-line file runs once
CHECKSUMS = Path(__file__).with_name("checksums.json")
PHASES = ("setup_s", "stage1_s", "stage2_s", "account_s")


# -- set-up, stages, accounting --------------------------------------------


def setup(workload: Workload, seed: int, workdir: Path):
    """Corpus generation, dataset write and load, and a fresh project directory."""
    shutil.rmtree(workdir, ignore_errors=True)
    dataset = workdir / "data" / "corpus.json"
    dataset.parent.mkdir(parents=True)
    corpus.dump_dataset(workload.records(seed), dataset)
    records = corpus.load_dataset(dataset)
    (workdir / "project").mkdir()
    return dataset, records


def run_stage(
    stage: int, workload: Workload, dataset: Path, workdir: Path, records, last_index: int
):
    """All segments of one stage; returns (results, error or None)."""
    cfg = RunConfig(
        dataset=str(dataset),
        project=str(workdir / "project"),
        runs_dir=str(workdir / "runs"),
        stage=stage,
        operators="toy" if stage == 1 else workload.stage2_operators,
        split_threshold=workload.split_threshold,
        max_items=workload.segment_items,
        resume=workload.segment_items is not None,
    )
    segment = pipeline.run_statement_stage if stage == 1 else pipeline.run_proof_stage
    results = []
    try:
        while True:
            seg_results, _ = segment(cfg, records)
            results += seg_results
            if not seg_results or seg_results[-1].index >= last_index:
                return results, None
    except Exception as exc:  # items the crash loses count as failed
        traceback.print_exc()
        return results, f"stage {stage}: {type(exc).__name__}: {exc}"


def account(runs: Path):
    events = []
    for name in STREAMS:
        events += instrumentation.read_events(runs / name)
    report = accounting.build_report(events)
    accounting.per_problem_rows(events)
    return events, report


# -- the independent outcome check -------------------------------------------

_DOC_RE = re.compile(r"/-- \[(\d+)\] [^\n]*-/")
_HOLE_RE = re.compile(r"\bsorry\b")


def declaration_units(project_root: Path) -> dict[int, list[str]]:
    """Dataset index -> text of each declaration carrying its ``[index]``
    docstring, from every project file. A declaration runs from the line
    after its docstring to the next blank line or docstring."""
    units: dict[int, list[str]] = {}
    for path in sorted(Path(project_root).rglob("*.lean")):
        lines = path.read_text(encoding="utf-8").split("\n")
        for i, line in enumerate(lines):
            m = _DOC_RE.fullmatch(line.strip())
            if not m:
                continue
            body = []
            for nxt in lines[i + 1 :]:
                if not nxt.strip() or _DOC_RE.fullmatch(nxt.strip()):
                    break
                body.append(nxt)
            units.setdefault(int(m.group(1)), []).append("\n".join(body))
    return units


def project_bytes(project_root: Path) -> dict[str, bytes]:
    root = Path(project_root)
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*.lean"))}


def check_outcomes(
    workload: Workload,
    records,
    stage1: dict[int, str],
    stage2: dict[int, str],
    units_after_stage1: dict[int, list[str]],
    units_final: dict[int, list[str]],
) -> list[tuple[int, int]]:
    """The (stage, index) of every item whose outcome is not the one the
    workload defines. Every stage-1 item must end ``compiled`` with exactly
    one declaration in the project. A toy proof target must end ``solved``
    or ``already_closed`` with no ``sorry`` left in its declaration body; an
    adversarial one must end ``unsolved`` with its declaration unchanged."""
    failed = []
    for r in records:
        if stage1.get(r.index) != "compiled" or len(units_final.get(r.index, ())) != 1:
            failed.append((1, r.index))
        if not r.proof:
            continue
        status, units = stage2.get(r.index), units_final.get(r.index, ())
        if workload.stage2_operators == "toy":
            ok = status in ("solved", "already_closed") and len(units) == 1 and not _HOLE_RE.search(
                units[0].split(":=", 1)[-1]
            )
        else:
            ok = status == "unsolved" and units == units_after_stage1.get(r.index)
        if not ok:
            failed.append((2, r.index))
    return failed


def raw_counts(runs: Path) -> Counter:
    """Event counts from the JSONL streams, read with plain ``json``."""
    counts: Counter = Counter()
    for name in STREAMS:
        path = runs / name
        if path.exists():
            with path.open(encoding="utf-8") as fh:
                counts.update(json.loads(line)["event"] for line in fh if line.strip())
    return counts


def status_digest(stage1: dict[int, str], stage2: dict[int, str]) -> str:
    lines = [f"1:{i}:{s}" for i, s in sorted(stage1.items())]
    lines += [f"2:{i}:{s}" for i, s in sorted(stage2.items())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# -- one repetition ------------------------------------------------------------


def repetition(
    workload: Workload,
    seed: int,
    workdir: Path,
    sampler: SpeedSampler,
    tracer: tracing.Tracer | None,
) -> dict:
    clock = sampler.clock
    phases = {name: Phase() for name in PHASES}

    def timed(name: str, fn):
        t0 = clock()
        result = fn()
        phases[name].wall.append(clock() - t0)
        return result

    def repeated(name: str, fn):
        start = sampler.start_phase()
        wall = phases[name].wall
        while len(wall) < MIN_REPEATS or sum(wall) < REPEAT_BUDGET_S:
            result = timed(name, fn)
        sampler.end_phase(start, phases[name])
        return result

    def once(name: str, fn):
        start = sampler.start_phase()
        result = timed(name, fn)
        sampler.end_phase(start, phases[name])
        return result

    dataset, records = repeated("setup_s", lambda: setup(workload, seed, workdir))
    targets = [r.index for r in records if r.proof]
    last_item = records[-1].index
    s1, err1 = once(
        "stage1_s", lambda: run_stage(1, workload, dataset, workdir, records, last_item)
    )
    units_after_stage1 = declaration_units(workdir / "project")
    bytes_after_stage1 = project_bytes(workdir / "project")
    last_target = targets[-1]
    s2, err2 = once(
        "stage2_s", lambda: run_stage(2, workload, dataset, workdir, records, last_target)
    )
    events, report = repeated("account_s", lambda: account(workdir / "runs"))

    stage1 = {r.index: r.status for r in s1}
    stage2 = {r.index: r.status for r in s2}
    units_final = declaration_units(workdir / "project")
    failed = check_outcomes(workload, records, stage1, stage2, units_after_stage1, units_final)
    counts = raw_counts(workdir / "runs")
    v, q = report.verifier_calls, report.oracle_calls
    checksum = {"V": v, "Q": q, "statuses": status_digest(stage1, stage2)}
    recorded = json.loads(CHECKSUMS.read_text(encoding="utf-8")).get(workload.name)
    invariants = {
        "vq_equals_jsonl_counts": v == counts["lean_check"] and q == counts["oracle_result"],
        "checksum_matches_recorded": recorded == checksum,
        "no_exception": err1 is None and err2 is None and sampler.error is None,
        "one_result_per_item": len(s1) == len(stage1) and len(s2) == len(stage2),
    }
    if workload.stage2_operators != "toy":
        invariants["rejects_leave_bytes_identical"] = (
            project_bytes(workdir / "project") == bytes_after_stage1
        )

    item_ms: dict[str, list[float]] = {"stage1": [], "stage2": []}
    for ev in events:
        if ev["event"] == "item_end":
            stage = "stage1" if ev["run_id"].startswith("statement") else "stage2"
            item_ms[stage].append(1000.0 * ev["data"]["seconds"])

    out = {
        "phases": {name: asdict(phase) for name, phase in phases.items()},
        "V": v,
        "Q": q,
        "attempted": len(records) + len(targets),
        "failed": len(failed),
        "failed_items": failed,
        "errors": [e for e in (err1, err2, sampler.error) if e],
        "invariants": invariants,
        "checksum": checksum,
        "item_ms": item_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        metrics_bytes = sum((workdir / "runs" / n).stat().st_size for n in STREAMS)
        out["layers"] = tracing.layer_metrics(
            tracer.spans, metrics_bytes, len(events), len(phases["account_s"].wall)
        )
    return out


# -- layer scaling probe --------------------------------------------------------


def probe_text(lines: int) -> str:
    """A stage-1-shaped file of ``lines`` lines: docstring, declaration and a
    blank line per item, definitions alternating with theorems that use them."""
    out = []
    for k in range(lines // 3):
        if k % 2 == 0:
            decl = f"def probe{k} : P{k} := sorry"
        else:
            decl = f"theorem probe{k}Spec : P{k - 1} := by exact probe{k - 1}"
        out += [f"/-- [{k + 1}] Item {k + 1} -/", decl, ""]
    return "\n".join(out) + "\n"


def probe(workdir: Path) -> dict[str, float]:
    shutil.rmtree(workdir, ignore_errors=True)
    project = Project(workdir)
    adapter = SimulatedVerifier()
    out = {}
    for lines in PROBE_LINES:
        text = probe_text(lines)
        project.write("Probe.lean", text)
        for name, call in (
            ("verify_file", lambda: adapter.verify_file(project, "Probe.lean")),
            ("parse_file", lambda: simlang.parse_file(text)),
        ):
            samples: list[float] = []
            while not samples or (sum(samples) < PROBE_BUDGET_S and len(samples) < 9):
                t0 = time.perf_counter()
                call()
                samples.append(time.perf_counter() - t0)
            out[f"probe.{name}.ms.l{lines}"] = 1000.0 * statistics.median(samples)
    shutil.rmtree(workdir, ignore_errors=True)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)
    if args.probe:
        result = probe(workdir)
    else:
        sampler = SpeedSampler(workdir.with_name(workdir.name + "-speed"))
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(sampler.clock)
            tracing.install(tracer)
        with sampler:
            result = repetition(WORKLOADS[args.workload], args.seed, workdir, sampler, tracer)
        shutil.rmtree(sampler.directory, ignore_errors=True)
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None and args.spans:
            tracer.write(args.spans)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
