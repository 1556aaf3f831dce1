"""The autoform benchmark: one workload, one seed, for a fixed time.

    python3 perfbench/run.py --workload one_section --seed 1 --seconds 25 --trace 0

Runs repetitions of the workload (see ``workloads.py``) one after another,
each in a fresh interpreter (``rep.py``), until the next one would end
after ``--seconds``; at least one runs. Every repetition checks each item's
outcome against the answer known from the workload definition. The run
prints a table of its metrics, writes the details to
``perfbench/_work/result-<workload>-seed<seed>-trace<t>.json``, and prints
one JSON line last: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. Their times are
calibrated to the host's speed during each phase (see ``speed.py``); the
raw wall times are printed beside them and kept in the result file. With
``--trace 1`` traced and untraced repetitions alternate, a probe times
single files of 150 to 2400 lines, and the metrics are the per-layer ones:
raw times, except the tracing overhead, which compares calibrated stage
times. The spans of each traced repetition go to
``perfbench/_work/spans-*.jsonl``.

``correct`` is false when an invariant breaks: V and Q from
``accounting.build_report`` differ from the event lines in the JSONL
streams, a stage or the speed sampler raises, an item gets two results,
rejected patches leave project bytes changed, or V, Q or the per-item
status digest differ from ``checksums.json``. Items whose outcome fails
the check are counted in ``failed``; ``failed / attempted`` is the fail
share.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Phase

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RUN_LIMIT_S = 170  # a run must end within 180 s
WORKLOAD_NAMES = ("one_section", "many_sections", "reject_heavy", "split_resume")

END_TO_END_UNITS = {
    "setup_s": "s",
    "stage1_s": "s",
    "stage2_s": "s",
    "account_s": "s",
    "ms_per_v": "ms",
    "ok_items_per_s": "1/s",
    "v_per_ok_item": "count",
    "q_per_ok_item": "count",
    "peak_rss_mb": "MB",
}


def rep_samples(r: dict, calibrated: bool) -> dict[str, list[float]]:
    """The end-to-end samples of one repetition."""
    phases = {name: Phase(**d) for name, d in r["phases"].items()}
    times = {
        name: [phase.calibrated_s()] if calibrated else phase.wall for name, phase in phases.items()
    }
    (stage1,), (stage2,) = times["stage1_s"], times["stage2_s"]
    ok = r["attempted"] - r["failed"]
    return {
        **times,
        "ms_per_v": [1000.0 * (stage1 + stage2) / r["V"]],
        "ok_items_per_s": [ok / (stage1 + stage2)],
        "v_per_ok_item": [r["V"] / ok],
        "q_per_ok_item": [r["Q"] / ok],
        "peak_rss_mb": [r["peak_rss_mb"]],
    }


def percentile_beyond_ten(samples: list[float]) -> tuple[str, float] | None:
    """The highest of p50..p99.9 with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return f"p{p:g}", ordered[max(math.ceil(p / 100 * n) - 1, 0)]
    return None


def describe(samples: list[float]) -> dict:
    row = {"median": statistics.median(samples), "n": len(samples)}
    tail = percentile_beyond_ten(samples)
    if tail:
        row[tail[0]] = tail[1]
    return row


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.startswith("probe.") or last in ("ms", "self_ms"):
        return "ms"
    if name.startswith("trace.overhead."):
        return "s"
    return {"kchars": "kchar", "kbytes": "kB", "lines_mean": "lines"}.get(last, "count")


def child(args: list[str], timeout: float) -> dict:
    """Run ``rep.py`` in a fresh interpreter and return its JSON result."""
    out = WORK / f"rep-{os.getpid()}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "rep.py"), "--out", str(out), *args]
    proc = subprocess.run(cmd, env=env, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited with status {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    workdir = WORK / f"wd-{os.getpid()}"

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    probe = child(["--probe", "--workdir", str(workdir)], remaining()) if trace else {}
    plain: list[dict] = []
    traced: list[dict] = []
    walls: list[float] = []
    while True:
        use_trace = trace and len(traced) < len(plain)
        args = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
        if use_trace:
            spans = WORK / f"spans-{workload}-seed{seed}-rep{len(traced)}.jsonl"
            args += ["--trace", "1", "--spans", str(spans)]
        t0 = time.perf_counter()
        (traced if use_trace else plain).append(child(args, remaining()))
        walls.append(time.perf_counter() - t0)
        if trace and not traced:
            continue
        elapsed = time.perf_counter() - started
        if elapsed + statistics.fmean(walls) > min(seconds, RUN_LIMIT_S - 20):
            break
    wall_s = time.perf_counter() - started
    return {"plain": plain, "traced": traced, "probe": probe, "wall_s": wall_s}


def summarize(runs: dict, trace: bool) -> dict:
    reps = runs["plain"] + runs["traced"]
    summary = {
        "correct": all(all(r["invariants"].values()) for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
    }
    for key, calibrated in (("end_to_end", True), ("end_to_end_raw", False)):
        per_rep = [rep_samples(r, calibrated) for r in runs["plain"]]
        summary[key] = {
            name: {"unit": unit, **describe([s for samples in per_rep for s in samples[name]])}
            for name, unit in END_TO_END_UNITS.items()
        }
    for stage in ("stage1", "stage2"):
        samples = [s for r in runs["plain"] for s in r["item_ms"][stage]]
        summary["end_to_end_raw"][f"{stage}_item_ms"] = {"unit": "ms", **describe(samples)}

    if trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in runs["traced"])
            for name in runs["traced"][0]["layers"]
        }
        layers.update(runs["probe"])
        for stage in ("stage1_s", "stage2_s"):
            traced, plain = (
                statistics.median(Phase(**r["phases"][stage]).calibrated_s() for r in reps)
                for reps in (runs["traced"], runs["plain"])
            )
            layers[f"trace.overhead.{stage}"] = traced - plain
        summary["per_layer"] = {
            name: {"unit": layer_unit(name), "value": v} for name, v in layers.items()
        }
    return summary


def _table(title: str, rows: dict) -> list[str]:
    lines = [f"{title:<22}{'unit':<7}{'median':>12}  {'tail':>20}  n"]
    for name, row in rows.items():
        tail = next(((k, v) for k, v in row.items() if k.startswith("p")), None)
        tail_text = f"{tail[0]} {tail[1]:.6g}" if tail else "-"
        lines.append(
            f"{name:<22}{row['unit']:<7}{row['median']:>12.6g}  {tail_text:>20}  {row['n']}"
        )
    return lines


def render(workload: str, seed: int, runs: dict, summary: dict) -> str:
    first = runs["plain"][0]
    lines = [
        f"workload {workload}  seed {seed}  repetitions {len(runs['plain'])} untraced"
        f" + {len(runs['traced'])} traced  wall {runs['wall_s']:.1f} s",
        f"correct {summary['correct']}  failed {summary['failed']}/{summary['attempted']}"
        f"  fail_share {summary['failed'] / summary['attempted']:.4f}",
        f"checksum V={first['checksum']['V']} Q={first['checksum']['Q']}"
        f" statuses={first['checksum']['statuses']}",
    ]
    for r in runs["plain"] + runs["traced"]:
        broken = [k for k, ok in r["invariants"].items() if not ok]
        if broken or r["errors"]:
            lines.append(f"  broken invariants {broken} errors {r['errors']}")
    lines += _table("end-to-end (calib.)", summary["end_to_end"])
    lines += _table("end-to-end (raw)", summary["end_to_end_raw"])
    if "per_layer" in summary:
        lines.append(f"{'per-layer metric (traced)':<46}{'unit':<7}{'value':>14}")
        for name, row in summary["per_layer"].items():
            lines.append(f"{name:<46}{row['unit']:<7}{row['value']:>14.6g}")
        selfs = {n: r["value"] for n, r in summary["per_layer"].items() if n.startswith("layer.")}
        top = max(selfs, key=selfs.get)
        share = selfs[top] / sum(selfs.values())
        lines.append(f"dominant layer by self time: {top.split('.')[1]} ({share:.0%})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "autoform" / "__init__.py").is_file():
        print(f"error: no autoform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / f"wd-{os.getpid()}", ignore_errors=True)
    summary = summarize(runs, bool(args.trace))
    result_path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details = json.dumps({"summary": summary, "runs": runs}, indent=1)
    result_path.write_text(details, encoding="utf-8")
    print(render(args.workload, args.seed, runs, summary))
    if args.trace:
        metrics = summary["per_layer"]
    else:
        metrics = {
            name: {"value": summary["end_to_end"][name]["median"], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    line = {k: summary[k] for k in ("correct", "attempted", "failed")}
    print(json.dumps({**line, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
