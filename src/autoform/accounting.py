"""Reconstruct every reported number from the metrics stream alone.

Verifier calls are counts of verifier-check events; oracle calls are counts
of oracle-result events. Runs written under the legacy schema (version 1)
carry neither, so both totals are reconstructed from per-item repair
counters: one initial verification plus one per bounded repair attempt,
and likewise one synthesis call plus one repair call. Aggregation across
run ids is plain summation with no deduplication, which is what makes
interrupted-and-resumed runs add up exactly.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

VERIFIER_EVENT = "lean_check"
ORACLE_EVENT = "oracle_result"


class UnknownSchemaError(ValueError):
    """A run_start advertises a metrics schema this accounting cannot read."""


KNOWN_SCHEMAS = (1, 2)


def runs_in(events: list[dict]) -> dict[str, dict]:
    """run_id -> run_start payload for every run present in the stream."""
    out: dict[str, dict] = {}
    for ev in events:
        if ev.get("event") == "run_start":
            out[ev["run_id"]] = ev.get("data", {})
    return out


def _schema_of(run_start_data: dict) -> int:
    version = run_start_data.get("schema_version", 1)
    if version not in KNOWN_SCHEMAS:
        raise UnknownSchemaError(f"unknown metrics schema version {version!r}")
    return version


def select_events(events: list[dict], run_ids: set[str] | None = None) -> list[dict]:
    if run_ids is None:
        return list(events)
    return [ev for ev in events if ev.get("run_id") in run_ids]


def _legacy_reconstruction(events: list[dict], run_id: str) -> int:
    """items + sum of bounded repair attempts, from item_end payloads."""
    total = 0
    for ev in events:
        if ev.get("run_id") == run_id and ev.get("event") == "item_end":
            total += 1 + int(ev.get("data", {}).get("b_attempts", 0))
    return total


def _count(events: list[dict], run_ids: set[str] | None, label: str) -> int:
    starts = runs_in(events)
    if run_ids is None:
        run_ids = set(starts)
        run_ids.update(ev["run_id"] for ev in events if "run_id" in ev)
    labelled = Counter(ev.get("run_id") for ev in events if ev.get("event") == label)
    total = 0
    for run_id in sorted(run_ids):
        schema = _schema_of(starts.get(run_id, {}))
        if schema == 1:
            total += _legacy_reconstruction(events, run_id)
        else:
            total += labelled[run_id]
    return total


def count_verifier_calls(events: list[dict], run_ids: set[str] | None = None) -> int:
    return _count(events, run_ids, VERIFIER_EVENT)


def count_oracle_calls(events: list[dict], run_ids: set[str] | None = None) -> int:
    return _count(events, run_ids, ORACLE_EVENT)


def total_tokens(events: list[dict], run_ids: set[str] | None = None) -> int:
    """Token totals: backfill task_tokens events are canonical when present,
    else per-call token fields on oracle-result events are summed."""
    chosen = select_events(events, run_ids)
    backfill = [ev for ev in chosen if ev.get("event") == "task_tokens"]
    if backfill:
        return sum(int(ev["data"].get("tokens_used_total", 0)) for ev in backfill)
    return sum(
        int(ev["data"].get("tokens_used", 0) or 0)
        for ev in chosen
        if ev.get("event") == ORACLE_EVENT
    )


def cost_alpha(v: int, q: int, alpha: float) -> float:
    """Verifier-equivalent compute V + alpha * Q, exact, two decimals."""
    if v < 0 or q < 0:
        raise ValueError("V and Q must be non-negative")
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    exact = Fraction(v) + Fraction(str(alpha)) * Fraction(q)
    return round(float(exact), 2)


@dataclass(frozen=True)
class MetricsBundle:
    pb: bool | None
    scc: float | None
    arr: float | None
    psr: float | None  # None means undefined (empty evaluation set), not 0

    def as_dict(self) -> dict:
        return {"pb": self.pb, "scc": self.scc, "arr": self.arr, "psr": self.psr}


STAGE1_STATUSES = {"compiled", "restored_failed"}
STAGE2_STATUSES = {"solved", "unsolved", "already_closed", "skipped"}
CLOSED_STATUSES = {"solved", "already_closed"}


def compute_metrics(events: list[dict], item_results: list | None = None) -> MetricsBundle:
    """PB/SCC/ARR/PSR from a run's artifacts.

    When explicit item results are given they take precedence; otherwise
    everything is reconstructed from item_end payloads and the final
    project-check event.
    """
    pb: bool | None = None
    for ev in events:
        if ev.get("event") == "project_check":
            pb = bool(ev["data"].get("ok"))

    stage1: list[tuple[str, int]] = []  # (status, b_attempts)
    stage2: list[str] = []  # status
    if item_results is not None:
        for r in item_results:
            status = getattr(r, "status", None)
            if status in STAGE1_STATUSES:
                stage1.append((status, getattr(r, "b_attempts", 0)))
            elif status in STAGE2_STATUSES:
                stage2.append(status)
    else:
        for ev in events:
            if ev.get("event") != "item_end":
                continue
            data = ev.get("data", {})
            status = data.get("status")
            if status in STAGE1_STATUSES:
                stage1.append((status, int(data.get("b_attempts", 0))))
            elif status in STAGE2_STATUSES:
                stage2.append(status)

    scc = arr = psr = None
    if stage1:
        compiled = [(s, b) for s, b in stage1 if s == "compiled"]
        scc = round(100.0 * len(compiled) / len(stage1), 2)
        if compiled:
            arr = round(sum(b for _, b in compiled) / len(compiled), 4)
    if stage2:
        closed = sum(1 for s in stage2 if s in CLOSED_STATUSES)
        psr = round(100.0 * closed / len(stage2), 2)
    return MetricsBundle(pb=pb, scc=scc, arr=arr, psr=psr)


@dataclass(frozen=True)
class AccountingReport:
    run_ids: tuple[str, ...]
    targets: int
    solved: int
    verifier_calls: int
    oracle_calls: int
    tokens: int
    metrics: MetricsBundle
    costs: dict[float, float]

    @property
    def calls_per_solved(self) -> float | None:
        return round(self.verifier_calls / self.solved, 2) if self.solved else None

    @property
    def calls_per_target(self) -> float | None:
        return round(self.oracle_calls / self.targets, 2) if self.targets else None

    def as_dict(self) -> dict:
        return {
            "run_ids": list(self.run_ids),
            "targets": self.targets,
            "solved": self.solved,
            "verifier_calls": self.verifier_calls,
            "oracle_calls": self.oracle_calls,
            "calls_per_solved": self.calls_per_solved,
            "oracle_calls_per_target": self.calls_per_target,
            "tokens": self.tokens,
            "costs": {f"{alpha:g}": cost for alpha, cost in sorted(self.costs.items())},
            **self.metrics.as_dict(),
        }


def _targets_solved(events: list[dict]) -> tuple[int, int]:
    targets = solved = 0
    for ev in events:
        if ev.get("event") != "item_end":
            continue
        status = ev.get("data", {}).get("status")
        if status in STAGE1_STATUSES:
            targets += 1
            solved += 1 if status == "compiled" else 0
        elif status in STAGE2_STATUSES:
            targets += 1
            solved += 1 if status in CLOSED_STATUSES else 0
    return targets, solved


def build_report(
    events: list[dict],
    run_ids: set[str] | None = None,
    alphas: tuple[float, ...] = (0.05, 0.10, 0.25),
) -> AccountingReport:
    chosen = select_events(events, run_ids)
    v = count_verifier_calls(events, run_ids)
    q = count_oracle_calls(events, run_ids)
    targets, solved = _targets_solved(chosen)
    ids = tuple(sorted(run_ids)) if run_ids is not None else tuple(sorted(runs_in(chosen)))
    return AccountingReport(
        run_ids=ids,
        targets=targets,
        solved=solved,
        verifier_calls=v,
        oracle_calls=q,
        tokens=total_tokens(events, run_ids),
        metrics=compute_metrics(chosen),
        costs={alpha: cost_alpha(v, q, alpha) for alpha in alphas},
    )


def render_report_text(report: AccountingReport) -> str:
    m = report.metrics

    def fmt(x):
        if x is None:
            return "n/a"
        return f"{x:.2f}" if isinstance(x, float) else f"{x}"

    rows = [
        ("run_ids", ", ".join(report.run_ids) or "(all)"),
        ("targets", report.targets),
        ("solved", report.solved),
        ("verifier_calls (V)", report.verifier_calls),
        ("oracle_calls (Q)", report.oracle_calls),
        ("calls/solved", fmt(report.calls_per_solved)),
        ("oracle calls/target", fmt(report.calls_per_target)),
        ("tokens", report.tokens),
        ("PB", fmt(m.pb)),
        ("SCC", fmt(m.scc)),
        ("ARR", "n/a" if m.arr is None else f"{m.arr:.2f}"),
        ("PSR", fmt(m.psr)),
    ]
    rows.extend((f"Cost_{alpha:g}", f"{cost:.2f}") for alpha, cost in sorted(report.costs.items()))
    return "\n".join(f"{label + ':':<21}{value}" for label, value in rows)


def _nonempty_lines(text: str) -> int:
    return sum(1 for line in text.split("\n") if line.strip())


def per_problem_rows(events: list[dict], run_ids: set[str] | None = None) -> list[dict]:
    """One row per stage-2 item: index, label, file, length proxy, outcome.

    The length proxy is the non-empty line count of the target file at item
    start (recorded in the item_start payload), before any successful patch.
    """
    chosen = select_events(events, run_ids)
    lengths: dict[int, int] = {}
    for ev in chosen:
        if ev.get("event") == "item_start" and "nonempty_lines" in ev.get("data", {}):
            lengths[int(ev["data"]["index"])] = int(ev["data"]["nonempty_lines"])
    rows = []
    for ev in chosen:
        if ev.get("event") != "item_end":
            continue
        data = ev.get("data", {})
        if data.get("status") not in STAGE2_STATUSES:
            continue
        index = int(data["index"])
        rows.append(
            {
                "index": index,
                "label": data.get("label", ""),
                "lean_file": data.get("lean_file", ""),
                "nonempty_lines": lengths.get(index, ""),
                "outcome": data.get("status", ""),
            }
        )
    rows.sort(key=lambda r: r["index"])
    return rows


def render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf,
        fieldnames=["index", "label", "lean_file", "nonempty_lines", "outcome"],
        lineterminator="\n",
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
