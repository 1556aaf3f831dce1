"""Reconstruct every reported number from the metrics stream alone.

Verifier calls are counts of verifier-check events; oracle calls are counts
of oracle-result events. Runs written under the legacy schema (version 1)
carry neither, so both totals are reconstructed from per-item repair
counters: one initial verification plus one per bounded repair attempt,
and likewise one synthesis call plus one repair call. Aggregation across
run ids is plain summation with no deduplication, which is what makes
interrupted-and-resumed runs add up exactly. ``build_report`` is the one
reader of these numbers: V, Q, tokens and the rates come from one fold
over the events (``_Fold``), which reads each event once and applies the
per-run schema rule after it, once per run id. The stage summaries fold
their items' fields with ``_stage_fields``, which stays private: a run
segment calls it, and no public accounting function may run inside one.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

VERIFIER_EVENT = "lean_check"
ORACLE_EVENT = "oracle_result"


class UnknownSchemaError(ValueError):
    """A run_start advertises a metrics schema this accounting cannot read."""


KNOWN_SCHEMAS = (1, 2)

DEFAULT_ALPHAS = (0.05, 0.10, 0.25)


def _schema_of(run_start_data: dict) -> int:
    version = run_start_data.get("schema_version", 1)
    if version not in KNOWN_SCHEMAS:
        raise UnknownSchemaError(f"unknown metrics schema version {version!r}")
    return version


class _Fold:
    """One pass over the events whose ``run_id`` is in ``run_ids`` (all of
    them when it is None). Per run id, in ``runs``: the ``lean_check`` and
    ``oracle_result`` counts, the legacy reconstruction (one plus
    ``b_attempts`` per ``item_end``) and the last ``run_start`` payload;
    the runs are the filter's ids, or else every id an event carries.
    Across runs: the ``item_end`` payloads, the last ``project_check``
    payload and the token total, which is the sum of the backfill
    ``task_tokens`` events when there are any, else of the oracle results'
    ``tokens_used``. A missing ``data`` reads as ``{}``."""

    def __init__(self, events: Iterable[dict], run_ids: set[str] | None = None):
        runs = {} if run_ids is None else {run_id: [0, 0, 0, {}] for run_id in run_ids}
        item_ends = []
        check = backfill = None
        oracle_tokens = 0
        for ev in events:
            run_id = ev.get("run_id")
            tally = runs.get(run_id)
            if tally is None:
                if run_ids is not None:
                    continue
                tally = [0, 0, 0, {}]  # an event with no run_id counts in no run
                if run_id is not None or "run_id" in ev:
                    runs[run_id] = tally
            kind = ev.get("event")
            if kind == VERIFIER_EVENT:
                tally[0] += 1
            elif kind == ORACLE_EVENT:
                tally[1] += 1
                oracle_tokens += int(ev.get("data", {}).get("tokens_used", 0) or 0)
            elif kind == "item_end":
                data = ev.get("data", {})
                tally[2] += 1 + int(data.get("b_attempts", 0))
                item_ends.append(data)
            elif kind == "run_start":
                tally[3] = ev.get("data", {})
            elif kind == "project_check":
                check = ev.get("data", {})
            elif kind == "task_tokens":
                backfill = (backfill or 0) + int(ev.get("data", {}).get("tokens_used_total", 0))
        self.runs, self.item_ends, self.check = runs, item_ends, check
        self.tokens = oracle_tokens if backfill is None else backfill

    def calls(self) -> tuple[int, int]:
        """(V, Q) summed over the runs in id order: event counts, or the
        legacy reconstruction for a schema-1 run."""
        v = q = 0
        for run_id in sorted(self.runs):
            verifier, oracle, legacy, start = self.runs[run_id]
            if _schema_of(start) == 1:
                verifier = oracle = legacy
            v += verifier
            q += oracle
        return v, q


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


def _stage_fields(item_ends: Iterable[dict]) -> dict[int, dict]:
    """Stage -> the summary fields its ``run_end`` line reports, folded from
    ``item_end`` payloads: the count of each status, the attempt totals and
    the stage's rates, SCC and ARR for stage 1 and PSR for stage 2, each
    None over no item. A payload of neither stage's statuses counts in
    neither."""
    count = dict.fromkeys(STAGE1_STATUSES | STAGE2_STATUSES, 0)
    b1 = b1_compiled = a2 = b2 = c2 = 0
    for data in item_ends:
        status = data.get("status")
        if status in STAGE1_STATUSES:
            count[status] += 1
            b = int(data.get("b_attempts", 0))
            b1 += b
            if status == "compiled":
                b1_compiled += b
        elif status in STAGE2_STATUSES:
            count[status] += 1
            a2 += int(data.get("a_attempts", 0))
            b2 += int(data.get("b_attempts", 0))
            c2 += int(data.get("c_plans", 0))
    compiled, solved, already = count["compiled"], count["solved"], count["already_closed"]
    items1 = compiled + count["restored_failed"]
    items2 = solved + already + count["unsolved"] + count["skipped"]
    return {
        1: {
            "compiled": compiled,
            "restored_failed": count["restored_failed"],
            "total_b_attempts": b1,
            "scc": round(100.0 * compiled / items1, 2) if items1 else None,
            "arr": round(b1_compiled / compiled, 4) if compiled else None,
        },
        2: {
            "solved": solved,
            "already_closed": already,
            "unsolved": count["unsolved"],
            "skipped": count["skipped"],
            "total_a_attempts": a2,
            "total_b_attempts": b2,
            "total_c_plans": c2,
            "total_sorries_eliminated": solved,
            "psr": round(100.0 * (solved + already) / items2, 2) if items2 else None,
        },
    }


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


def build_report(
    events: list[dict],
    run_ids: set[str] | None = None,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
) -> AccountingReport:
    """The report over the runs ``run_ids`` (all when None); PB is the last
    project check's, the other rates are folded from ``item_end`` payloads."""
    fold = _Fold(events, run_ids)
    v, q = fold.calls()
    stages = _stage_fields(fold.item_ends)
    s1, s2 = stages[1], stages[2]
    solved = s1["compiled"] + s2["solved"] + s2["already_closed"]
    pb = None if fold.check is None else bool(fold.check.get("ok"))
    return AccountingReport(
        run_ids=tuple(sorted(fold.runs)),
        targets=solved + s1["restored_failed"] + s2["unsolved"] + s2["skipped"],
        solved=solved,
        verifier_calls=v,
        oracle_calls=q,
        tokens=fold.tokens,
        metrics=MetricsBundle(pb=pb, scc=s1["scc"], arr=s1["arr"], psr=s2["psr"]),
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


def per_problem_rows(events: list[dict], run_ids: set[str] | None = None) -> list[dict]:
    """One row per stage-2 item: index, label, file, length proxy, outcome.

    The length proxy is the non-empty line count of the target file at item
    start (recorded in the item_start payload), before any successful patch.
    """
    lengths: dict[int, int] = {}
    ends = []
    for ev in events:
        if run_ids is not None and ev.get("run_id") not in run_ids:
            continue
        kind = ev.get("event")
        if kind == "item_start":
            data = ev.get("data", {})
            if "nonempty_lines" in data:
                lengths[int(data["index"])] = int(data["nonempty_lines"])
        elif kind == "item_end":
            data = ev.get("data", {})
            if data.get("status") in STAGE2_STATUSES:
                ends.append(data)
    rows = [
        {
            "index": (index := int(data["index"])),
            "label": data.get("label", ""),
            "lean_file": data.get("lean_file", ""),
            "nonempty_lines": lengths.get(index, ""),
            "outcome": data.get("status", ""),
        }
        for data in ends
    ]
    return sorted(rows, key=lambda r: r["index"])


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
