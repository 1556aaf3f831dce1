"""Helpers shared by the test modules.

They live here, not in ``conftest.py``: another test directory has its own
``conftest`` module, so ``from conftest import ...`` is ambiguous when both
directories are collected in one session.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from autoform.corpus import is_proof_target
from autoform.stage2 import proof_task


class EventSink:
    """Minimal metrics stand-in collecting events in memory."""

    def __init__(self):
        self.events = []

    def emit(self, event, data):
        self.events.append({"event": event, "data": data})

    def count(self, label):
        return sum(1 for e in self.events if e["event"] == label)


def tree_hash(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(root.rglob("*.lean")):
        h.update(str(f.relative_to(root)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def proof_tasks(records, lemma_map=None) -> list:
    """(record, task) for every proof target of ``records``, in record
    order, built as ``run_stage2`` builds each item's task."""
    return [(r, proof_task(r, lemma_map or {})) for r in records if is_proof_target(r)]


def item_end_events(results) -> list[dict]:
    """The ``item_end`` events of one run for ``results``: each payload is
    the result's ``end_fields()``, as the kernel's item transaction writes it."""
    return [
        {"ts": "t", "run_id": "r", "event": "item_end", "data": r.end_fields()}
        for r in results
    ]


# Synthetic metrics streams: accounting fixtures built to hold given totals.
# No run of the program wrote them. Schema-1 streams carry no verifier-check
# or oracle-result lines: their totals are reconstructed from the per-item
# repair counters.


def _record(run_id: str, event: str, data: dict) -> dict:
    return {"ts": "2026-01-14T00:00:00+00:00", "run_id": run_id, "event": event, "data": data}


def legacy_stage1_events(run_id: str, attempts: list[int]) -> list[dict]:
    """Schema-1 statement run: item_end carries the bounded repair counter."""
    events = [
        _record(
            run_id,
            "run_start",
            {"pipeline": "statement", "stage": 1, "schema_version": 1,
             "data_file": "synthetic.json"},
        )
    ]
    for i, b in enumerate(attempts, start=1):
        events.append(_record(run_id, "item_start", {"index": i, "label": f"Block {i}"}))
        events.append(
            _record(
                run_id,
                "item_end",
                {"index": i, "label": f"Block {i}", "status": "compiled", "b_attempts": b},
            )
        )
    events.append(_record(run_id, "project_check", {"ok": True, "errors": 0}))
    events.append(
        _record(
            run_id,
            "run_end",
            {
                "pipeline": "statement",
                "processed_items": len(attempts),
                "next_index": len(attempts) + 1,
                "total_b_attempts": sum(attempts),
            },
        )
    )
    return events


def _spread(total: int, buckets: int, minimum: int) -> list[int]:
    """Deterministic allocation of ``total`` across ``buckets`` with a floor."""
    if buckets == 0:
        return []
    extra = total - minimum * buckets
    if extra < 0:
        raise ValueError(f"cannot allocate {total} across {buckets} with floor {minimum}")
    base, rem = divmod(extra, buckets)
    return [minimum + base + (1 if i < rem else 0) for i in range(buckets)]


def stage2_events(
    run_id: str, targets: int, solved: int, verifier_calls: int, oracle_calls: int
) -> list[dict]:
    """Schema-2 proof run with exact verifier/oracle event totals."""
    events = [
        _record(
            run_id,
            "run_start",
            {"pipeline": "proof", "stage": 2, "schema_version": 2, "data_file": "synthetic.json"},
        )
    ]
    checks = _spread(verifier_calls, targets, 1)
    oracles = _spread(oracle_calls, targets, 1)
    for i in range(1, targets + 1):
        label = f"Target {i}"
        status = "solved" if i <= solved else "unsolved"
        events.append(
            _record(
                run_id,
                "item_start",
                {"index": i, "label": label, "lean_file": "Chapters/Chap01/section01.lean",
                 "nonempty_lines": 20 + (i % 7)},
            )
        )
        for k in range(checks[i - 1]):
            events.append(
                _record(
                    run_id,
                    "lean_check",
                    {"lean_file": "Chapters/Chap01/section01.lean", "ok": k == checks[i - 1] - 1,
                     "errors": 0 if k == checks[i - 1] - 1 else 1, "warnings": 0},
                )
            )
        for k in range(oracles[i - 1]):
            agent = "c" if k == 0 else "a"
            events.append(
                _record(
                    run_id,
                    "oracle_result",
                    {"kind": "plan" if k == 0 else "propose_proof_patch", "agent": agent,
                     "ok": True, "task_id": str(i)},
                )
            )
        events.append(
            _record(
                run_id,
                "item_end",
                {
                    "index": i,
                    "label": label,
                    "status": status,
                    "verifier_calls": checks[i - 1],
                    "a_attempts": max(oracles[i - 1] - 1, 0),
                    "c_plans": 1,
                    "lean_file": "Chapters/Chap01/section01.lean",
                },
            )
        )
    events.append(_record(run_id, "project_check", {"ok": True, "errors": 0}))
    events.append(
        _record(
            run_id,
            "run_end",
            {
                "pipeline": "proof",
                "processed_items": targets,
                "solved": solved,
                "next_index": targets + 1,
                "total_verifier_calls": verifier_calls,
                "total_oracle_calls": oracle_calls,
            },
        )
    )
    return events


def stage1_attempt_profile(items: int, attempts_total: int, cap: int = 3) -> list[int]:
    """Per-item repair counts summing to ``attempts_total``, none above the cap."""
    attempts = [0] * items
    remaining = attempts_total
    i = 0
    while remaining > 0:
        if attempts[i % items] < cap:
            attempts[i % items] += 1
            remaining -= 1
        i += 1
    return attempts


def synthetic_statement_run(run_id: str = "statement_synthetic") -> list[dict]:
    """Schema 1: 416 items compiled after 176 repair attempts, so V = Q = 592."""
    return legacy_stage1_events(run_id, stage1_attempt_profile(416, 176))


def synthetic_proof_run(run_id: str = "proof_synthetic") -> list[dict]:
    """Schema 2: 339 targets, all solved, V = 628 and Q = 1,263."""
    return stage2_events(run_id, targets=339, solved=339, verifier_calls=628, oracle_calls=1263)


def synthetic_partial_proof_run(run_id: str = "proof_synthetic_partial") -> list[dict]:
    """Schema 2: 100 targets, 96 solved, V = 283 and Q = 339."""
    return stage2_events(run_id, targets=100, solved=96, verifier_calls=283, oracle_calls=339)
