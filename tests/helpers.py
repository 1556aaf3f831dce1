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
