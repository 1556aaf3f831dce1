"""Helpers shared by the test modules.

They live here, not in ``conftest.py``: another test directory has its own
``conftest`` module, so ``from conftest import ...`` is ambiguous when both
directories are collected in one session.
"""

from __future__ import annotations

import hashlib
from pathlib import Path


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
