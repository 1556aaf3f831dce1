"""A test agent for the operator bridge: the toy operators as a process.

It reads one request document from stdin, runs the toy handler for the
request's kind and prints its proposal in the form ``ExternalBridge``
reads: a text kind's text as it is, and a patch as the new text of the
request's ``target_range`` in a fenced block. A failed proposal prints
nothing on stdout. It uses the standard library and ``autoform`` only,
and puts the repository's ``src`` on its own path, so it runs without a
``PYTHONPATH``:

    python tests/bridge_agent.py < request.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from autoform.diagnostics import SourceRange, line_starts, pos_to_offset  # noqa: E402
from autoform.operators import TEXT_KINDS, OperatorRequest  # noqa: E402
from autoform.scripted import toy_handlers  # noqa: E402


def proposal(doc: dict) -> str | None:
    """What the agent prints for the request ``doc``; None when the toy
    handler fails."""
    request = OperatorRequest(doc["kind"], doc["payload"])
    response = toy_handlers()[request.kind](request)
    if not response.ok:
        return None
    if request.kind in TEXT_KINDS:
        return response.text
    text = request.payload["file_text"]
    starts = line_starts(text)
    target = SourceRange.from_dict(request.payload["target_range"])
    [patched] = response.patch.scope.ranges

    def start(rng: SourceRange) -> int:
        return pos_to_offset(text, rng.start_line, rng.start_col, starts)

    def end(rng: SourceRange) -> int:
        return pos_to_offset(text, rng.end_line, rng.end_col, starts)

    replacement = response.patch.replacement
    new = text[start(target) : start(patched)] + replacement + text[end(patched) : end(target)]
    return "```\n" + new + "\n```\n"


def main() -> int:
    out = proposal(json.loads(sys.stdin.buffer.read().decode("utf-8")))
    if out is None:
        return 1
    sys.stdout.buffer.write(out.encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
