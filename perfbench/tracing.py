"""In-memory span tracing of the autoform layers, installed from outside.

``install(tracer)`` wraps every public function and public method defined
in each layer module, so the program itself carries no tracing code. A
span is ``[name, start, end, parent, item, attr, excluded]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``item`` the dataset
index being processed, ``attr`` a small value some layers record (bytes
read, patch accepted, ...) and ``excluded`` the time the tracer itself
spent in attribute hooks of direct children, which is not charged to this
span's self time.

Modules bind some functions by name at import (``stage1`` and ``stage2``
hold ``try_patch`` and ``header_scope``, ``pipeline`` holds
``load_dataset``), so a wrapper is also rebound under every name in every
``autoform`` module that refers to the original function.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

LAYERS = (
    "simlang",
    "verifier",
    "kernel",
    "operators",
    "instrumentation",
    "stage1",
    "stage2",
    "pipeline",
    "accounting",
    "corpus",
)

def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


# the per-item driver of stage 1 is private, but it is the item boundary
ITEM_BOUNDARIES = {
    "stage1._run_item": lambda args, kwargs: _arg(args, kwargs, 0, "record").index,
    "stage2.run_stage2_item": lambda args, kwargs: _arg(args, kwargs, 2, "task").index,
}


def _verify_attr(args, kwargs, result):
    """(lines, digest) of the file bytes a counted verifier call checked."""
    project, file_id = args[1], args[2]
    path = Path(project.root) / file_id
    data = path.read_bytes() if path.is_file() else b""
    return (data.count(b"\n") + 1, hashlib.sha1(data).hexdigest())


ATTR_HOOKS = {
    "verifier.Verifier.verify_file": _verify_attr,
    "simlang.mask_noncode": lambda args, kwargs, result: len(result),
    "verifier.Project.read": lambda args, kwargs, result: len(result.encode("utf-8")),
    "verifier.Project.read_bytes": lambda args, kwargs, result: len(result),
    "kernel.try_patch": lambda args, kwargs, result: result.accepted,
    "operators.OperatorSet.invoke": lambda args, kwargs, result: result.ok,
}


class Tracer:
    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._item: int | None = None

    def wrap(self, name: str, fn):
        tracer = self
        spans, stack, clock = self.spans, self._stack, self.clock
        hook = ATTR_HOOKS.get(name)
        item_of = ITEM_BOUNDARIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_item = tracer._item
            if item_of is not None:
                tracer._item = item_of(args, kwargs)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, tracer._item, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                tracer._item = outer_item
            if hook is not None:
                span[5] = hook(args, kwargs, result)
                if parent >= 0:
                    spans[parent][6] += clock() - span[2]
            return result

        return traced

    def write(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for name, start, end, parent, item, attr, _ in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "item": item}
                if attr is not None:
                    rec["attr"] = attr
                fh.write(json.dumps(rec) + "\n")


def _rebind(modules, original, wrapped) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the public surface of every layer module (call once per process)."""
    for layer in LAYERS:
        importlib.import_module(f"autoform.{layer}")
    modules = [m for n, m in sys.modules.items() if n == "autoform" or n.startswith("autoform.")]
    for layer in LAYERS:
        mod = sys.modules[f"autoform.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj) and (not attr.startswith("_") or name in ITEM_BOUNDARIES):
                _rebind(modules, obj, tracer.wrap(name, obj))
            elif inspect.isclass(obj):
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    name = f"{layer}.{obj.__name__}.{mname}"
                    if isinstance(member, classmethod):
                        setattr(obj, mname, classmethod(tracer.wrap(name, member.__func__)))
                    elif inspect.isfunction(member):
                        setattr(obj, mname, tracer.wrap(name, member))


# -- per-layer metrics --------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its children's durations and hook time."""
    out = [end - start - excluded for _, start, end, _, _, _, excluded in spans]
    for _, start, end, parent, _, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(
    spans: list[list], metrics_bytes: int, account_events: int, account_passes: int
) -> dict[str, float]:
    """The per-layer metrics of one traced repetition (times in ms).

    The accounting and dataset-load times are per pass: set-up and the
    accounting step run several times in a repetition.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def calls(*names):
        return len(idx(*names))

    def self_ms(*names):
        return 1000.0 * sum(selfs[i] for i in idx(*names))

    def incl_ms(*names):
        """Inclusive time of the named spans not nested in another of them."""
        chosen = set(names)
        return 1000.0 * sum(
            spans[i][2] - spans[i][1]
            for i in idx(*names)
            if spans[i][3] < 0 or spans[spans[i][3]][0] not in chosen
        )

    def attrs(*names):
        return [spans[i][5] for i in idx(*names)]

    verify = attrs("verifier.Verifier.verify_file")
    v = len(verify)
    seen: set[str] = set()
    repeats = 0
    for _, digest in verify:
        repeats += digest in seen
        seen.add(digest)
    patches = attrs("kernel.try_patch")
    invokes = attrs("operators.OperatorSet.invoke")
    emits = ("instrumentation.MetricsWriter.emit", "instrumentation.MetricsWriter.run_start")
    reads = ("verifier.Project.read", "verifier.Project.read_bytes")
    writes = ("verifier.Project.write", "verifier.Project.write_bytes")
    segments = ("pipeline.run_statement_stage", "pipeline.run_proof_stage")

    m = {
        "simlang.parse_file.calls": calls("simlang.parse_file"),
        "simlang.parse_file.self_ms": self_ms("simlang.parse_file"),
        "simlang.mask_noncode.calls": calls("simlang.mask_noncode"),
        "simlang.mask_noncode.self_ms": self_ms("simlang.mask_noncode"),
        "simlang.mask_noncode.kchars": sum(attrs("simlang.mask_noncode")) / 1000.0,
        "simlang.parse_per_v": calls("simlang.parse_file") / v if v else 0.0,
        "simlang.mask_per_v": calls("simlang.mask_noncode") / v if v else 0.0,
        "verifier.verify_file.calls": v,
        "verifier.verify_file.self_ms": self_ms(
            "verifier.Verifier.verify_file", "verifier.SimulatedVerifier.verify_file"
        ),
        "verifier.verify_file.lines_mean": statistics.fmean(n for n, _ in verify) if v else 0.0,
        "verifier.verify_file.repeat_share": repeats / v if v else 0.0,
        "verifier.goal_state.calls": calls("verifier.Verifier.goal_state"),
        "verifier.goal_state.ms": incl_ms("verifier.Verifier.goal_state"),
        "verifier.verify_project.calls": calls("verifier.Verifier.verify_project"),
        "verifier.verify_project.ms": incl_ms("verifier.Verifier.verify_project"),
        "verifier.Project.read.calls": calls(*reads),
        "verifier.Project.read.kbytes": sum(attrs(*reads)) / 1000.0,
        "verifier.Project.write.calls": calls(*writes),
        "verifier.Project.write.ms": incl_ms(*writes),
        "kernel.try_patch.calls": len(patches),
        "kernel.try_patch.accepted": sum(patches),
        "kernel.try_patch.self_ms": self_ms("kernel.try_patch"),
        "kernel.accept_ratio": sum(patches) / len(patches) if patches else 0.0,
        "kernel.Snapshot.restore.calls": calls("kernel.Snapshot.restore"),
        "kernel.Snapshot.ms": incl_ms("kernel.Snapshot.capture", "kernel.Snapshot.restore"),
        "operators.invoke.calls": len(invokes),
        "operators.invoke.failed": sum(not ok for ok in invokes),
        "operators.invoke.self_ms": self_ms("operators.OperatorSet.invoke"),
        "instrumentation.MetricsWriter.emit.calls": calls(*emits),
        "instrumentation.MetricsWriter.emit.ms": incl_ms(
            *emits, "instrumentation.MetricsWriter.run_end"
        ),
        "instrumentation.metrics.kbytes": metrics_bytes / 1000.0,
        "instrumentation.HistoryStore.append.calls": calls("instrumentation.HistoryStore.append"),
        "instrumentation.HistoryStore.append.ms": incl_ms("instrumentation.HistoryStore.append"),
        "instrumentation.checkpoint.writes": calls("instrumentation.write_checkpoint"),
        "instrumentation.checkpoint.ms": incl_ms("instrumentation.write_checkpoint"),
        "instrumentation.read_events.ms": incl_ms("instrumentation.read_events") / account_passes,
        "stage1.run_stage1.self_ms": self_ms("stage1.run_stage1"),
        "stage2.run_stage2.self_ms": self_ms("stage2.run_stage2"),
        "stage2.split_if_large_and_resolve.calls": calls("stage2.split_if_large_and_resolve"),
        "stage2.split_if_large_and_resolve.ms": incl_ms("stage2.split_if_large_and_resolve"),
        "stage2.locate_target_hole.calls": calls("stage2.locate_target_hole"),
        "stage2.locate_target_hole.ms": incl_ms("stage2.locate_target_hole"),
        "pipeline.segments": calls(*segments),
        "pipeline.segment.self_ms": self_ms(*segments),
        "accounting.build_report.ms": incl_ms("accounting.build_report") / account_passes,
        "accounting.per_problem_rows.ms": incl_ms("accounting.per_problem_rows") / account_passes,
        "accounting.events": account_events,
        "corpus.load_dataset.ms": incl_ms("corpus.load_dataset")
        / max(calls("corpus.load_dataset"), 1),
    }
    # layer totals cover the stage segments only, not the repeated set-up
    # and accounting passes (so accounting, measured per pass above, has
    # none); a parent is recorded before its children
    root: list[int] = []
    for i, span in enumerate(spans):
        root.append(i if span[3] < 0 else root[span[3]])
    stage_layers = [layer for layer in LAYERS if layer != "accounting"]
    layer_self = dict.fromkeys(stage_layers, 0.0)
    for span, s, r in zip(spans, selfs, root):
        if spans[r][0] in segments:
            layer_self[span[0].split(".", 1)[0]] += s
    for layer in stage_layers:
        m[f"layer.{layer}.self_ms"] = 1000.0 * layer_self[layer]
    return m
