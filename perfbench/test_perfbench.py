"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from autoform.corpus import dump_dataset
from autoform.toydata import build_toy_records

import rep
import run
import tracing
from workloads import WORKLOADS, Workload, build_records, pick_tricky

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _dataset_bytes(records, tmp_path: Path, name: str) -> bytes:
    path = tmp_path / name
    dump_dataset(records, path)
    return path.read_bytes()


def test_generator_is_deterministic_per_seed_and_differs_across_seeds(tmp_path):
    w = WORKLOADS["one_section"]
    first = _dataset_bytes(w.records(1), tmp_path, "a.json")
    assert first == _dataset_bytes(w.records(1), tmp_path, "b.json")
    assert first != _dataset_bytes(w.records(2), tmp_path, "c.json")
    assert pick_tricky(1, 800) != pick_tricky(2, 800)
    assert len(pick_tricky(1, 800)) == len(pick_tricky(2, 800)) == 100


def test_toy_shape_equals_bundled_toy_corpus(tmp_path):
    generated = _dataset_bytes(build_records(4, 6, {2, 9, 20}), tmp_path, "gen.json")
    assert generated == _dataset_bytes(build_toy_records(), tmp_path, "toy.json")


def _run(workload: Workload, tmp_path: Path):
    dataset, records = rep.setup(workload, 1, tmp_path)
    targets = [r.index for r in records if r.proof]
    s1, err1 = rep.run_stage(1, workload, dataset, tmp_path, records, records[-1].index)
    after_stage1 = rep.declaration_units(tmp_path / "project")
    s2, err2 = rep.run_stage(2, workload, dataset, tmp_path, records, targets[-1])
    assert err1 is None and err2 is None
    stage1 = {r.index: r.status for r in s1}
    stage2 = {r.index: r.status for r in s2}

    def check():
        units = rep.declaration_units(tmp_path / "project")
        return rep.check_outcomes(workload, records, stage1, stage2, after_stage1, units)

    return targets, check


def _edit_body(project: Path, index: int, old: str, new: str) -> None:
    for path in project.rglob("*.lean"):
        lines = path.read_text(encoding="utf-8").split("\n")
        for i, line in enumerate(lines):
            if line.startswith(f"/-- [{index}] "):
                assert old in lines[i + 1]
                lines[i + 1] = lines[i + 1].replace(old, new)
                path.write_text("\n".join(lines), encoding="utf-8")
                return
    raise AssertionError(f"no declaration for item {index}")


def test_outcome_check_flags_a_reinserted_sorry(tmp_path):
    targets, check = _run(Workload("toy", sections=4, items_per_section=6), tmp_path)
    assert check() == []
    _edit_body(tmp_path / "project", targets[0], "exact ", "sorry -- ")
    assert check() == [(2, targets[0])]


def test_outcome_check_flags_a_rejected_patch_left_on_disk(tmp_path):
    workload = Workload("reject", sections=1, items_per_section=6, stage2_operators="adversarial")
    targets, check = _run(workload, tmp_path)
    assert check() == []
    _edit_body(tmp_path / "project", targets[-1], "sorry", "exact trivial")
    assert check() == [(2, targets[-1])]


def test_benchmark_json_names_what_the_benchmark_reports():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    layers = tracing.layer_metrics([], 0, 0, 1)
    names = [*layers, "trace.overhead.stage1_s", "trace.overhead.stage2_s"]
    names += [f"probe.{f}.ms.l{n}" for n in rep.PROBE_LINES for f in ("verify_file", "parse_file")]
    assert sorted(m["name"] for m in BENCHMARK["per_layer"]) == sorted(names)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in BENCHMARK["per_layer"])


def test_self_time_subtracts_children_and_hook_time():
    spans = [
        ["a", 0.0, 10.0, -1, None, None, 1.0],
        ["b", 1.0, 4.0, 0, None, None, 0.0],
        ["c", 5.0, 7.0, 0, None, None, 0.0],
    ]
    assert tracing.self_times(spans) == [4.0, 3.0, 2.0]


TRACED_TOY_RUN = """
import sys, tempfile
from pathlib import Path
import rep, tracing
from workloads import Workload
tracer = tracing.Tracer()
tracing.install(tracer)
w = Workload("toy", sections=4, items_per_section=6)
work = Path(tempfile.mkdtemp())
dataset, records = rep.setup(w, 1, work)
rep.run_stage(1, w, dataset, work, records, records[-1].index)
rep.run_stage(2, w, dataset, work, records, max(r.index for r in records if r.proof))
parents = {tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "kernel.try_patch"}
print(sorted(parents))
print(sorted({tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "verifier.header_scope"}))
print(sum(1 for s in tracer.spans if s[0] == "stage2.run_stage2_item" and s[4] is not None))
"""


def test_tracing_reaches_names_bound_at_import():
    env = {"PYTHONPATH": f"{HERE.parent / 'src'}:{HERE}"}
    out = subprocess.run(
        [sys.executable, "-c", TRACED_TOY_RUN], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert eval(out[0]) == ["stage1._run_item", "stage2.run_stage2_item"]
    assert set(eval(out[1])) >= {"stage1._run_item", "stage2.run_stage2_item"}
    assert int(out[2]) == 16


@pytest.mark.parametrize("samples,expected", [(list(range(9)), None), (list(range(20)), "p50")])
def test_tail_percentile_needs_ten_samples_beyond(samples, expected):
    tail = run.percentile_beyond_ten(samples)
    assert (tail[0] if tail else None) == expected
