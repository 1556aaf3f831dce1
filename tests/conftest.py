from __future__ import annotations

import pytest

from autoform.corpus import dump_dataset
from autoform.instrumentation import MetricsWriter
from autoform.pipeline import RunConfig
from autoform.toydata import build_toy_lemma_map, build_toy_records
from autoform.verifier import Project, SimulatedVerifier, Verifier

from helpers import EventSink


@pytest.fixture
def sink():
    return EventSink()


@pytest.fixture
def project(tmp_path):
    return Project(tmp_path / "project")


@pytest.fixture
def sim_verifier(sink):
    return Verifier(SimulatedVerifier(), metrics=sink)


@pytest.fixture
def toy_records():
    return build_toy_records()


@pytest.fixture
def toy_lemma_map():
    return build_toy_lemma_map()


@pytest.fixture
def toy_config(tmp_path, toy_records):
    dataset = tmp_path / "data" / "toy.json"
    dataset.parent.mkdir(parents=True, exist_ok=True)
    dump_dataset(toy_records, dataset)
    return RunConfig(
        dataset=str(dataset),
        project=str(tmp_path / "project"),
        runs_dir=str(tmp_path / "runs"),
        operators="toy",
        adapter="simulated",
    )


@pytest.fixture
def metrics(tmp_path):
    with MetricsWriter(tmp_path / "runs" / "metrics_test.jsonl", "test_stage0_run") as writer:
        writer.run_start({"pipeline": "test"})
        yield writer
