from __future__ import annotations

import json
from pathlib import Path

from autoform import accounting
from autoform.instrumentation import read_checkpoint, read_events
from autoform.pipeline import RunConfig, run_proof_stage, run_statement_stage

from helpers import tree_hash


def run_both(cfg: RunConfig):
    cfg.stage = 1
    r1, s1 = run_statement_stage(cfg)
    cfg.stage = 2
    r2, s2 = run_proof_stage(cfg)
    return (r1, s1), (r2, s2)


class TestRunSegments:
    def test_summary_mirrors_run_end_payload(self, toy_config):
        (_, s1), (_, s2) = run_both(toy_config)
        runs = Path(toy_config.runs_dir)
        for pipeline, summary in (("statement", s1), ("proof", s2)):
            events = read_events(runs / f"metrics_{pipeline}.jsonl")
            run_end = [e for e in events if e["event"] == "run_end"][-1]
            assert run_end["data"] == summary
            on_disk = json.loads((runs / f"summary_{run_end['run_id']}.json").read_text())
            assert on_disk == summary

    def test_run_start_records_config_and_environment(self, toy_config):
        run_both(toy_config)
        events = read_events(Path(toy_config.runs_dir) / "metrics_statement.jsonl")
        start = events[0]
        assert start["event"] == "run_start"
        assert start["data"]["environment"]["adapter"] == "simulated"
        assert start["data"]["config"]["dataset"] == toy_config.dataset
        assert start["data"]["data_file"] == toy_config.dataset

    def test_account_reproduces_live_run_totals(self, toy_config):
        (_, s1), (_, s2) = run_both(toy_config)
        runs = Path(toy_config.runs_dir)
        events = read_events(runs / "metrics_statement.jsonl") + read_events(
            runs / "metrics_proof.jsonl"
        )
        report = accounting.build_report(events)
        assert report.verifier_calls == s1["total_verifier_calls"] + s2["total_verifier_calls"]
        assert report.oracle_calls == s1["total_oracle_calls"] + s2["total_oracle_calls"]
        assert report.targets == s1["processed_items"] + s2["processed_items"]
        assert report.metrics.scc == s1["scc"]
        assert report.metrics.psr == s2["psr"]
        assert report.metrics.pb is True

    def test_attempt_counters_reconcile_with_item_results(self, toy_config):
        (r1, s1), (r2, s2) = run_both(toy_config)
        assert s1["total_verifier_calls"] == sum(r.verifier_calls for r in r1)
        assert s2["total_verifier_calls"] == sum(r.verifier_calls for r in r2)
        assert s1["total_b_attempts"] == sum(r.b_attempts for r in r1)
        assert s2["total_a_attempts"] == sum(r.proof_attempts for r in r2)

    def test_provenance_saved_with_entry_per_declaration(self, toy_config):
        run_both(toy_config)
        data = json.loads((Path(toy_config.runs_dir) / "provenance.json").read_text())
        assert len(data) == 24  # one generated declaration per statement item
        for name, spans in data.items():
            assert spans, name

    def test_fresh_run_ids_per_segment(self, toy_config):
        toy_config.stage = 1
        toy_config.max_items = 12
        run_statement_stage(toy_config)
        toy_config.resume = True
        run_statement_stage(toy_config)
        events = read_events(Path(toy_config.runs_dir) / "metrics_statement.jsonl")
        run_ids = {e["run_id"] for e in events}
        assert len(run_ids) == 2

    def test_checkpoint_advances_and_resume_skips(self, toy_config):
        toy_config.stage = 1
        toy_config.max_items = 5
        _, s_first = run_statement_stage(toy_config)
        cp = read_checkpoint(Path(toy_config.runs_dir) / "checkpoint_statement.json")
        assert cp.key == "next_index" and cp.cursor == 6
        toy_config.resume = True
        toy_config.max_items = None
        results, _ = run_statement_stage(toy_config)
        assert [r.index for r in results] == list(range(6, 25))


class TestResumeEquivalence:
    def test_stepped_run_equals_uninterrupted(self, tmp_path, toy_records):
        from autoform.corpus import dump_dataset

        def build(name):
            work = tmp_path / name
            (work / "data").mkdir(parents=True)
            dump_dataset(toy_records, work / "data" / "toy.json")
            return RunConfig(
                dataset=str(work / "data" / "toy.json"),
                project=str(work / "project"),
                runs_dir=str(work / "runs"),
                operators="toy",
            )

        solid = build("solid")
        run_both(solid)

        stepped = build("stepped")
        for stage, total in ((1, 24), (2, 16)):
            stepped.stage = stage
            stepped.max_items = 1
            stepped.resume = False
            done = 0
            while done < total:
                stepped.resume = done > 0
                results, _ = (
                    run_statement_stage(stepped) if stage == 1 else run_proof_stage(stepped)
                )
                assert len(results) == 1  # the cursor moved exactly one item
                done += len(results)

        assert tree_hash(Path(solid.project)) == tree_hash(Path(stepped.project))

        def totals(cfg):
            runs = Path(cfg.runs_dir)
            events = read_events(runs / "metrics_statement.jsonl") + read_events(
                runs / "metrics_proof.jsonl"
            )
            return (
                accounting.count_verifier_calls(events),
                accounting.count_oracle_calls(events),
                sum(1 for e in events if e["event"] == "item_end"),
            )

        assert totals(solid) == totals(stepped)
