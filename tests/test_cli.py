from __future__ import annotations

import json

import pytest

from autoform import synthlogs
from autoform.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from autoform.corpus import dump_dataset
from autoform.instrumentation import read_events
from autoform.pipeline import RunConfig
from autoform.toydata import build_toy_lemma_map, build_toy_records


@pytest.fixture
def toy_dataset(tmp_path):
    path = tmp_path / "toy.json"
    dump_dataset(build_toy_records(), path)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestValidate:
    def test_valid_dataset(self, toy_dataset, capsys):
        assert run_cli("validate", "--dataset", toy_dataset) == EXIT_OK
        out = capsys.readouterr().out
        assert "24 records" in out and "16 proof targets" in out

    def test_bad_dataset_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("validate", "--dataset", bad) == EXIT_DATA

    def test_missing_file_exits_3(self, tmp_path):
        assert run_cli("validate", "--dataset", tmp_path / "ghost.json") == EXIT_DATA


class TestStages:
    def test_stage1_then_stage2(self, toy_dataset, tmp_path, capsys):
        project = tmp_path / "project"
        code = run_cli(
            "stage1", "--dataset", toy_dataset, "--project", project, "--operators", "toy"
        )
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["scc"] == 100.0 and summary["pb"] is True

        code = run_cli(
            "stage2", "--dataset", toy_dataset, "--project", project, "--operators", "toy"
        )
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["psr"] == 100.0 and summary["pb"] is True

    def test_missing_required_flags_is_config_error(self, toy_dataset):
        assert run_cli("stage1", "--dataset", toy_dataset) == EXIT_CONFIG

    def test_resume_command(self, toy_dataset, tmp_path, capsys):
        project = tmp_path / "project"
        run_cli("stage1", "--dataset", toy_dataset, "--project", project,
                "--operators", "toy", "--max-items", "3")
        capsys.readouterr()
        code = run_cli("resume", "--stage", "1", "--dataset", toy_dataset,
                       "--project", project, "--operators", "toy")
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["processed_items"] == 21  # 24 minus the 3 already done

    def test_a_leftover_checkpoint_file_is_ignored(self, toy_dataset, tmp_path, capsys):
        project = tmp_path / "project"
        runs = project / "runs"
        runs.mkdir(parents=True)
        (runs / "checkpoint_statement.json").write_text("{broken")
        for command in (["stage1"], ["resume", "--stage", "1"]):
            code = run_cli(*command, "--dataset", toy_dataset, "--project", project,
                           "--operators", "toy")
            assert code == EXIT_OK
        assert (runs / "checkpoint_statement.json").read_text() == "{broken"

    def test_config_file_with_flag_overrides(self, toy_dataset, tmp_path, capsys):
        project = tmp_path / "project"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "dataset": str(toy_dataset),
            "project": str(project),
            "operators": "toy",
            "budget_k": 1,
        }))
        assert run_cli("stage1", "--config", cfg) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        recorded = read_events(project / "runs" / "metrics_statement.jsonl")[0]
        assert recorded["data"]["config"]["budget_k"] == 1
        assert summary["scc"] == 100.0


class TestRemovedSettings:
    """The header bound, the run-level cost fractions, the override of a
    corrupt checkpoint, the goal-query switch and the proof-target set are
    not settings: a config or flag that names one is refused, not stored
    and ignored."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("header_bound", 64),
            ("alphas", [0.1]),
            ("force_restart", False),
            ("goal_query_enabled", False),
            ("proof_target_envs", ["theorem"]),
        ],
    )
    def test_config_key_is_unknown(self, tmp_path, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match="unknown config key"):
            RunConfig.from_file(cfg)

    @pytest.mark.parametrize(
        "flag", [["--alpha", "0.3"], ["--force-restart"], ["--no-goal-query"]]
    )
    @pytest.mark.parametrize("command", [["stage1"], ["stage2"], ["resume", "--stage", "1"]])
    def test_removed_flag_is_a_usage_error(self, toy_dataset, tmp_path, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*command, "--dataset", toy_dataset, "--project", tmp_path / "project", *flag)
        assert exc.value.code == EXIT_CONFIG
        assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "project").exists()


class TestMalformedConfig:
    """A config file that is valid JSON but not a run configuration is a
    configuration error, not a crash."""

    @pytest.mark.parametrize(
        "data, message",
        [
            ([{"dataset": "toy.json"}], "must hold a JSON object"),
            ("toy.json", "must hold a JSON object"),
            (None, "must hold a JSON object"),
            ({"operator_command": None}, "'operator_command' must be a list"),
            ({"operator_command": "run"}, "'operator_command' must be a list"),
            ({"operator_command": {"run": True}}, "'operator_command' must be a list"),
            ({"operator_command": ["run", 1]}, "'operator_command' must be a list"),
            ({"budget_k": "3"}, "'budget_k' must be an integer"),
            ({"budget_k": True}, "'budget_k' must be an integer"),
            ({"budget_t": 2.5}, "'budget_t' must be an integer"),
            ({"max_items": "2"}, "'max_items' must be an integer or null"),
            ({"max_items": False}, "'max_items' must be an integer or null"),
            ({"operator_timeout": "60"}, "'operator_timeout' must be a number"),
            ({"resume": 1}, "'resume' must be true or false"),
            ({"operators": ["toy"]}, "'operators' must be a string"),
        ],
    )
    def test_is_a_config_error(self, toy_dataset, tmp_path, data, message, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=message):
            RunConfig.from_file(cfg)
        code = run_cli("stage1", "--config", cfg, "--dataset", toy_dataset,
                       "--project", tmp_path / "project")
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "project").exists()

    def test_an_integer_timeout_and_a_null_max_items_load(self, toy_dataset, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"operator_timeout": 30, "max_items": None}))
        loaded = RunConfig.from_file(cfg)
        assert loaded.operator_timeout == 30 and loaded.max_items is None
        code = run_cli("stage1", "--config", cfg, "--dataset", toy_dataset,
                       "--project", tmp_path / "project")
        assert code == EXIT_OK


class TestOutOfRangeConfig:
    """A config value of the right type that a run rejects is a configuration
    error, raised before the run reads its streams or writes anything."""

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"budget_k": -1}, "per-item repair budget must be non-negative"),
            ({"adapter": "nope"}, "unknown adapter 'nope'"),
            ({"operators": "nope"}, "unknown operator set 'nope'"),
            ({"split_threshold": 0}, "split threshold must be at least 1"),
            ({"operator_timeout": -5}, "operator_timeout must be positive"),
            ({"max_items": -1}, "max_items must be non-negative or null"),
            ({"budget_t": 0}, "budgets T, R, C must all be at least 1"),
        ],
    )
    def test_exits_2_and_writes_nothing(self, toy_dataset, tmp_path, data, message, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        runs = tmp_path / "runs"
        code = run_cli("stage1", "--config", cfg, "--dataset", toy_dataset,
                       "--project", tmp_path / "project", "--runs-dir", runs)
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not runs.exists()
        assert not (tmp_path / "project").exists()


class TestSimulate:
    def test_full_toy_pipeline(self, tmp_path, capsys):
        assert run_cli("simulate", "--workdir", tmp_path / "sim") == EXIT_OK
        out = capsys.readouterr().out
        assert "simulate: ok" in out
        psr_lines = [l for l in out.splitlines() if l.startswith("PSR:")]
        assert psr_lines and psr_lines[0].split()[-1] == "100.00"


class TestAccountAndReport:
    @pytest.fixture
    def fixture_logs(self, tmp_path):
        path = tmp_path / "synthetic.jsonl"
        events = (
            synthlogs.real_analysis_stage1_fixture()
            + synthlogs.real_analysis_stage2_fixture()
            + synthlogs.fateh_auto_stage2_fixture()
        )
        synthlogs.write_events(path, events)
        return path

    def test_account_reproduces_archived_totals(self, fixture_logs, capsys):
        code = run_cli(
            "account", "--metrics", fixture_logs, "--json",
            "--run-id", "statement_stage1_synthetic_ra",
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["verifier_calls"] == 592
        assert data["scc"] == 100.0

        code = run_cli(
            "account", "--metrics", fixture_logs, "--json",
            "--run-id", "proof_stage2_synthetic_ra",
        )
        data = json.loads(capsys.readouterr().out)
        assert data["verifier_calls"] == 628
        assert data["oracle_calls"] == 1263
        assert data["calls_per_solved"] == 1.85
        assert data["oracle_calls_per_target"] == 3.73
        assert data["costs"]["0.1"] == 754.30
        assert data["costs"]["0.25"] == 943.75

    def test_account_custom_alpha(self, fixture_logs, capsys):
        run_cli("account", "--metrics", fixture_logs, "--json",
                "--run-id", "proof_stage2_synthetic_fateh", "--alpha", "0.25")
        data = json.loads(capsys.readouterr().out)
        assert data["costs"] == {"0.25": 367.75}

    def test_report_csv_is_deterministic(self, fixture_logs, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        run_cli("report", "--metrics", fixture_logs, "--output", out1,
                "--run-id", "proof_stage2_synthetic_fateh")
        run_cli("report", "--metrics", fixture_logs, "--output", out2,
                "--run-id", "proof_stage2_synthetic_fateh")
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert len(lines) == 101  # header + 100 problems

    def test_synthlogs_command(self, tmp_path, capsys):
        out = tmp_path / "fixtures.jsonl"
        assert run_cli("synthlogs", "--output", out) == EXIT_OK
        assert out.exists()


class TestSplitCommand:
    def test_split_emits_parts(self, tmp_path, capsys):
        project = tmp_path / "project"
        project.mkdir()
        lines = ["def d0 : T := sorry"] + [f"def d{i} : T := d{i-1}" for i in range(1, 40)]
        (project / "Big.lean").write_text("\n".join(lines) + "\n")
        code = run_cli("split", "--project", project, "--file", "Big.lean", "--threshold", "10")
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert len(data["parts"]) >= 4

    def test_missing_file_exits_3(self, tmp_path, capsys):
        project = tmp_path / "project"
        project.mkdir()
        for root in (project, tmp_path / "typo"):
            code = run_cli("split", "--project", root, "--file", "Ghost.lean")
            assert code == EXIT_DATA
            out, err = capsys.readouterr()
            assert out == ""
            assert "io error: no such file" in err and "Ghost.lean" in err
        assert list(tmp_path.iterdir()) == [project]
        assert list(project.iterdir()) == []

    def test_a_file_not_ending_in_lean_exits_2_untouched(self, tmp_path, capsys):
        project = tmp_path / "project"
        project.mkdir()
        notes = "def d0 : T := sorry\n" * 40
        (project / "Notes.txt").write_text(notes)
        code = run_cli("split", "--project", project, "--file", "Notes.txt", "--threshold", "10")
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "Notes.txt" in err
        assert [p.name for p in project.iterdir()] == ["Notes.txt"]
        assert (project / "Notes.txt").read_text() == notes

    def test_a_threshold_below_1_exits_2_untouched(self, tmp_path, capsys):
        project = tmp_path / "project"
        project.mkdir()
        # five lines, three theorems
        text = "\n\n".join(f"theorem t{i} : True := trivial" for i in range(3)) + "\n"
        (project / "Small.lean").write_text(text)
        code = run_cli("split", "--project", project, "--file", "Small.lean", "--threshold", "0")
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "split threshold must be at least 1" in err
        assert [p.name for p in project.iterdir()] == ["Small.lean"]
        assert (project / "Small.lean").read_text() == text


class TestBackfillCommand:
    def test_backfill_writes_metrics_run(self, tmp_path, capsys):
        logs = tmp_path / "calls"
        logs.mkdir()
        (logs / "proof_agent_a_task_1_00001.log").write_text(
            "STDOUT:\nhi\ntokens used\n1,000\nSTDERR:\n"
        )
        out = tmp_path / "metrics_backfill.jsonl"
        assert run_cli("backfill", "--logs", logs, "--output", out) == EXIT_OK
        events = read_events(out)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start" and "task_tokens" in kinds


class TestRootOverride:
    def test_env_var_rebases_relative_paths(self, toy_dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("AUTOFORM_ROOT", str(tmp_path))
        code = run_cli("validate", "--dataset", toy_dataset.name)
        assert code == EXIT_OK

    def test_env_var_rebases_the_lemma_map_of_a_run(self, toy_dataset, tmp_path, monkeypatch,
                                                    capsys):
        lemma_map = tmp_path / "data" / "h.json"
        lemma_map.parent.mkdir()
        lemma_map.write_text(json.dumps([e.as_dict() for e in build_toy_lemma_map().values()]))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        monkeypatch.setenv("AUTOFORM_ROOT", str(tmp_path))
        lemma_flag = ["--lemma-map", "data/h.json"]
        flags = ["--dataset", toy_dataset.name, "--project", "project", *lemma_flag]
        assert run_cli("validate", "--dataset", toy_dataset.name, *lemma_flag) == EXIT_OK
        assert run_cli("stage1", *flags) == EXIT_OK
        assert run_cli("stage2", *flags) == EXIT_OK
        assert run_cli("resume", "--stage", "2", *flags) == EXIT_OK
        events = read_events(tmp_path / "project" / "runs" / "metrics_proof.jsonl")
        starts = [e["data"]["config"] for e in events if e["event"] == "run_start"]
        assert [c["lemma_map"] for c in starts] == [str(lemma_map)] * 2
        assert list(elsewhere.iterdir()) == []
