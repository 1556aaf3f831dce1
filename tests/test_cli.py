from __future__ import annotations

import json

import pytest

from autoform import cli
from autoform.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, build_parser, main
from autoform.corpus import dump_dataset
from autoform.instrumentation import read_events
from autoform.pipeline import RunConfig
from autoform.toydata import build_toy_lemma_map, build_toy_records

from helpers import synthetic_partial_proof_run, synthetic_proof_run, synthetic_statement_run


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

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'[{"index": 1, "label": "L", "env": "def", "content": "c", "context": "ch"}]',
             "record at position 0 has a context that is not an object"),
            (b'[{"index": 1, "label": "L", "env": "def", "content": "c",'
             b' "context": {"chapter_number": "one"}}]',
             "record at position 0 has non-integer context.chapter_number"),
            (b'[{"index": 1, "label": "\xe9", "env": "def", "content": "c"}]', "not valid UTF-8"),
        ],
    )
    def test_a_malformed_record_is_a_dataset_error(self, tmp_path, data, message, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        assert run_cli("validate", "--dataset", bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("dataset error:") and message in err

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"P1": 5}, "lemma map entry at position 0 is not an object"),
            ([{"problem_id": ["a"]}], "has no string or integer problem_id"),
            ([{"problem_id": "P1", "decl_hints": [["a"], None, 3]}], "decl_hints entry 0"),
            ([{"problem_id": "P1", "notes": {"x": 1}}], "notes is not a string"),
        ],
    )
    def test_a_malformed_lemma_map_is_a_dataset_error(
        self, toy_dataset, tmp_path, data, message, capsys
    ):
        bad = tmp_path / "lm.json"
        bad.write_text(json.dumps(data))
        assert run_cli("validate", "--dataset", toy_dataset, "--lemma-map", bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("dataset error:") and message in err


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
        events = synthetic_statement_run() + synthetic_proof_run() + synthetic_partial_proof_run()
        path.write_text("".join(json.dumps(ev) + "\n" for ev in events), encoding="utf-8")
        return path

    def test_account_reproduces_synthetic_totals(self, fixture_logs, capsys):
        code = run_cli(
            "account", "--metrics", fixture_logs, "--json",
            "--run-id", "statement_synthetic",
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["verifier_calls"] == 592
        assert data["scc"] == 100.0

        code = run_cli(
            "account", "--metrics", fixture_logs, "--json",
            "--run-id", "proof_synthetic",
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
                "--run-id", "proof_synthetic_partial", "--alpha", "0.25")
        data = json.loads(capsys.readouterr().out)
        assert data["costs"] == {"0.25": 367.75}

    def test_account_counts_only_the_oracle_results_tokens(self, tmp_path, capsys):
        """An old stream's backfill run, whose ``task_tokens`` line restated
        the proof run's transcripts, adds no tokens to the total."""
        path = tmp_path / "old.jsonl"
        events = [
            {"ts": "t", "run_id": "proof", "event": "run_start", "data": {"schema_version": 2}},
            {"ts": "t", "run_id": "proof", "event": "oracle_result", "data": {"tokens_used": 34170}},
            {"ts": "t", "run_id": "proof", "event": "oracle_result", "data": {"tokens_used": 31661}},
            {"ts": "t", "run_id": "backfill", "event": "run_start",
             "data": {"schema_version": 2, "pipeline": "backfill"}},
            {"ts": "t", "run_id": "backfill", "event": "task_tokens",
             "data": {"task": "0_L119", "tokens_used_total": 65831}},
        ]
        path.write_text("".join(json.dumps(ev) + "\n" for ev in events), encoding="utf-8")
        assert run_cli("account", "--metrics", path, "--json") == EXIT_OK
        assert json.loads(capsys.readouterr().out)["tokens"] == 65831
        assert run_cli("account", "--metrics", path, "--json", "--run-id", "backfill") == EXIT_OK
        assert json.loads(capsys.readouterr().out)["tokens"] == 0

    def test_report_csv_is_deterministic(self, fixture_logs, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        run_cli("report", "--metrics", fixture_logs, "--output", out1,
                "--run-id", "proof_synthetic_partial")
        run_cli("report", "--metrics", fixture_logs, "--output", out2,
                "--run-id", "proof_synthetic_partial")
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert len(lines) == 101  # header + 100 problems


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

    def test_split_reports_only_the_parts_it_wrote(self, tmp_path, capsys):
        project = tmp_path / "project"
        project.mkdir()
        lines = ["def d0 : T := sorry"] + [f"def d{i} : T := d{i-1}" for i in range(1, 40)]
        (project / "A.lean").write_text("\n\n".join(lines) + "\n")
        (project / "A_partner.lean").write_text("def p : T := sorry\n")
        code = run_cli("split", "--project", project, "--file", "A.lean", "--threshold", "40")
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        parts = [f"A_part{k}.lean" for k in range(1, len(data["parts"]) + 1)]
        assert len(parts) >= 2 and data["parts"] == parts
        aggregate = (project / "A.lean").read_text()
        assert aggregate == "".join(f"import {p[:-5]}\n" for p in parts)
        # a file under the threshold is not split, and no part is reported
        code = run_cli("split", "--project", project, "--file", "A.lean", "--threshold", "40")
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["parts"] == []

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

    @pytest.mark.parametrize("file", ["a.b/X.lean", "A/X.v2.lean"])
    def test_a_file_whose_parts_cannot_be_imported_exits_2_untouched(
        self, tmp_path, capsys, file
    ):
        # a dot in the directory or the stem: the import of part 1, such as
        # a.b.X_part1, names another file (a/b/X_part1.lean)
        project = tmp_path / "project"
        (project / file).parent.mkdir(parents=True)
        text = "\n\n".join(f"theorem t{i} : True := trivial" for i in range(40)) + "\n"
        (project / file).write_text(text)
        code = run_cli("split", "--project", project, "--file", file, "--threshold", "10")
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and f"cannot split {file}" in err
        written = sorted(p.relative_to(project).as_posix() for p in project.rglob("*"))
        assert written == [file.split("/")[0], file]
        assert (project / file).read_text() == text

    @pytest.mark.parametrize("where", ["absolute", "dotdot", "dot", "sub_dotdot"])
    def test_a_file_outside_the_project_exits_2_untouched(self, tmp_path, capsys, where):
        # "./Big.lean" and "sub/../Big.lean" name a file of the project, but
        # not in the plain form its parts and their imports are named from
        project, elsewhere = tmp_path / "project", tmp_path / "elsewhere"
        project.mkdir()
        elsewhere.mkdir()
        (project / "sub").mkdir()
        text = "\n\n".join(f"theorem t{i} : True := trivial" for i in range(14)) + "\n"
        home = elsewhere if where in ("absolute", "dotdot") else project
        (home / "Big.lean").write_text(text)
        file = {
            "absolute": elsewhere / "Big.lean",
            "dotdot": "../elsewhere/Big.lean",
            "dot": "./Big.lean",
            "sub_dotdot": "sub/../Big.lean",
        }[where]
        code = run_cli("split", "--project", project, "--file", file, "--threshold", "10")
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "--file must name a file inside --project" in err
        assert sorted(p.name for p in project.iterdir()) == sorted(
            ["sub"] + (["Big.lean"] if home == project else [])
        )
        assert list((project / "sub").iterdir()) == []
        assert [p.name for p in elsewhere.iterdir()] == (["Big.lean"] if home == elsewhere else [])
        assert (home / "Big.lean").read_text() == text


def test_the_docstring_names_every_subcommand():
    """The subcommands the ``cli`` docstring lists are the parser's."""
    listed = cli.__doc__.split("Subcommands:")[1].split(".")[0]
    parser = build_parser()
    [sub] = [a for a in parser._actions if a.dest == "command"]
    assert [name.strip() for name in listed.split(",")] == list(sub.choices)


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
