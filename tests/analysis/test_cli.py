"""Analyzer CLI: exit codes, formats, selection, and `repro lint`."""

import json

import pytest

from repro.analysis.cli import main as analysis_main
from repro.analysis.registry import get_rules
from repro.cli import main as repro_main

_VIOLATION = "import numpy as np\nnp.random.seed(0)\n"
_CLEAN = "VERSION = 1\n"


@pytest.fixture
def violating_file(tmp_path):
    path = tmp_path / "src" / "repro" / "core" / "bad.py"
    path.parent.mkdir(parents=True)
    path.write_text(_VIOLATION)
    return path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(_CLEAN)
        assert analysis_main([str(tmp_path)]) == 0
        assert "0 findings — clean" in capsys.readouterr().out

    def test_findings_exit_one(self, violating_file, capsys):
        assert analysis_main([str(violating_file)]) == 1
        assert "RNG-001" in capsys.readouterr().out

    def test_unparsable_file_exits_one_and_is_reported(
        self, tmp_path, capsys
    ):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert analysis_main([str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert analysis_main([str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(_CLEAN)
        assert analysis_main([str(tmp_path), "--select", "NOPE-9"]) == 2
        assert "unknown rule id" in capsys.readouterr().err


class TestOptions:
    def test_json_format(self, violating_file, capsys):
        assert analysis_main([str(violating_file), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == 3
        # by_rule is zero-filled over every module rule that ran so CI
        # artifacts diff cleanly run-to-run.
        assert document["summary"]["by_rule"]["RNG-001"] == 1
        assert document["summary"]["by_rule"]["PRIV-001"] == 0
        assert document["summary"]["suppressed"] == {}
        assert document["summary"]["baselined"] == 0
        assert all(
            "column" in finding for finding in document["findings"]
        )

    def test_select_isolates_rules(self, violating_file):
        assert analysis_main([str(violating_file), "--select", "PY-002"]) == 0

    def test_ignore_drops_rules(self, violating_file):
        assert (
            analysis_main([str(violating_file), "--ignore", "RNG-001"]) == 0
        )

    def test_list_rules_covers_every_registered_rule(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in get_rules():
            assert rule.rule_id in out, rule.rule_id
            assert f"[{rule.scope}]" in out

    def test_unknown_rule_in_ignore_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(_CLEAN)
        assert analysis_main([str(tmp_path), "--ignore", "NOPE-9"]) == 2
        assert "unknown rule id" in capsys.readouterr().err


class TestSarifFormat:
    def test_sarif_output_parses_and_carries_the_finding(
        self, violating_file, capsys
    ):
        assert analysis_main(
            [str(violating_file), "--format", "sarif"]
        ) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        [run] = document["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert {result["ruleId"] for result in run["results"]} \
            == {"RNG-001"}

    def test_project_sarif_clean_run(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(_CLEAN)
        assert analysis_main([
            str(tmp_path), "--project", "--format", "sarif",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        [run] = document["runs"]
        assert run["results"] == []
        assert run["invocations"][0]["executionSuccessful"] is True


class TestStats:
    def test_project_stats_prints_per_rule_timings(
        self, tmp_path, capsys
    ):
        (tmp_path / "ok.py").write_text(_CLEAN)
        assert analysis_main([
            str(tmp_path), "--project", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "per-rule timings:" in out

    def test_timings_stay_out_of_json_without_stats(
        self, tmp_path, capsys
    ):
        (tmp_path / "ok.py").write_text(_CLEAN)
        assert analysis_main([
            str(tmp_path), "--project", "--format", "json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "rule_timings" not in document.get("stats", {})


class TestReproLintSubcommand:
    def test_lint_is_wired_into_the_main_cli(self, violating_file, capsys):
        assert repro_main(["lint", str(violating_file)]) == 1
        assert "RNG-001" in capsys.readouterr().out

    def test_lint_clean_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(_CLEAN)
        assert repro_main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out
