"""``repro lint --project``: flags, ratchet workflow, JSON artifact."""

import json

import pytest

from repro.analysis.cli import main as analysis_main
from repro.analysis.project import run_project
from repro.cli import main as repro_main

_LOADER = "def load_fake():\n    return [[1.0, 2.0]]\n"
_LEAKY = (
    "import numpy as np\n"
    "from repro.datasets.gen import load_fake\n\n"
    "def dump(path):\n"
    "    rows = load_fake()\n"
    "    np.savetxt(path, rows)\n"
)


@pytest.fixture
def leaky_tree(tmp_path):
    root = tmp_path / "src" / "repro"
    (root / "datasets").mkdir(parents=True)
    (root / "core").mkdir()
    (root / "datasets" / "gen.py").write_text(_LOADER)
    (root / "core" / "leaky.py").write_text(_LEAKY)
    return tmp_path


def _lint(tree, *extra):
    return analysis_main([
        str(tree / "src"),
        "--select", "PRIV-003",
        *extra,
    ])


class TestProjectFlag:
    def test_project_pass_reports_the_leak_with_a_trace(
        self, leaky_tree, capsys
    ):
        assert _lint(leaky_tree, "--project", "--format", "json") == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["by_rule"] == {"PRIV-003": 1}
        [finding] = document["findings"]
        assert finding["rule_id"] == "PRIV-003"
        assert any("load_fake" in hop for hop in finding["trace"])
        assert any("savetxt" in hop for hop in finding["trace"])
        assert document["stats"] == {
            "total_files": 2, "analyzed_files": 2,
        }

    def test_module_pass_alone_misses_the_cross_module_leak(
        self, leaky_tree
    ):
        assert _lint(leaky_tree) == 0

    def test_zero_filled_rules_in_the_artifact(self, leaky_tree, capsys):
        assert analysis_main([
            str(leaky_tree / "src"), "--project", "--format", "json",
            "--select", "PRIV-003,DET-001",
        ]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["by_rule"] == {
            "DET-001": 0, "PRIV-003": 1,
        }


class TestOnePass:
    def test_doc_only_edit_shows_on_the_next_run(
        self, tmp_path, monkeypatch
    ):
        package = tmp_path / "src" / "repro" / "parallel"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(
            '"""Pool."""\n\n__all__ = ["condense_sharded"]\n'
        )
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "parallel.md").write_text("`condense_sharded` shards.\n")
        (docs / "api.md").write_text("# API\n")
        monkeypatch.chdir(tmp_path)

        first = run_project(["src"])
        assert "DOC-002" not in {f.rule_id for f in first.findings}
        (docs / "parallel.md").write_text("Sharding is documented.\n")
        second = run_project(["src"])
        [finding] = [f for f in second.findings if f.rule_id == "DOC-002"]
        assert "condense_sharded" in finding.message

    def test_project_run_writes_nothing(
        self, leaky_tree, monkeypatch, capsys
    ):
        monkeypatch.chdir(leaky_tree)
        before = sorted(leaky_tree.rglob("*"))
        assert analysis_main(["src", "--project"]) == 1
        assert "PRIV-003" in capsys.readouterr().out
        assert sorted(leaky_tree.rglob("*")) == before


class TestBaselineRatchet:
    def test_update_baseline_grandfathers_and_later_runs_pass(
        self, leaky_tree, capsys
    ):
        baseline = leaky_tree / "baseline.json"
        assert _lint(
            leaky_tree, "--baseline", str(baseline), "--update-baseline"
        ) == 0
        assert baseline.exists()
        assert _lint(leaky_tree, "--baseline", str(baseline)) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_new_findings_beyond_the_baseline_fail(self, leaky_tree, capsys):
        baseline = leaky_tree / "baseline.json"
        _lint(leaky_tree, "--baseline", str(baseline), "--update-baseline")
        capsys.readouterr()
        leaky = leaky_tree / "src" / "repro" / "core" / "leaky.py"
        leaky.write_text(
            _LEAKY + "\ndef dump_again(path):\n"
            "    np.savetxt(path, load_fake())\n"
        )
        assert _lint(
            leaky_tree, "--baseline", str(baseline), "--format", "json"
        ) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["total"] == 1
        assert document["summary"]["baselined"] == 1

    def test_baseline_flag_implies_project_mode(self, leaky_tree, capsys):
        baseline = leaky_tree / "baseline.json"
        assert _lint(
            leaky_tree, "--baseline", str(baseline), "--format", "json"
        ) == 1
        document = json.loads(capsys.readouterr().out)
        assert "stats" in document

    def test_update_baseline_requires_baseline_path(self, leaky_tree, capsys):
        assert _lint(leaky_tree, "--update-baseline") == 2
        assert "requires --baseline" in capsys.readouterr().err

    def test_corrupt_baseline_exits_two(self, leaky_tree, capsys):
        baseline = leaky_tree / "baseline.json"
        baseline.write_text("[]")
        assert _lint(leaky_tree, "--baseline", str(baseline)) == 2
        assert "invalid baseline" in capsys.readouterr().err


class TestSuppressions:
    def test_project_findings_honor_suppression_comments(
        self, leaky_tree, capsys
    ):
        leaky = leaky_tree / "src" / "repro" / "core" / "leaky.py"
        leaky.write_text(_LEAKY.replace(
            "    np.savetxt(path, rows)\n",
            "    np.savetxt(path, rows)  "
            "# repro-lint: disable=PRIV-003 -- canary\n",
        ))
        assert _lint(leaky_tree, "--project", "--format", "json") == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["suppressed"] == {"PRIV-003": 1}
        assert document["summary"]["total"] == 0


class TestReproLintWiring:
    def test_repro_lint_accepts_the_project_flags(self, leaky_tree, capsys):
        assert repro_main([
            "lint", str(leaky_tree / "src"),
            "--project", "--select", "PRIV-003",
        ]) == 1
        assert "PRIV-003" in capsys.readouterr().out
