"""Tier-1 gate for the whole-program pass: the real tree is clean.

Mirrors ``tests/analysis/test_self_clean.py`` one layer up: the project
rules (PRIV-003, DET-001/002/003, FS-001/002/003, CONC-001/002,
RES-001, THR-001..004) must report zero un-baselined findings on
``src/repro`` and ``tests`` with the shipped baseline, and an injected
cross-module leak must be caught with its full path.
"""

import json
import shutil
from pathlib import Path

from repro.analysis import get_rules, run_project
from repro.analysis.project import Baseline
from repro.analysis.reporters import render_text

REPO_ROOT = Path(__file__).resolve().parents[3]
BASELINE = REPO_ROOT / ".repro-lint-baseline.json"

_PROJECT_RULES = [
    "CONC-001", "CONC-002",
    "DET-001", "DET-002", "DET-003",
    "FS-001", "FS-002", "FS-003",
    "PRIV-003",
    "RES-001",
    "THR-001", "THR-002", "THR-003", "THR-004",
]


def _run(paths, baseline=None):
    return run_project(
        paths,
        rules=get_rules(select=_PROJECT_RULES),
        baseline_path=baseline,
    )


class TestShippedBaseline:
    def test_baseline_file_exists_and_parses(self):
        assert BASELINE.exists()
        Baseline.load(BASELINE)

    def test_src_repro_has_zero_unbaselined_project_findings(self):
        report = _run([REPO_ROOT / "src" / "repro"], BASELINE)
        assert report.errors == []
        assert report.findings == [], "\n" + render_text(report.findings)

    def test_src_and_tests_have_zero_unbaselined_project_findings(self):
        report = _run([REPO_ROOT / "src", REPO_ROOT / "tests"], BASELINE)
        assert report.errors == []
        assert report.findings == [], "\n" + render_text(report.findings)

    def test_shipped_baseline_carries_no_debt(self):
        # The ratchet starts at zero: nothing in the current tree is
        # grandfathered.  Keep it that way.
        document = json.loads(BASELINE.read_text(encoding="utf-8"))
        assert document["fingerprints"] == {}


class TestInjectedCrossModuleLeak:
    def test_leak_threaded_through_the_real_tree_is_detected(self, tmp_path):
        # Source call injected into core/statistics.py, sink into
        # core/generation.py — the leak only exists across the module
        # boundary, exactly what the per-module pass cannot see.
        tree = tmp_path / "repro"
        shutil.copytree(REPO_ROOT / "src" / "repro", tree)
        statistics = tree / "core" / "statistics.py"
        statistics.write_text(
            statistics.read_text(encoding="utf-8")
            + "\n\ndef _grab_records():\n"
            "    from repro.datasets import load_ionosphere\n"
            "    return load_ionosphere()\n",
            encoding="utf-8",
        )
        generation = tree / "core" / "generation.py"
        generation.write_text(
            generation.read_text(encoding="utf-8")
            + "\n\ndef _debug_dump(out):\n"
            "    from repro.core.statistics import _grab_records\n"
            "    np.savetxt(out, _grab_records())\n",
            encoding="utf-8",
        )
        report = _run([tree])
        assert [f.rule_id for f in report.findings] == ["PRIV-003"]
        [finding] = report.findings
        assert finding.path.endswith("generation.py")
        trace = "\n".join(finding.trace)
        assert "load_ionosphere" in trace
        assert "_grab_records" in trace
        assert "statistics.py" in trace
        assert "savetxt" in trace
