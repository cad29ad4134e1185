"""DET canaries injected into a copy of the real ``parallel/engine.py``."""

import shutil
from pathlib import Path

import pytest

from repro.analysis import ModuleContext, get_rules
from repro.analysis.project import build_index

REPO_ROOT = Path(__file__).resolve().parents[3]
WORKER_LINE = "    records, k, strategy, sequence = task"


def _contexts_for_tree(root):
    return [
        ModuleContext.from_source(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(Path(root).rglob("*.py"))
    ]


def _det_findings(contexts, rule_id):
    index = build_index(contexts)
    [rule] = get_rules(select=[rule_id])
    return list(rule.check_project(index))


@pytest.fixture(scope="module")
def repro_copy(tmp_path_factory):
    """A scratch copy of ``src/repro`` whose engine can be vandalized."""
    destination = tmp_path_factory.mktemp("tree") / "repro"
    shutil.copytree(REPO_ROOT / "src" / "repro", destination)
    return destination


def _inject_into_worker(tree, header_lines, body_lines):
    """Add lines to the copy's ``_condense_shard`` body (and imports)."""
    engine = tree / "parallel" / "engine.py"
    source = engine.read_text(encoding="utf-8")
    assert WORKER_LINE in source
    injected = source.replace(
        WORKER_LINE,
        WORKER_LINE + "\n" + "\n".join(f"    {line}" for line in body_lines),
    )
    injected = "\n".join(header_lines) + "\n" + injected
    engine.write_text(injected, encoding="utf-8")


class TestCleanEngine:
    @pytest.mark.parametrize("rule_id", ["DET-001", "DET-002"])
    def test_real_tree_has_no_det_findings(self, rule_id):
        contexts = _contexts_for_tree(REPO_ROOT / "src" / "repro")
        assert _det_findings(contexts, rule_id) == []

    def test_real_tree_raw_det003_findings_are_only_suppressed_sites(self):
        # check_project sees raw findings; the runner filters the four
        # justified DET-003 suppressions — the shared-pool registry in
        # pool.py (coordinator-only; the worker-reachability is a
        # call-graph over-approximation through create_condensed_groups)
        # and the worker-local attachment cache in shm.py (pure
        # memoization of a read-only view).  Nothing else may surface.
        contexts = _contexts_for_tree(REPO_ROOT / "src" / "repro")
        sites = sorted(
            Path(finding.path).name
            for finding in _det_findings(contexts, "DET-003")
        )
        assert sites == ["pool.py", "pool.py", "shm.py", "shm.py"]


class TestInjectedCanaries:
    @pytest.fixture(scope="class")
    def vandalized(self, repro_copy):
        _inject_into_worker(
            repro_copy,
            header_lines=[
                "import time as _time_mod",
                "import random as _random_mod",
                "import os as _os_mod",
                "_SHARD_LOG = {}",
            ],
            body_lines=[
                "_stamp = _time_mod.time()",
                "_jitter = _random_mod.random()",
                "_pid = _os_mod.getpid()",
                "_SHARD_LOG['last'] = _stamp",
            ],
        )
        return _contexts_for_tree(repro_copy)

    def test_wall_clock_read_fires_det_001(self, vandalized):
        findings = _det_findings(vandalized, "DET-001")
        messages = [finding.message for finding in findings]
        assert any("time.time()" in message for message in messages)
        assert any("os.getpid()" in message for message in messages)

    def test_stdlib_random_fires_det_002(self, vandalized):
        findings = _det_findings(vandalized, "DET-002")
        assert any(
            "random.random()" in finding.message for finding in findings
        )

    def test_module_state_mutation_fires_det_003(self, vandalized):
        findings = _det_findings(vandalized, "DET-003")
        assert any("_SHARD_LOG" in finding.message for finding in findings)

    def test_findings_carry_the_worker_call_path(self, vandalized):
        for rule_id in ("DET-001", "DET-002", "DET-003"):
            for finding in _det_findings(vandalized, rule_id):
                assert finding.trace
                assert finding.trace[0].startswith("worker ")
                assert "_condense_shard" in finding.trace[0]


class TestExemptions:
    def test_monotonic_timers_stay_legal(self):
        contexts = [ModuleContext.from_source(
            "import time\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def _work(task):\n"
            "    t = time.perf_counter()\n"
            "    m = time.monotonic()\n"
            "    return task\n"
            "def run(tasks):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(_work, tasks))\n",
            "src/repro/parallel/eng.py",
        )]
        assert _det_findings(contexts, "DET-001") == []

    def test_violation_deep_in_the_call_chain_is_reached(self):
        contexts = [
            ModuleContext.from_source(
                "from concurrent.futures import ProcessPoolExecutor\n"
                "from repro.helper import deep\n"
                "def _work(task):\n"
                "    return deep(task)\n"
                "def run(tasks):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return list(pool.map(_work, tasks))\n",
                "src/repro/parallel/eng.py",
            ),
            ModuleContext.from_source(
                "import time\n\ndef deep(task):\n    return time.time()\n",
                "src/repro/helper.py",
            ),
        ]
        findings = _det_findings(contexts, "DET-001")
        assert len(findings) == 1
        assert findings[0].path == "src/repro/helper.py"
        assert "→ repro.helper.deep()" in findings[0].trace
