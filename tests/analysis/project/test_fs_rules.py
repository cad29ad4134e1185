"""FS-001/002/003 canaries: the durability write/read protocol."""

import shutil
from pathlib import Path

import pytest

from repro.analysis import ModuleContext, get_rules, run_project
from repro.analysis.project import Baseline, build_index

REPO_ROOT = Path(__file__).resolve().parents[3]

_PREAMBLE = "import json\nimport os\nimport zlib\n"


def _durability_module(body, name="vandal"):
    return ModuleContext.from_source(
        _PREAMBLE + body, f"src/repro/durability/{name}.py"
    )


def _findings(contexts, rule_id):
    index = build_index(contexts)
    [rule] = get_rules(select=[rule_id])
    return list(rule.check_project(index))


@pytest.fixture(scope="module")
def repro_index():
    contexts = [
        ModuleContext.from_source(path.read_text(encoding="utf-8"), str(path))
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    ]
    return build_index(contexts)


class TestCleanTree:
    @pytest.mark.parametrize("rule_id", ["FS-001", "FS-002", "FS-003"])
    def test_real_tree_has_no_fs_findings(self, repro_index, rule_id):
        [rule] = get_rules(select=[rule_id])
        assert list(rule.check_project(repro_index)) == []


class TestAtomicWrite:
    def test_final_path_write_fires(self):
        contexts = [_durability_module(
            "def publish(path, state):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(json.dumps(state))\n"
        )]
        [finding] = _findings(contexts, "FS-001")
        assert "final path" in finding.message
        assert "os.replace" in finding.message
        assert finding.path.endswith("vandal.py")

    def test_orphaned_temp_file_fires(self):
        contexts = [_durability_module(
            "def publish(path, state):\n"
            "    temporary = path.with_suffix('.tmp')\n"
            "    with open(temporary, 'w') as handle:\n"
            "        handle.write(json.dumps(state))\n"
            "        handle.flush()\n"
            "        os.fsync(handle.fileno())\n"
        )]
        [finding] = _findings(contexts, "FS-001")
        assert "never os.replace()d" in finding.message

    def test_full_protocol_is_clean(self):
        contexts = [_durability_module(
            "def publish(path, state):\n"
            "    temporary = path.with_suffix('.tmp')\n"
            "    with open(temporary, 'w') as handle:\n"
            "        handle.write(json.dumps(state))\n"
            "        handle.flush()\n"
            "        os.fsync(handle.fileno())\n"
            "    os.replace(temporary, path)\n"
        )]
        assert _findings(contexts, "FS-001") == []

    def test_append_mode_is_exempt(self):
        # The WAL's append protocol publishes incrementally; its
        # durability comes from fsync cadence, not a rename.
        contexts = [_durability_module(
            "def journal(path, line):\n"
            "    with open(path, 'a') as handle:\n"
            "        handle.write(line)\n"
        )]
        assert _findings(contexts, "FS-001") == []

    def test_read_mode_is_exempt(self):
        contexts = [_durability_module(
            "def load(path):\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n"
        )]
        assert _findings(contexts, "FS-001") == []

    def test_findings_carry_a_durability_trace(self):
        contexts = [_durability_module(
            "def publish(path, state):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(json.dumps(state))\n"
        )]
        [finding] = _findings(contexts, "FS-001")
        assert finding.trace
        assert finding.trace[0].startswith("durability ")
        assert "publish" in finding.trace[0]


class TestFsyncBeforeRename:
    def test_replace_without_fsync_fires(self):
        contexts = [_durability_module(
            "def publish(path, state):\n"
            "    temporary = path.with_suffix('.tmp')\n"
            "    with open(temporary, 'w') as handle:\n"
            "        handle.write(json.dumps(state))\n"
            "    os.replace(temporary, path)\n"
        )]
        [finding] = _findings(contexts, "FS-002")
        assert "no preceding os.fsync()" in finding.message
        assert "hollow file" in finding.message

    def test_fsync_after_the_rename_fires(self):
        contexts = [_durability_module(
            "def publish(path, state):\n"
            "    temporary = path.with_suffix('.tmp')\n"
            "    with open(temporary, 'w') as handle:\n"
            "        handle.write(json.dumps(state))\n"
            "    os.replace(temporary, path)\n"
            "    with open(path) as handle:\n"
            "        os.fsync(handle.fileno())\n"
        )]
        [finding] = _findings(contexts, "FS-002")
        assert "before the os.fsync()" in finding.message

    def test_os_rename_is_flagged_in_favor_of_replace(self):
        contexts = [_durability_module(
            "def publish(path, state):\n"
            "    temporary = path.with_suffix('.tmp')\n"
            "    with open(temporary, 'w') as handle:\n"
            "        handle.write(json.dumps(state))\n"
            "        handle.flush()\n"
            "        os.fsync(handle.fileno())\n"
            "    os.rename(temporary, path)\n"
        )]
        [finding] = _findings(contexts, "FS-002")
        assert "use os.replace()" in finding.message

    def test_synced_replace_is_clean(self):
        contexts = [_durability_module(
            "def publish(path, state):\n"
            "    temporary = path.with_suffix('.tmp')\n"
            "    with open(temporary, 'w') as handle:\n"
            "        handle.write(json.dumps(state))\n"
            "        handle.flush()\n"
            "        os.fsync(handle.fileno())\n"
            "    os.replace(temporary, path)\n"
        )]
        assert _findings(contexts, "FS-002") == []


class TestCrcBeforeUse:
    def test_unvalidated_parse_fires(self):
        contexts = [_durability_module(
            "def load(path):\n"
            "    with open(path) as handle:\n"
            "        return json.loads(handle.read())\n"
        )]
        [finding] = _findings(contexts, "FS-003")
        assert "no preceding CRC validation" in finding.message

    def test_crc_checked_parse_is_clean(self):
        contexts = [_durability_module(
            "def load(line):\n"
            "    stated, body = line.split(' ', 1)\n"
            "    if int(stated, 16) != zlib.crc32(body.encode()):\n"
            "        return None\n"
            "    return json.loads(body)\n"
        )]
        assert _findings(contexts, "FS-003") == []

    def test_round_tripping_own_dumps_is_exempt(self):
        contexts = [_durability_module(
            "def deep_copy(state):\n"
            "    return json.loads(json.dumps(state))\n"
        )]
        assert _findings(contexts, "FS-003") == []

    def test_scope_stops_at_the_durability_package(self):
        # The closure reaches helpers outside repro.durability, but the
        # CRC-framing contract only binds formats the package owns.
        helper = ModuleContext.from_source(
            "import json\n"
            "def parse(text):\n"
            "    return json.loads(text)\n",
            "src/repro/io/parsehelp.py",
        )
        caller = _durability_module(
            "from repro.io.parsehelp import parse\n"
            "def load(line):\n"
            "    return parse(line)\n"
        )
        assert _findings([caller, helper], "FS-003") == []


class TestVandalizedSnapshotWriter:
    def test_stripping_the_protocol_from_the_real_writer_is_caught(
        self, tmp_path
    ):
        # The canonical canary: take the real atomic writer (the one
        # publish() every snapshot, shard checkpoint and router
        # document goes through) and break its protocol; the FS pass
        # must notice both the missing fsync and the downgraded rename.
        tree = tmp_path / "repro"
        shutil.copytree(REPO_ROOT / "src" / "repro", tree)
        writer = tree / "durability" / "_files.py"
        source = writer.read_text(encoding="utf-8")
        assert "os.fsync(handle.fileno())" in source
        assert "os.replace(temporary, final)" in source
        source = source.replace(
            "        os.fsync(handle.fileno())\n", ""
        )
        source = source.replace(
            "os.replace(temporary, final)", "os.rename(temporary, final)"
        )
        writer.write_text(source, encoding="utf-8")
        contexts = [
            ModuleContext.from_source(
                path.read_text(encoding="utf-8"), str(path)
            )
            for path in sorted(tree.rglob("*.py"))
        ]
        messages = [f.message for f in _findings(contexts, "FS-002")]
        assert any("use os.replace()" in message for message in messages)
        assert any(
            "no preceding os.fsync()" in message for message in messages
        )


class TestSuppressionAndBaseline:
    def _vandal_tree(self, tmp_path, suppress=False):
        package = tmp_path / "repro" / "durability"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        comment = (
            "    # repro-lint: disable-next=FS-001 -- canary\n"
            if suppress else ""
        )
        (package / "vandal.py").write_text(
            "import json\n"
            "def publish(path, state):\n"
            + comment +
            "    with open(path, 'w') as handle:\n"
            "        handle.write(json.dumps(state))\n",
            encoding="utf-8",
        )
        return tmp_path / "repro"

    def test_suppression_comment_silences_the_finding(self, tmp_path):
        tree = self._vandal_tree(tmp_path, suppress=True)
        report = run_project(
            [tree], rules=get_rules(select=["FS-001"]),
        )
        assert report.findings == []
        assert report.suppressed == {"FS-001": 1}

    def test_baseline_grandfathers_then_ratchets(self, tmp_path):
        tree = self._vandal_tree(tmp_path)
        report = run_project(
            [tree], rules=get_rules(select=["FS-001"]),
        )
        assert [f.rule_id for f in report.findings] == ["FS-001"]
        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(report.findings).save(baseline_path)
        again = run_project(
            [tree], rules=get_rules(select=["FS-001"]),
            baseline_path=baseline_path,
        )
        assert again.findings == []
        assert again.baselined == 1
