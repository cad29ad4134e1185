"""PRIV-003 taint canaries: leaks fire with full paths, sanctioned flows stay clean."""

from repro.analysis import ModuleContext, get_rules
from repro.analysis.project import build_index


def _priv003(modules):
    contexts = [
        ModuleContext.from_source(source, path)
        for path, source in modules.items()
    ]
    index = build_index(contexts)
    [rule] = get_rules(select=["PRIV-003"])
    return list(rule.check_project(index))


_LOADER = "def load_fake():\n    return [[1.0, 2.0]]\n"


class TestCrossModuleLeak:
    def test_leak_threaded_through_two_modules_fires_with_full_path(self):
        findings = _priv003({
            "src/repro/datasets/gen.py": _LOADER,
            "src/repro/core/a.py": (
                "from repro.datasets.gen import load_fake\n\n"
                "def produce():\n"
                "    return load_fake()\n"
            ),
            "src/repro/core/b.py": (
                "import numpy as np\n"
                "from repro.core.a import produce\n\n"
                "def emit():\n"
                "    data = produce()\n"
                "    np.savetxt('x.txt', data)\n"
            ),
        })
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule_id == "PRIV-003"
        assert finding.path == "src/repro/core/b.py"
        # The trace walks source → intermediate return → sink.
        trace = "\n".join(finding.trace)
        assert "load_fake" in trace
        assert "produce" in trace
        assert "savetxt" in trace
        assert "src/repro/core/a.py" in trace

    def test_entry_param_reaching_telemetry_fires(self):
        findings = _priv003({
            "src/repro/core/c.py": (
                "from repro import telemetry\n\n"
                "def condense(data, k):\n"
                "    with telemetry.span('s') as span:\n"
                "        span.set_attribute('first', data[0])\n"
            ),
        })
        assert [f.rule_id for f in findings] == ["PRIV-003"]
        assert "parameter 'data'" in findings[0].message

    def test_pickle_dump_of_records_fires(self):
        findings = _priv003({
            "src/repro/datasets/gen.py": _LOADER,
            "src/repro/core/d.py": (
                "import pickle\n"
                "from repro.datasets.gen import load_fake\n\n"
                "def stash(path):\n"
                "    rows = load_fake()\n"
                "    with open(path, 'wb') as fh:\n"
                "        pickle.dump(rows, fh)\n"
            ),
        })
        assert [f.rule_id for f in findings] == ["PRIV-003"]


class TestSanctionedFlows:
    def test_aggregation_before_sink_is_clean(self):
        findings = _priv003({
            "src/repro/datasets/gen.py": _LOADER,
            "src/repro/core/e.py": (
                "import numpy as np\n"
                "from repro.datasets.gen import load_fake\n\n"
                "def summarize(path):\n"
                "    data = np.asarray(load_fake())\n"
                "    stats = data.mean(axis=0)\n"
                "    np.savetxt(path, stats)\n"
            ),
        })
        assert findings == []

    def test_matrix_product_sanitizes(self):
        findings = _priv003({
            "src/repro/core/f.py": (
                "import numpy as np\n\n"
                "def second_moment(data, out):\n"
                "    sc = data.T @ data\n"
                "    np.savetxt(out, sc)\n"
            ),
        })
        assert findings == []

    def test_sinks_in_sanctioned_modules_are_clean(self):
        findings = _priv003({
            "src/repro/datasets/gen.py": _LOADER,
            "src/repro/io/writer.py": (
                "import numpy as np\n"
                "from repro.datasets.gen import load_fake\n\n"
                "def write_fake(path):\n"
                "    np.savetxt(path, load_fake())\n"
            ),
        })
        assert findings == []

    def test_metadata_attributes_drop_taint(self):
        findings = _priv003({
            "src/repro/core/g.py": (
                "from repro import telemetry\n\n"
                "def condense(data, k):\n"
                "    n = data.shape[0]\n"
                "    telemetry.counter_inc('records', n)\n"
            ),
        })
        assert findings == []

    def test_unpacking_narrows_taint_to_record_named_targets(self):
        # Shard task tuples carry scalars next to the records; only the
        # record-named element keeps taint through the unpack.
        findings = _priv003({
            "src/repro/core/h.py": (
                "import numpy as np\n\n"
                "def run(task, out):\n"
                "    records, k, strategy = task\n"
                "    np.savetxt(out, k)\n"
            ),
            "src/repro/core/i.py": (
                "from repro.core.h import run\n"
                "from repro.datasets.gen import load_fake\n\n"
                "def drive(out):\n"
                "    data = load_fake()\n"
                "    run((data, 3, 'seq'), out)\n"
            ),
            "src/repro/datasets/gen.py": _LOADER,
        })
        assert findings == []

    def test_record_named_unpack_target_keeps_taint(self):
        findings = _priv003({
            "src/repro/core/j.py": (
                "import numpy as np\n\n"
                "def run(task, out):\n"
                "    records, k = task\n"
                "    np.savetxt(out, records)\n"
            ),
            "src/repro/core/k.py": (
                "from repro.core.j import run\n"
                "from repro.datasets.gen import load_fake\n\n"
                "def drive(out):\n"
                "    run((load_fake(), 3), out)\n"
            ),
            "src/repro/datasets/gen.py": _LOADER,
        })
        assert [f.rule_id for f in findings] == ["PRIV-003"]


class TestRealTree:
    def test_generation_path_stays_clean_on_the_real_tree(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[3] / "src" / "repro"
        modules = {
            str(path): path.read_text(encoding="utf-8")
            for path in sorted(root.rglob("*.py"))
        }
        # check_project sees raw findings, before any suppression: no
        # path writes raw records to a file, so none may surface.
        sites = sorted(
            Path(finding.path).name for finding in _priv003(modules)
        )
        assert sites == []
