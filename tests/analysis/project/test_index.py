"""Project index: module names, imports, resolution, call graph."""

from repro.analysis import ModuleContext
from repro.analysis.project import build_index, module_name_for_path


def _index(modules):
    contexts = [
        ModuleContext.from_source(source, path)
        for path, source in modules.items()
    ]
    return build_index(contexts)


class TestModuleNames:
    def test_src_prefix_is_stripped(self):
        assert (
            module_name_for_path("src/repro/core/generation.py")
            == "repro.core.generation"
        )

    def test_package_init_maps_to_the_package(self):
        assert module_name_for_path("src/repro/core/__init__.py") == "repro.core"

    def test_tests_keep_their_components(self):
        assert (
            module_name_for_path("tests/core/test_x.py") == "tests.core.test_x"
        )

    def test_absolute_tmp_path_recovers_the_package(self):
        assert (
            module_name_for_path("/tmp/pytest-1/copy/repro/parallel/engine.py")
            == "repro.parallel.engine"
        )


class TestResolution:
    def test_import_alias_resolves(self):
        index = _index({
            "src/repro/a.py": "def f():\n    return 1\n",
            "src/repro/b.py": "from repro import a\n\ndef g():\n    return a.f()\n",
        })
        info = index.module_for_path("src/repro/b.py")
        assert index.resolve(info, "a.f") == "repro.a.f"
        resolved = index.resolve_function(info, "a.f")
        assert resolved is not None and resolved.qualname == "repro.a.f"

    def test_package_reexport_chain_resolves(self):
        index = _index({
            "src/repro/pkg/__init__.py": "from repro.pkg.impl import f\n",
            "src/repro/pkg/impl.py": "def f():\n    return 1\n",
            "src/repro/use.py": (
                "from repro import pkg\n\ndef g():\n    return pkg.f()\n"
            ),
        })
        info = index.module_for_path("src/repro/use.py")
        assert index.resolve(info, "pkg.f") == "repro.pkg.impl.f"

    def test_relative_import_resolves_against_the_package(self):
        index = _index({
            "src/repro/core/__init__.py": "",
            "src/repro/core/x.py": "def f():\n    return 1\n",
            "src/repro/core/y.py": (
                "from . import x\n\ndef g():\n    return x.f()\n"
            ),
        })
        info = index.module_for_path("src/repro/core/y.py")
        assert index.resolve(info, "x.f") == "repro.core.x.f"

    def test_self_method_resolves_within_the_class(self):
        index = _index({
            "src/repro/c.py": (
                "class C:\n"
                "    def helper(self):\n"
                "        return 1\n"
                "    def run(self):\n"
                "        return self.helper()\n"
            ),
        })
        graph = index.call_graph()
        assert "repro.c.C.helper" in graph["repro.c.C.run"]


class TestCallGraph:
    def test_reachability_returns_shortest_paths(self):
        index = _index({
            "src/repro/chain.py": (
                "def a():\n    return b()\n"
                "def b():\n    return c()\n"
                "def c():\n    return 1\n"
            ),
        })
        paths = index.reachable_from(["repro.chain.a"])
        assert paths["repro.chain.c"] == [
            "repro.chain.a", "repro.chain.b", "repro.chain.c",
        ]

    def test_worker_roots_found_from_pool_map(self):
        index = _index({
            "src/repro/parallel/eng.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def _work(task):\n    return task\n"
                "def run(tasks):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return list(pool.map(_work, tasks))\n"
            ),
        })
        assert index.worker_roots() == ["repro.parallel.eng._work"]

    def test_real_tree_indexes_and_finds_the_shard_worker(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[3] / "src" / "repro"
        contexts = [
            ModuleContext.from_source(
                path.read_text(encoding="utf-8"), str(path)
            )
            for path in sorted(root.rglob("*.py"))
        ]
        index = build_index(contexts)
        assert "repro.parallel.engine._condense_shard_payload" \
            in index.worker_roots()
        reachable = index.reachable_from(index.worker_roots())
        assert "repro.parallel.engine._condense_shard" in reachable
        assert "repro.core.condensation.create_condensed_groups" in reachable
