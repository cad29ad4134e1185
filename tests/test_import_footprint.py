"""What ``repro serve`` and ``repro lint`` load, in a fresh interpreter.

The package front door and the CLI resolve their names on first use, so
the serve process holds only the modules it runs: no analyzer rules or
project pass, no mining, evaluation, quality or attack code, no
parallel engine or load generator, and no ``multiprocessing``.  The
public names must still import exactly as before.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=SRC)

#: Module prefixes the serve path must not load.
NOT_ON_THE_SERVE_PATH = (
    "repro.analysis.rules",
    "repro.analysis.project",
    "repro.mining",
    "repro.evaluation",
    "repro.quality",
    "repro.privacy.attacks",
    "repro.parallel",
    "repro.serve.loadgen",
    "multiprocessing",
)

PUBLIC_NAMES = [
    "ClasswiseCondenser",
    "CondensedModel",
    "DynamicCondenser",
    "DynamicGroupMaintainer",
    "GroupStatistics",
    "StaticCondenser",
    "create_condensed_groups",
    "generate_anonymized_data",
    "split_group_statistics",
    "condense_sharded",
    "covariance_compatibility",
    "linkage_attack",
    "privacy_report",
    "__version__",
]


def _run(*args, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120, check=False,
        env=ENV, cwd=cwd,
    )


def _python(code: str, *args) -> subprocess.CompletedProcess:
    return _run("-c", textwrap.dedent(code), *args)


def _forbidden(modules) -> list:
    return sorted(
        name for name in modules
        if any(name == prefix or name.startswith(prefix + ".")
               for prefix in NOT_ON_THE_SERVE_PATH)
    )


def test_serve_path_loads_only_what_it_runs(tmp_path):
    completed = _python("""
        import json, sys
        import repro.cli
        parser = repro.cli.build_parser()
        arguments = parser.parse_args(
            ["serve", "--port", "0", "--checkpoint-dir", sys.argv[1]])
        from repro.serve import (
            AnonymizationHTTPServer, ShardedCondensationService,
            install_signal_handlers)
        import numpy as np
        service = ShardedCondensationService.open(
            arguments.checkpoint_dir, 2, 3, bootstrap_size=12)
        service.ingest(np.random.default_rng(0).normal(size=(40, 3)))
        service.model()
        service.generate(5)
        service.close()
        print(json.dumps(sorted(sys.modules)))
    """, str(tmp_path / "state"))
    assert completed.returncode == 0, completed.stderr
    modules = json.loads(completed.stdout)
    assert "repro.serve.service" in modules
    assert _forbidden(modules) == []


def test_cli_parser_alone_loads_no_subsystem():
    completed = _python("""
        import json, sys
        import repro.cli
        repro.cli.build_parser()
        print(json.dumps(sorted(sys.modules)))
    """)
    assert completed.returncode == 0, completed.stderr
    modules = json.loads(completed.stdout)
    assert _forbidden(modules) == []
    assert "repro.core" not in modules
    assert "numpy" not in modules


def test_every_public_name_still_imports():
    completed = _python("""
        import json
        import repro
        names = list(repro.__all__)
        for name in names:
            exec(f"from repro import {name}")
        assert set(names) <= set(dir(repro))
        print(json.dumps(names))
    """)
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == PUBLIC_NAMES
    assert repro.__all__ == PUBLIC_NAMES


def test_unknown_attribute_still_raises():
    completed = _python("""
        import repro
        try:
            repro.no_such_name
        except AttributeError as error:
            print(error)
    """)
    assert completed.returncode == 0, completed.stderr
    assert "no_such_name" in completed.stdout


def test_both_lint_entry_points_still_work(tmp_path):
    target = tmp_path / "src" / "repro" / "core" / "x.py"
    target.parent.mkdir(parents=True)
    target.write_text("import numpy as np\nnp.random.seed(0)\n")
    for entry in (["repro.cli", "lint"], ["repro.analysis"]):
        listed = _run("-m", *entry, "--list-rules", cwd=tmp_path)
        assert listed.returncode == 0, listed.stderr
        assert "RNG-001" in listed.stdout
        found = _run("-m", *entry, "src", cwd=tmp_path)
        assert found.returncode == 1, found.stderr
        assert "RNG-001" in found.stdout
