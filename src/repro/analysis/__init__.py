"""Repo-aware static analysis for the condensation reproduction.

Machine-checks the two invariants the reproduction's credibility rests
on — RNG discipline (every stochastic path seeded through
``repro.linalg.rng``) and the paper's statistics-only condensation
invariant (§2: groups retain ``(Fs, Sc, n)``, never raw records) —
plus classic Python pitfalls and public-API docstring hygiene.

Built on stdlib ``ast`` only; no runtime dependencies beyond the
library itself.  See ``docs/static_analysis.md`` for the rule catalog
and suppression syntax.

>>> from repro.analysis import analyze_source
>>> findings = analyze_source(
...     "import numpy as np\\nnp.random.seed(0)\\n",
...     path="src/repro/core/x.py",
... )
>>> [finding.rule_id for finding in findings]
['RNG-001']
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first access so the
#: ``repro lint`` parser loads neither the rules nor the project pass.
_EXPORTS = {
    "Finding": "repro.analysis.findings",
    "JSON_SCHEMA_VERSION": "repro.analysis.reporters",
    "ModuleContext": "repro.analysis.context",
    "ProjectIndex": "repro.analysis.project",
    "ProjectReport": "repro.analysis.project",
    "ProjectRule": "repro.analysis.registry",
    "Rule": "repro.analysis.registry",
    "SARIF_VERSION": "repro.analysis.reporters",
    "analyze_module": "repro.analysis.walker",
    "analyze_paths": "repro.analysis.walker",
    "analyze_source": "repro.analysis.walker",
    "get_rules": "repro.analysis.registry",
    "iter_python_files": "repro.analysis.walker",
    "register": "repro.analysis.registry",
    "render_json": "repro.analysis.reporters",
    "render_sarif": "repro.analysis.reporters",
    "render_text": "repro.analysis.reporters",
    "run_project": "repro.analysis.project",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
