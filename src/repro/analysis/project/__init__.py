"""Whole-program analysis layer.

Everything the per-module analyzer cannot see lives here: the project
index (symbols, imports, call graph), the raw-record taint engine, the
interprocedural lock-set engine, the baseline ratchet, and the driver
that ``repro lint --project`` runs.
"""

from repro.analysis.project.baseline import Baseline, fingerprint
from repro.analysis.project.index import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    build_index,
    module_name_for_path,
)
from repro.analysis.project.runner import ProjectReport, run_project
from repro.analysis.project.taint import (
    Leak,
    Origin,
    TaintConfig,
    TaintEngine,
    analyze_taint,
    taint_summary,
)
from repro.analysis.project.locks import (
    AttributeAccess,
    BlockingSite,
    LockInfo,
    LockOrderEdge,
    LockRegion,
    LockSetEngine,
    ThreadRoot,
    lock_sets,
)

__all__ = [
    "AttributeAccess",
    "Baseline",
    "BlockingSite",
    "FunctionInfo",
    "Leak",
    "LockInfo",
    "LockOrderEdge",
    "LockRegion",
    "LockSetEngine",
    "ModuleInfo",
    "Origin",
    "ProjectIndex",
    "ProjectReport",
    "TaintConfig",
    "TaintEngine",
    "ThreadRoot",
    "analyze_taint",
    "build_index",
    "fingerprint",
    "lock_sets",
    "module_name_for_path",
    "run_project",
    "taint_summary",
]
