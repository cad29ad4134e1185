"""Whole-program analysis driver.

:func:`run_project` is what ``repro lint --project`` executes: discover
files, consult the incremental cache, run module rules per file and
project rules over the :class:`~repro.analysis.project.index.ProjectIndex`,
filter suppression comments, and apply the baseline ratchet.  The
classic per-module pass (:func:`repro.analysis.walker.analyze_paths`)
stays untouched; this module composes it with the project layer.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.cli import DEFAULT_CACHE_PATH
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.project.baseline import Baseline
from repro.analysis.project.cache import (
    AnalysisCache,
    content_hash,
    rules_fingerprint,
)
from repro.analysis.project.index import ProjectIndex, build_index
from repro.analysis.registry import Rule, get_rules
from repro.analysis.suppressions import is_suppressed, parse_suppressions
from repro.analysis.walker import iter_python_files


@dataclass
class ProjectReport:
    """Outcome of one whole-program analysis run.

    Attributes
    ----------
    findings:
        New (unsuppressed, un-baselined) findings, sorted.
    baselined:
        Count of findings grandfathered by the baseline file.
    suppressed:
        Rule id → count of findings silenced by suppression comments.
    errors:
        Per-file read/parse error strings.
    stats:
        Run statistics: ``total_files``, ``analyzed_files`` (module
        passes executed), ``cached_files`` (module passes replayed)
        and ``cache_hit`` (whole run replayed without parsing).  When
        the run was made with ``with_timings=True`` (the CLI's
        ``--stats``), a ``rule_timings`` mapping of rule id → seconds
        spent is included for cold passes; warm replays omit it, since
        no rule ran.
    rules_run:
        Ids of the rules that ran, sorted.
    """

    findings: list = field(default_factory=list)
    baselined: int = 0
    suppressed: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    rules_run: list = field(default_factory=list)


def _run_fingerprint(rules: Sequence[Rule]) -> str:
    """Cache key component: analyzer sources plus the active rule set."""
    digest = hashlib.sha256(rules_fingerprint().encode())
    digest.update(",".join(sorted(r.rule_id for r in rules)).encode())
    return digest.hexdigest()


def _merge_counts(total: dict, extra: dict) -> None:
    """Accumulate per-rule counts from ``extra`` into ``total``."""
    for rule_id, count in extra.items():
        total[rule_id] = total.get(rule_id, 0) + count


def _split_suppressed(
    findings: Iterable[Finding], suppressions: dict
) -> tuple[list, dict]:
    """Partition findings by the file's suppression comments."""
    kept = []
    silenced: dict = {}
    for finding in findings:
        if is_suppressed(suppressions, finding.line, finding.rule_id):
            silenced[finding.rule_id] = silenced.get(finding.rule_id, 0) + 1
        else:
            kept.append(finding)
    return kept, silenced


def _dependency_paths(index: ProjectIndex) -> dict:
    """Map each analyzed file to its direct project dependency files."""
    graph = index.import_graph()
    deps: dict = {}
    for name, imported in graph.items():
        info = index.modules.get(name)
        if info is None:
            continue
        deps[info.path] = sorted(
            index.modules[dep].path
            for dep in imported
            if dep in index.modules
        )
    return deps


def run_project(
    paths: Iterable,
    rules: Sequence[Rule] | None = None,
    cache_path=DEFAULT_CACHE_PATH,
    use_cache: bool = True,
    baseline_path=None,
    update_baseline: bool = False,
    with_timings: bool = False,
) -> ProjectReport:
    """Run the whole-program analysis over ``paths``.

    Parameters
    ----------
    paths:
        Files or directories to analyze.
    rules:
        Rule instances to run; all registered rules by default.
        Module-scope rules run per file, project-scope rules run once
        over the project index.
    cache_path:
        Incremental cache location (created on first run).
    use_cache:
        ``False`` disables both reading and writing the cache.
    baseline_path:
        Baseline (ratchet) file; ``None`` disables baselining.
    update_baseline:
        Rewrite ``baseline_path`` from the current findings instead of
        ratcheting against it.
    with_timings:
        Collect per-rule wall-clock totals into
        ``report.stats["rule_timings"]`` on cold passes.  Off by
        default so CI JSON artifacts stay byte-diffable run to run.

    Returns
    -------
    ProjectReport

    Raises
    ------
    FileNotFoundError
        If a given path does not exist.
    ValueError
        If the baseline file exists but cannot be parsed.
    """
    if rules is None:
        rules = get_rules()
    module_rules = [rule for rule in rules if rule.scope == "module"]
    project_rules = [rule for rule in rules if rule.scope == "project"]

    report = ProjectReport(rules_run=sorted(r.rule_id for r in rules))
    files = iter_python_files(paths)
    sources: dict = {}
    hashes: dict = {}
    for path in files:
        key = str(path)
        try:
            sources[key] = path.read_text(encoding="utf-8")
            hashes[key] = content_hash(sources[key])
        except OSError as error:
            report.errors.append(f"{path}: {error}")

    fingerprint = _run_fingerprint(rules)
    cache = (
        AnalysisCache.load(cache_path, fingerprint)
        if use_cache else AnalysisCache(fingerprint=fingerprint)
    )

    all_findings: list = []
    warm = use_cache and not report.errors and all(
        cache.module_valid(key, hashes[key])
        and cache.project_valid(key, hashes)
        for key in hashes
    )
    if warm:
        # Fully-warm fast path: every transitive closure is unchanged,
        # so every finding replays without parsing a single file.
        for key in hashes:
            module_findings, project_findings, silenced = cache.replay(key)
            all_findings.extend(module_findings + project_findings)
            _merge_counts(report.suppressed, silenced)
        report.stats = {
            "total_files": len(files),
            "analyzed_files": 0,
            "cached_files": len(hashes),
            "cache_hit": True,
        }
    else:
        all_findings = _analyze_cold(
            report, module_rules, project_rules, sources, hashes, cache,
            with_timings=with_timings,
        )
        if use_cache:
            cache.prune(hashes)
            cache.save(cache_path)

    if update_baseline and baseline_path is not None:
        Baseline.from_findings(all_findings).save(baseline_path)
        report.baselined = len(all_findings)
        report.findings = []
    elif baseline_path is not None:
        fresh, baselined = Baseline.load(baseline_path).partition(
            all_findings
        )
        report.findings = fresh
        report.baselined = baselined
    else:
        report.findings = sorted(all_findings)
    return report


def _analyze_cold(
    report: ProjectReport,
    module_rules: Sequence[Rule],
    project_rules: Sequence[Rule],
    sources: dict,
    hashes: dict,
    cache: AnalysisCache,
    with_timings: bool = False,
) -> list:
    """Parse, index and analyze; replay unchanged module results.

    Parameters
    ----------
    report:
        Report being assembled (stats/suppressed/errors updated here).
    module_rules, project_rules:
        The split rule sets.
    sources, hashes:
        Path → source text and path → content hash for every readable
        file.
    cache:
        Cache to replay from and refresh in place.
    with_timings:
        Accumulate per-rule wall-clock totals into
        ``report.stats["rule_timings"]``.

    Returns
    -------
    list of Finding
        All unsuppressed findings across the analyzed set.
    """
    timings: dict | None = {} if with_timings else None

    def _timed(rule, produce):
        if timings is None:
            return produce()
        started = time.perf_counter()
        found = produce()
        elapsed = time.perf_counter() - started
        timings[rule.rule_id] = timings.get(rule.rule_id, 0.0) + elapsed
        return found

    contexts: dict = {}
    suppressions: dict = {}
    for key, text in sources.items():
        try:
            contexts[key] = ModuleContext.from_source(text, path=key)
        except (SyntaxError, ValueError) as error:
            report.errors.append(f"{key}: {error}")
            continue
        suppressions[key] = parse_suppressions(text)

    index = build_index(contexts.values())
    dependency_paths = _dependency_paths(index)

    module_results: dict = {}
    silenced_by_file: dict = {}
    analyzed = replayed = 0
    for key, context in contexts.items():
        if cache.module_valid(key, hashes[key]):
            cached_module, _, cached_silenced = cache.replay(key)
            module_results[key] = cached_module
            silenced_by_file[key] = dict(cached_silenced)
            replayed += 1
        else:
            raw = []
            for rule in module_rules:
                raw.extend(
                    _timed(rule, lambda: list(rule.check(context)))
                )
            kept, silenced = _split_suppressed(raw, suppressions[key])
            module_results[key] = sorted(kept)
            silenced_by_file[key] = silenced
            analyzed += 1

    project_results: dict = {key: [] for key in contexts}
    for rule in project_rules:
        found = _timed(rule, lambda: list(rule.check_project(index)))
        for finding in found:
            file_suppressions = suppressions.get(finding.path)
            if file_suppressions is not None and is_suppressed(
                file_suppressions, finding.line, finding.rule_id
            ):
                target = silenced_by_file.setdefault(finding.path, {})
                target[finding.rule_id] = target.get(finding.rule_id, 0) + 1
                continue
            project_results.setdefault(finding.path, []).append(finding)

    all_findings: list = []
    for key in contexts:
        all_findings.extend(module_results[key])
        all_findings.extend(sorted(project_results[key]))
        _merge_counts(report.suppressed, silenced_by_file[key])
        cache.store(
            key, hashes[key], dependency_paths.get(key, []),
            module_results[key], sorted(project_results[key]),
            silenced_by_file[key],
        )
    report.stats = {
        "total_files": len(sources),
        "analyzed_files": analyzed,
        "cached_files": replayed,
        "cache_hit": False,
    }
    if timings is not None:
        report.stats["rule_timings"] = {
            rule_id: round(seconds, 6)
            for rule_id, seconds in sorted(timings.items())
        }
    return all_findings
