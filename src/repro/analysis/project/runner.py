"""Whole-program analysis driver.

:func:`run_project` is what ``repro lint --project`` executes: read and
parse every file, build the
:class:`~repro.analysis.project.index.ProjectIndex`, run module rules
per file and project rules over the index, filter suppression comments,
and apply the baseline ratchet.  Every run is one whole pass over the
given tree, so a result never depends on an earlier run.  The classic
per-module pass (:func:`repro.analysis.walker.analyze_paths`) stays
untouched; this module composes it with the project layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.context import ModuleContext
from repro.analysis.project.baseline import Baseline
from repro.analysis.project.index import build_index
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
        Run statistics: ``total_files`` (files read) and
        ``analyzed_files`` (files parsed and analyzed).  When the run
        was made with ``with_timings=True`` (the CLI's ``--stats``), a
        ``rule_timings`` mapping of rule id → seconds spent is
        included.
    rules_run:
        Ids of the rules that ran, sorted.
    """

    findings: list = field(default_factory=list)
    baselined: int = 0
    suppressed: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    rules_run: list = field(default_factory=list)


def run_project(
    paths: Iterable,
    rules: Sequence[Rule] | None = None,
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
    baseline_path:
        Baseline (ratchet) file; ``None`` disables baselining.
    update_baseline:
        Rewrite ``baseline_path`` from the current findings instead of
        ratcheting against it.
    with_timings:
        Collect per-rule wall-clock totals into
        ``report.stats["rule_timings"]``.  Off by default so CI JSON
        artifacts stay byte-diffable run to run.

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
    timings: dict | None = {} if with_timings else None

    def _timed(rule, produce):
        if timings is None:
            return produce()
        started = time.perf_counter()
        found = produce()
        elapsed = time.perf_counter() - started
        timings[rule.rule_id] = timings.get(rule.rule_id, 0.0) + elapsed
        return found

    sources: dict = {}
    for path in iter_python_files(paths):
        try:
            sources[str(path)] = path.read_text(encoding="utf-8")
        except OSError as error:
            report.errors.append(f"{path}: {error}")

    contexts: dict = {}
    suppressions: dict = {}
    for key, text in sources.items():
        try:
            contexts[key] = ModuleContext.from_source(text, path=key)
        except (SyntaxError, ValueError) as error:
            report.errors.append(f"{key}: {error}")
            continue
        suppressions[key] = parse_suppressions(text)

    raw: list = []
    for context in contexts.values():
        for rule in module_rules:
            raw.extend(_timed(rule, lambda: list(rule.check(context))))
    index = build_index(contexts.values())
    for rule in project_rules:
        raw.extend(_timed(rule, lambda: list(rule.check_project(index))))

    # Project findings are suppressed at their sink line, in the sink's
    # file, exactly like module findings.
    all_findings: list = []
    silenced = report.suppressed
    for finding in raw:
        rule_id = finding.rule_id
        if is_suppressed(suppressions.get(finding.path, {}), finding.line,
                         rule_id):
            silenced[rule_id] = silenced.get(rule_id, 0) + 1
        else:
            all_findings.append(finding)

    report.stats = {
        "total_files": len(sources),
        "analyzed_files": len(contexts),
    }
    if timings is not None:
        report.stats["rule_timings"] = {
            rule_id: round(seconds, 6)
            for rule_id, seconds in sorted(timings.items())
        }

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
