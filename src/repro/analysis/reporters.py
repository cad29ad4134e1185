"""Text and JSON rendering of analysis results.

The JSON schema is stable (``schema_version``) so CI and editor
integrations can consume it.  Version 2 added column offsets (always
present in findings), per-rule suppression counts, the baselined
(grandfathered) count, source→sink traces, and zero-filled per-rule
totals whenever the run's rule set is known — so two CI artifacts diff
cleanly even when a rule goes quiet.  Version 3 drops the cache fields
from ``stats``, which now holds only file counts (and ``rule_timings``
under ``--stats``)::

    {
      "schema_version": 3,
      "summary": {"files_with_findings": 1, "total": 2,
                  "by_rule": {"PRIV-003": 2, "RNG-001": 0},
                  "suppressed": {"PRIV-001": 1},
                  "suppressed_total": 1,
                  "baselined": 4},
      "stats": {"total_files": 106, "analyzed_files": 106},
      "findings": [{"path": ..., "line": ..., "column": ...,
                    "rule_id": ..., "message": ..., "trace": [...]}],
      "errors": []
    }

``stats`` appears only for project runs; ``suppressed`` counts only
findings silenced by ``# repro-lint: disable`` comments.

:func:`render_sarif` emits the same information as SARIF v2.1.0 for
GitHub code scanning (``repro lint --project --format sarif``): one
run, driver ``repro-lint``, one result per finding with the trace
folded into the message, and the baseline fingerprint carried as
``partialFingerprints`` so code-scanning alert identity matches the
ratchet's.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Mapping, Sequence

from repro.analysis.findings import Finding
from repro.analysis.project.baseline import fingerprint

JSON_SCHEMA_VERSION = 3

#: SARIF format version emitted by :func:`render_sarif`.
SARIF_VERSION = "2.1.0"

_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def _summary_extras(baselined: int, suppressed: Mapping | None) -> str:
    """Render the trailing baselined/suppressed note for text reports."""
    notes = []
    if baselined:
        notes.append(f"{baselined} baselined")
    total_suppressed = sum((suppressed or {}).values())
    if total_suppressed:
        notes.append(f"{total_suppressed} suppressed")
    return f" ({', '.join(notes)})" if notes else ""


def render_text(
    findings: Sequence[Finding],
    errors: Sequence[str] = (),
    suppressed: Mapping | None = None,
    baselined: int = 0,
    rules_run: Sequence[str] | None = None,
    stats: Mapping | None = None,
) -> str:
    """Render findings as human-readable lines plus a summary.

    Parameters
    ----------
    findings:
        Findings to render, already sorted.
    errors:
        File-level read/parse errors.
    suppressed:
        Rule id → count of comment-suppressed findings.
    baselined:
        Findings grandfathered by the baseline ratchet.
    rules_run:
        Ids of the rules that ran (unused in text output; accepted for
        signature parity with :func:`render_json`).
    stats:
        Project-run statistics (file counts, timings), rendered
        when given.

    Returns
    -------
    str
        Multi-line report; ends with a one-line summary.
    """
    lines = [finding.format() for finding in findings]
    lines += [f"error: {error}" for error in errors]
    by_rule = Counter(finding.rule_id for finding in findings)
    extras = _summary_extras(baselined, suppressed)
    if findings or errors:
        breakdown = ", ".join(
            f"{rule_id}: {count}" for rule_id, count in sorted(by_rule.items())
        )
        lines.append(
            f"{len(findings)} finding(s), {len(errors)} error(s)"
            + (f"  [{breakdown}]" if breakdown else "")
            + extras
        )
    else:
        lines.append(f"0 findings — clean{extras}")
    if stats:
        lines.append(
            "analyzed {analyzed} of {total} file(s)".format(
                analyzed=stats.get("analyzed_files", "?"),
                total=stats.get("total_files", "?"),
            )
        )
        timings = stats.get("rule_timings")
        if timings:
            lines.append("per-rule timings:")
            lines += [
                f"  {rule_id}: {seconds:.3f}s"
                for rule_id, seconds in sorted(timings.items())
            ]
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    errors: Sequence[str] = (),
    suppressed: Mapping | None = None,
    baselined: int = 0,
    rules_run: Sequence[str] | None = None,
    stats: Mapping | None = None,
) -> str:
    """Render findings as a stable JSON document.

    Parameters
    ----------
    findings:
        Findings to render, already sorted.
    errors:
        File-level read/parse errors.
    suppressed:
        Rule id → count of comment-suppressed findings.
    baselined:
        Findings grandfathered by the baseline ratchet.
    rules_run:
        Ids of the rules that ran; when given, ``by_rule`` is
        zero-filled over the full set so CI artifacts diff cleanly.
    stats:
        Project-run statistics, emitted as a top-level ``stats`` key
        when given.

    Returns
    -------
    str
        Pretty-printed JSON; see module docstring for the schema.
    """
    by_rule = Counter(finding.rule_id for finding in findings)
    if rules_run is not None:
        totals = {rule_id: by_rule.get(rule_id, 0)
                  for rule_id in sorted(rules_run)}
    else:
        totals = dict(sorted(by_rule.items()))
    suppressed = dict(sorted((suppressed or {}).items()))
    document = {
        "schema_version": JSON_SCHEMA_VERSION,
        "summary": {
            "files_with_findings": len({f.path for f in findings}),
            "total": len(findings),
            "by_rule": totals,
            "suppressed": suppressed,
            "suppressed_total": sum(suppressed.values()),
            "baselined": baselined,
        },
        "findings": [finding.to_dict() for finding in findings],
        "errors": list(errors),
    }
    if stats is not None:
        document["stats"] = dict(stats)
    return json.dumps(document, indent=2)


def render_sarif(
    findings: Sequence[Finding],
    errors: Sequence[str] = (),
    suppressed: Mapping | None = None,
    baselined: int = 0,
    rules_run: Sequence[str] | None = None,
    stats: Mapping | None = None,
) -> str:
    """Render findings as a SARIF v2.1.0 document.

    One ``run`` of driver ``repro-lint``: each finding becomes a
    ``result`` at level ``error`` whose message text folds in the
    source→sink trace, located by repo-relative URI and 1-based
    line/column, and fingerprinted with the baseline ratchet's
    fingerprint (``partialFingerprints["reproLint/v1"]``) so GitHub
    code-scanning alerts keep their identity across line drift exactly
    like the local baseline does.  File-level read/parse errors are
    reported as tool execution notifications.

    Parameters
    ----------
    findings:
        Findings to render, already sorted.
    errors:
        File-level read/parse errors.
    suppressed:
        Rule id → count of comment-suppressed findings (carried in the
        run's ``properties``).
    baselined:
        Findings grandfathered by the baseline ratchet (ditto).
    rules_run:
        Ids of the rules that ran; when given, the driver's ``rules``
        metadata array is emitted and results carry ``ruleIndex``.
    stats:
        Project-run statistics, carried in the run's ``properties``.

    Returns
    -------
    str
        Pretty-printed SARIF JSON.
    """
    import repro

    rules_metadata: list = []
    rule_positions: dict = {}
    if rules_run:
        try:
            from repro.analysis.registry import get_rules

            instances = get_rules(select=list(rules_run))
        except ValueError:
            instances = []
        for position, rule in enumerate(instances):
            rule_positions[rule.rule_id] = position
            rules_metadata.append({
                "id": rule.rule_id,
                "shortDescription": {"text": rule.summary},
                "defaultConfiguration": {"level": "error"},
            })
    results = []
    for finding in findings:
        text = finding.message
        if finding.trace:
            text += "\n" + "\n".join(finding.trace)
        result = {
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": text},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                    },
                    "region": {
                        "startLine": max(int(finding.line), 1),
                        "startColumn": int(finding.column) + 1,
                    },
                },
            }],
            "partialFingerprints": {
                "reproLint/v1": fingerprint(finding),
            },
        }
        if finding.rule_id in rule_positions:
            result["ruleIndex"] = rule_positions[finding.rule_id]
        results.append(result)
    invocation: dict = {"executionSuccessful": not errors}
    if errors:
        invocation["toolExecutionNotifications"] = [
            {"level": "error", "message": {"text": error}}
            for error in errors
        ]
    properties: dict = {
        "suppressed": dict(sorted((suppressed or {}).items())),
        "baselined": int(baselined),
    }
    if stats is not None:
        properties["stats"] = dict(stats)
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "version": repro.__version__,
                    "rules": rules_metadata,
                },
            },
            "results": results,
            "invocations": [invocation],
            "properties": properties,
        }],
    }
    return json.dumps(document, indent=2)
