"""Analyzer command line.

Run over one or more paths; exits non-zero when any finding (or any
unparsable file) remains::

    python -m repro.analysis src/ tests/
    python -m repro.analysis src/repro --format json
    python -m repro.analysis src --select RNG-001,PRIV-001
    repro lint src/ tests/
    repro lint --project --baseline .repro-lint-baseline.json src tests
    repro lint --project --update-baseline --baseline .repro-lint-baseline.json

``--project`` enables the whole-program pass (PRIV-003, DET-001/002/003,
THR-001..004) as one whole pass over the tree; ``--baseline`` turns
findings into a ratchet — only findings beyond the baseline fail the run.
``--format sarif`` renders SARIF v2.1.0 for GitHub code scanning, and
``--stats`` adds per-rule timings to the report.
"""

from __future__ import annotations

import argparse
import sys

def _rule_list(value: str) -> list:
    return [item.strip() for item in value.split(",") if item.strip()]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the analyzer's arguments to ``parser``.

    Shared between ``python -m repro.analysis`` and the ``repro lint``
    subcommand so both accept identical options.

    Parameters
    ----------
    parser:
        Parser (or subparser) to extend.
    """
    parser.add_argument("paths", nargs="*", default=["src", "tests"],
                        help="files or directories to analyze "
                             "(default: src tests)")
    parser.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text",
                        help="report format (default: text); sarif "
                             "emits SARIF v2.1.0 for code-scanning "
                             "upload")
    parser.add_argument("--select", type=_rule_list, default=None,
                        metavar="RULES",
                        help="comma-separated rule ids to run exclusively")
    parser.add_argument("--ignore", type=_rule_list, default=None,
                        metavar="RULES",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--project", action="store_true",
                        help="run the whole-program pass (taint and "
                             "determinism rules)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline (ratchet) file: grandfathered "
                             "findings pass, new ones fail "
                             "(implies --project)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the --baseline file from the "
                             "current findings and exit clean")
    parser.add_argument("--stats", action="store_true",
                        help="collect and print per-rule timings "
                             "(project runs)")


def run_lint(arguments) -> int:
    """Execute the analyzer for parsed CLI ``arguments``.

    Parameters
    ----------
    arguments:
        Namespace produced by a parser set up with
        :func:`add_lint_arguments`.

    Returns
    -------
    int
        Process exit code: 0 when clean, 1 on findings or file errors,
        2 on usage errors (unknown rule id, missing path).
    """
    from repro.analysis.project.runner import run_project
    from repro.analysis.registry import get_rules
    from repro.analysis.reporters import (
        render_json,
        render_sarif,
        render_text,
    )
    from repro.analysis.walker import analyze_paths

    try:
        rules = get_rules(select=arguments.select, ignore=arguments.ignore)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if arguments.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  [{rule.scope}]  {rule.summary}")
        return 0
    if arguments.update_baseline and arguments.baseline is None:
        print("error: --update-baseline requires --baseline PATH",
              file=sys.stderr)
        return 2
    renderer = {
        "json": render_json,
        "sarif": render_sarif,
    }.get(arguments.format, render_text)
    project = arguments.project or arguments.baseline is not None
    if project:
        try:
            report = run_project(
                arguments.paths,
                rules=rules,
                baseline_path=arguments.baseline,
                update_baseline=arguments.update_baseline,
                with_timings=getattr(arguments, "stats", False),
            )
        except (FileNotFoundError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(renderer(
            report.findings, report.errors,
            suppressed=report.suppressed, baselined=report.baselined,
            rules_run=report.rules_run, stats=report.stats,
        ))
        return 1 if report.findings or report.errors else 0
    try:
        findings, errors = analyze_paths(arguments.paths, rules=rules)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(renderer(
        findings, errors,
        rules_run=[rule.rule_id for rule in rules
                   if rule.scope == "module"],
    ))
    return 1 if findings or errors else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the standalone analyzer parser.

    Returns
    -------
    argparse.ArgumentParser
    """
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Repo-aware static analysis: RNG discipline, the "
                    "condensation statistics-only invariant, and Python "
                    "pitfalls.",
    )
    add_lint_arguments(parser)
    return parser


def main(argv=None) -> int:
    """Standalone entry point.

    Parameters
    ----------
    argv:
        Argument list; ``sys.argv[1:]`` when ``None``.

    Returns
    -------
    int
        Process exit code (see :func:`run_lint`).
    """
    return run_lint(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
