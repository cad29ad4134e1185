"""DOC-002 — the parallel public API must be documented.

``repro.parallel`` grew from two functions to a full subsystem (warm
pool, shared-memory payloads, degradation warnings); its docs rot the
moment an export lands without a matching mention.  DOC-002 pins the
contract: every name in ``repro.parallel.__all__`` must appear — as a
whole word — somewhere in ``docs/parallel.md`` or ``docs/api.md``.

The rule is a :class:`~repro.analysis.registry.ProjectRule` because it
correlates a source file with documentation files: it reads the
``__all__`` literal straight out of the package's AST (no import), then
walks up from the package path to find the repository's ``docs/``
directory.  Trees without the docs (vendored copies, partial
checkouts) produce no findings rather than noise.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectRule, register

#: The package whose export surface is checked.
_PACKAGE = "repro.parallel"

#: Documentation files (relative to the repo root) that may satisfy a
#: mention; one whole-word hit in any of them clears the symbol.
_DOC_FILES = ("docs/parallel.md", "docs/api.md")


def _exported_names(tree) -> list:
    """Extract ``(name, line, column)`` triples from an ``__all__`` literal.

    Parameters
    ----------
    tree:
        Parsed module AST of the package ``__init__``.

    Returns
    -------
    list
        One triple per string element, in declaration order; empty when
        the module has no literal ``__all__``.
    """
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        targets = [
            target.id for target in node.targets
            if isinstance(target, ast.Name)
        ]
        if "__all__" not in targets:
            continue
        if not isinstance(node.value, (ast.List, ast.Tuple)):
            return []
        return [
            (element.value, element.lineno, element.col_offset)
            for element in node.value.elts
            if isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ]
    return []


def _find_docs_root(package_path: str):
    """Walk up from the package path to the directory holding ``docs/``.

    Parameters
    ----------
    package_path:
        Path of the package ``__init__.py`` as given to the analyzer.

    Returns
    -------
    str or None
        Repository root containing the first doc file, or ``None``
        when no ancestor has one (partial checkout: rule stays quiet).
    """
    current = os.path.dirname(os.path.abspath(package_path))
    while True:
        if os.path.isfile(os.path.join(current, _DOC_FILES[0])):
            return current
        parent = os.path.dirname(current)
        if parent == current:
            return None
        current = parent


@register
class ParallelDocCoverageRule(ProjectRule):
    """Require a docs mention for every ``repro.parallel`` export."""

    rule_id = "DOC-002"
    summary = (
        "every public symbol exported from repro.parallel must be "
        "mentioned in docs/parallel.md or docs/api.md"
    )

    def check_project(self, project) -> Iterator[Finding]:
        """Compare the package's ``__all__`` against the doc corpus.

        Parameters
        ----------
        project:
            The :class:`repro.analysis.project.ProjectIndex`.

        Yields
        ------
        Finding
            One finding per exported-but-undocumented symbol, anchored
            at the symbol's ``__all__`` entry.
        """
        info = project.modules.get(_PACKAGE)
        if info is None:
            return
        path = info.context.path
        exported = _exported_names(info.context.tree)
        if not exported:
            return
        root = _find_docs_root(path)
        if root is None:
            return
        corpus = []
        for relative in _DOC_FILES:
            doc_path = os.path.join(root, relative)
            if os.path.isfile(doc_path):
                with open(doc_path, "r", encoding="utf-8") as handle:
                    corpus.append(handle.read())
        if not corpus:
            return
        text = "\n".join(corpus)
        for name, line, column in exported:
            if re.search(rf"\b{re.escape(name)}\b", text):
                continue
            yield Finding(
                path=path, line=line, column=column,
                rule_id=self.rule_id,
                message=(
                    f"public symbol {name!r} is exported from "
                    f"{_PACKAGE} but never mentioned in "
                    f"{' or '.join(_DOC_FILES)}; document it or stop "
                    f"exporting it"
                ),
            )
