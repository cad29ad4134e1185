"""Incremental result cache for the whole-program pass.

The project pass costs one parse of every file plus a taint fixpoint;
on a warm tree that is pure waste.  The cache stores, per analyzed
file: its content hash, its direct project-internal dependency paths
(from the import graph), and the findings that landed in it — split
into module-rule findings (valid whenever the file's own hash matches)
and project-rule findings (valid only when every file in the
*transitive* import closure is unchanged, because taint flows across
edges).

A run where every file's transitive closure is unchanged replays all
findings without parsing a single file.  Any change falls back to a
full project pass — the taint fixpoint is global — but unchanged
files' module findings still replay from cache.

The whole cache is invalidated when the analyzer itself changes: the
key includes a fingerprint over the ``repro.analysis`` sources, so
editing a rule never serves stale results.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.findings import Finding

#: On-disk format version; bump on incompatible layout changes.
CACHE_VERSION = 1


def content_hash(text: str) -> str:
    """SHA-256 of a file's text, the cache's change detector.

    Parameters
    ----------
    text:
        File content.

    Returns
    -------
    str
        Hex digest.
    """
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rules_fingerprint() -> str:
    """Digest of the analyzer's own sources.

    Any edit to ``repro.analysis`` (new rule, changed policy) changes
    the fingerprint and drops the whole cache — stale findings are
    worse than a cold run.

    Returns
    -------
    str
        Hex digest over every ``.py`` file in the analysis package.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class AnalysisCache:
    """Per-file analysis results keyed on content hashes.

    Parameters
    ----------
    fingerprint:
        Analyzer fingerprint the entries were produced under.
    files:
        Path → entry mapping (see :meth:`store`).
    """

    def __init__(self, fingerprint: str = "", files: dict | None = None):
        self.fingerprint = fingerprint
        self.files = files or {}

    @classmethod
    def load(cls, path, fingerprint: str) -> "AnalysisCache":
        """Read a cache file, discarding incompatible content.

        A missing, corrupt, version-mismatched or fingerprint-mismatched
        file yields an empty cache — the cache is an optimization and
        must never be a correctness hazard.

        Parameters
        ----------
        path:
            Cache file path.
        fingerprint:
            Current analyzer fingerprint (see :func:`rules_fingerprint`).

        Returns
        -------
        AnalysisCache
        """
        path = Path(path)
        if not path.exists():
            return cls(fingerprint=fingerprint)
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
            if (
                document.get("version") != CACHE_VERSION
                or document.get("fingerprint") != fingerprint
            ):
                return cls(fingerprint=fingerprint)
            files = document["files"]
        except (json.JSONDecodeError, KeyError, TypeError, OSError):
            return cls(fingerprint=fingerprint)
        return cls(fingerprint=fingerprint, files=files)

    def save(self, path) -> None:
        """Write the cache file.

        Parameters
        ----------
        path:
            Destination path.
        """
        document = {
            "version": CACHE_VERSION,
            "fingerprint": self.fingerprint,
            "files": self.files,
        }
        Path(path).write_text(
            json.dumps(document, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def store(
        self, path: str, file_hash: str, deps: list,
        module_findings: list, project_findings: list,
        suppressed: dict,
    ) -> None:
        """Record one file's results.

        Parameters
        ----------
        path:
            File path (display form, the cache key).
        file_hash:
            The file's :func:`content_hash`.
        deps:
            Paths of directly imported project files.
        module_findings:
            Unsuppressed module-rule findings in the file.
        project_findings:
            Unsuppressed project-rule findings attributed to the file.
        suppressed:
            Rule id → count of findings silenced by suppression
            comments in this file.
        """
        self.files[path] = {
            "hash": file_hash,
            "deps": sorted(deps),
            "module_findings": [f.to_dict() for f in module_findings],
            "project_findings": [f.to_dict() for f in project_findings],
            "suppressed": dict(sorted(suppressed.items())),
        }

    def module_valid(self, path: str, file_hash: str) -> bool:
        """Whether a file's module-rule findings can be replayed.

        Parameters
        ----------
        path:
            File path.
        file_hash:
            Current content hash.

        Returns
        -------
        bool
        """
        entry = self.files.get(path)
        return entry is not None and entry["hash"] == file_hash

    def project_valid(self, path: str, hashes: dict) -> bool:
        """Whether a file's project-rule findings can be replayed.

        Valid only when the file *and its transitive import closure*
        are unchanged — taint crosses import edges, so a changed
        dependency invalidates every dependent.

        Parameters
        ----------
        path:
            File path.
        hashes:
            Current path → content hash mapping for every file in the
            analyzed set.

        Returns
        -------
        bool
        """
        seen = set()
        frontier = [path]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            entry = self.files.get(current)
            if entry is None or entry["hash"] != hashes.get(current):
                return False
            frontier.extend(entry["deps"])
        return True

    def replay(self, path: str) -> tuple[list, list, dict]:
        """Rebuild a file's cached findings.

        Parameters
        ----------
        path:
            File path previously passed to :meth:`store`.

        Returns
        -------
        tuple of (list, list, dict)
            Module findings, project findings and the suppressed-count
            mapping.
        """
        entry = self.files[path]
        module_findings = [
            Finding.from_dict(d) for d in entry["module_findings"]
        ]
        project_findings = [
            Finding.from_dict(d) for d in entry["project_findings"]
        ]
        return module_findings, project_findings, dict(entry["suppressed"])

    def prune(self, keep) -> None:
        """Drop entries for files no longer in the analyzed set.

        Parameters
        ----------
        keep:
            Paths that remain valid cache keys.
        """
        keep = set(keep)
        for path in list(self.files):
            if path not in keep:
                del self.files[path]
