"""FS-001/002/003 — the durability write/read protocol, statically.

The crash-safety argument of ``repro.durability`` (docs/durability.md)
rests on two file-system protocols:

* **atomic publication** — durable state reaches its final name only
  through ``write tmp → flush → fsync → os.replace``, so a reader (or
  a recovery) never observes a half-written file under a final name;
* **CRC before trust** — every byte sequence read back (WAL lines,
  snapshot documents, shard checkpoints) is checksum-validated before
  its JSON payload is parsed and acted on.

The 195-test fault-injection suite proves the *implementations* honor
these protocols today; these three rules prove every *future* writer
and reader in the durability closure keeps honoring them, in
milliseconds, on every commit:

* **FS-001** — a write-mode ``open()`` in durability scope must target
  a scratch path (``*.tmp``, ``tempfile``), and that scratch file must
  later be ``os.replace``\\ d onto its final name.  Direct writes to
  final paths and orphaned temp files are flagged.  Append-mode opens
  are exempt: the WAL's append protocol publishes incrementally and
  gets its durability from the ``fsync_every`` cadence, not a rename.
* **FS-002** — every ``os.replace``/``os.rename`` must be preceded (in
  the same function) by an ``os.fsync``: renaming before the data is
  synced lets the metadata land first, and a crash then publishes a
  hollow file under the final name.  ``os.rename`` itself is flagged
  in favor of the explicitly-clobbering ``os.replace``.
* **FS-003** — inside the durability package, ``json.loads``/``load``
  must be dominated by a ``zlib.crc32`` (or ``binascii.crc32``) call:
  parsing a CRC-framed payload before validating its frame turns
  bit-rot into undefined behavior instead of a skipped snapshot.

Scope is :func:`~repro.analysis.rules.protocol.durability_reachable`
(the durability package plus its call-graph closure) for FS-001/002,
extended to write-mode opens anywhere in privacy-critical modules;
FS-003 applies to the durability package itself, where the CRC-framed
formats live.  Ordering is judged by line number within one function —
the right approximation for the straight-line write/read paths these
protocols demand (a protocol spread across helpers should *be* a
helper, which the closure walk then covers).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectRule, register
from repro.analysis.rules.protocol import (
    APPEND_MODE_CHARS,
    WRITE_MODE_CHARS,
    describe_expression,
    durability_reachable,
    durability_trace,
    is_runtime_module,
    is_temp_path,
    open_call_shape,
    open_mode,
    open_path_expression,
    resolve,
    single_name_assignments,
)

#: Resolved rename targets of the atomic-publication protocol.
_RENAME_CALLS = frozenset({"os.replace", "os.rename"})

#: Resolved CRC implementations that validate a frame.
_CRC_CALLS = frozenset({"zlib.crc32", "binascii.crc32"})

#: Resolved JSON consumers of framed payloads.
_JSON_CONSUMERS = frozenset({"json.loads", "json.load"})

_FS001_FINAL_MESSAGE = (
    "{described} opens a final path for writing inside the durability "
    "protocol; write to a *.tmp scratch path, flush, fsync, then "
    "os.replace() it onto the final name so readers never observe a "
    "torn file"
)
_FS001_ORPHAN_MESSAGE = (
    "{described} writes a temp file that is never os.replace()d onto "
    "its final name later in {function}(); an unpublished scratch file "
    "is lost state after a crash"
)
_FS002_NO_FSYNC_MESSAGE = (
    "{name}() publishes a file with no preceding os.fsync() in "
    "{function}(); the rename can become durable before the data, so a "
    "crash publishes a hollow file under the final name"
)
_FS002_LATE_FSYNC_MESSAGE = (
    "{name}() runs before the os.fsync() in {function}(); fsync must "
    "cover the data *before* the rename publishes it"
)
_FS002_RENAME_MESSAGE = (
    "os.rename() in {function}(): use os.replace() — it is the "
    "explicitly-clobbering atomic publish this codebase standardizes "
    "on, with identical semantics on POSIX and defined behavior "
    "elsewhere"
)
_FS003_MESSAGE = (
    "{name}() parses a payload with no preceding CRC validation in "
    "{function}(); durability formats are CRC-framed — decode them "
    "with repro.durability._files.decode_frame, which checks "
    "zlib.crc32 over the body before trusting it"
)


def _fs_scope(project):
    """FS-001/002 scope: durability closure + privacy-critical modules.

    Parameters
    ----------
    project:
        The project index.

    Yields
    ------
    tuple
        ``(function, module_info, call_path)``; privacy-critical
        functions outside the durability closure get a single-entry
        path (their own qualname).
    """
    seen = set()
    for function, info, path in durability_reachable(project):
        seen.add(function.qualname)
        yield function, info, path
    for name in sorted(project.modules):
        info = project.modules[name]
        if not is_runtime_module(info) or not info.context.is_privacy_critical:
            continue
        for local in sorted(info.functions):
            function = info.functions[local]
            if function.qualname not in seen:
                yield function, info, [function.qualname]


class _DurabilityRule(ProjectRule):
    """Shared scaffolding for the FS rule family."""

    def _finding(self, info, node, message, path) -> Finding:
        """Build a finding inside a durability-scope function.

        Parameters
        ----------
        info:
            :class:`ModuleInfo` of the offending module.
        node:
            Offending AST node.
        message:
            Violation message (line-number free, for baseline
            stability).
        path:
            Durability-root→function call path.

        Returns
        -------
        Finding
        """
        return Finding(
            path=info.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
            trace=durability_trace(path),
        )


@register
class AtomicWriteRule(_DurabilityRule):
    """Durable writes go through a temp path and an atomic replace."""

    rule_id = "FS-001"
    summary = (
        "write-mode open() in durability scope must target a temp path "
        "that is later os.replace()d onto its final name"
    )

    def check_project(self, project) -> Iterator[Finding]:
        """Scan durability-scope functions for non-atomic writes.

        Parameters
        ----------
        project:
            The project index.

        Yields
        ------
        Finding
        """
        for function, info, path in _fs_scope(project):
            assignments = single_name_assignments(function.node)
            replace_lines = [
                node.lineno for node in ast.walk(function.node)
                if isinstance(node, ast.Call)
                and resolve(project, info, node.func) in _RENAME_CALLS
            ]
            for node in ast.walk(function.node):
                if not isinstance(node, ast.Call):
                    continue
                if open_call_shape(node) is None:
                    continue
                mode = open_mode(node)
                if mode is None or not mode.startswith(WRITE_MODE_CHARS):
                    # Reads, repairs ('rb+') and the WAL's append
                    # protocol are out of FS-001's write state machine.
                    continue
                if mode.startswith(APPEND_MODE_CHARS):
                    continue
                target = open_path_expression(node)
                described = (
                    f"open({describe_expression(target)}, {mode!r})"
                )
                if not is_temp_path(target, assignments):
                    yield self._finding(
                        info, node,
                        _FS001_FINAL_MESSAGE.format(described=described),
                        path,
                    )
                elif not any(
                    line > node.lineno for line in replace_lines
                ):
                    yield self._finding(
                        info, node,
                        _FS001_ORPHAN_MESSAGE.format(
                            described=described,
                            function=function.qualname,
                        ),
                        path,
                    )


@register
class FsyncBeforeRenameRule(_DurabilityRule):
    """Every atomic publish is covered by a preceding fsync."""

    rule_id = "FS-002"
    summary = (
        "os.replace()/os.rename() in durability scope must be preceded "
        "by os.fsync() of the written data"
    )

    def check_project(self, project) -> Iterator[Finding]:
        """Scan durability-scope functions for unsynced publishes.

        Parameters
        ----------
        project:
            The project index.

        Yields
        ------
        Finding
        """
        for function, info, path in _fs_scope(project):
            fsync_lines = [
                node.lineno for node in ast.walk(function.node)
                if isinstance(node, ast.Call)
                and resolve(project, info, node.func) == "os.fsync"
            ]
            for node in ast.walk(function.node):
                if not isinstance(node, ast.Call):
                    continue
                resolved = resolve(project, info, node.func)
                if resolved not in _RENAME_CALLS:
                    continue
                if resolved == "os.rename":
                    yield self._finding(
                        info, node,
                        _FS002_RENAME_MESSAGE.format(
                            function=function.qualname
                        ),
                        path,
                    )
                if not fsync_lines:
                    yield self._finding(
                        info, node,
                        _FS002_NO_FSYNC_MESSAGE.format(
                            name=resolved, function=function.qualname
                        ),
                        path,
                    )
                elif not any(
                    line < node.lineno for line in fsync_lines
                ):
                    yield self._finding(
                        info, node,
                        _FS002_LATE_FSYNC_MESSAGE.format(
                            name=resolved, function=function.qualname
                        ),
                        path,
                    )


@register
class CrcBeforeUseRule(_DurabilityRule):
    """Framed payloads are CRC-validated before they are parsed."""

    rule_id = "FS-003"
    summary = (
        "json parsing in the durability package must be dominated by a "
        "CRC check of the framed payload"
    )

    def check_project(self, project) -> Iterator[Finding]:
        """Scan durability-package functions for unvalidated parses.

        Parameters
        ----------
        project:
            The project index.

        Yields
        ------
        Finding
        """
        for function, info, path in durability_reachable(project):
            if not info.name.startswith("repro.durability"):
                # The closure may reach generic JSON consumers (model
                # stores, caches) whose formats are not CRC-framed;
                # the framing contract lives in the package itself.
                continue
            crc_lines = [
                node.lineno for node in ast.walk(function.node)
                if isinstance(node, ast.Call)
                and resolve(project, info, node.func) in _CRC_CALLS
            ]
            for node in ast.walk(function.node):
                if not isinstance(node, ast.Call):
                    continue
                resolved = resolve(project, info, node.func)
                if resolved not in _JSON_CONSUMERS:
                    continue
                if resolved == "json.loads" and self._encodes_only(
                    function, node
                ):
                    continue
                if not any(line < node.lineno for line in crc_lines):
                    yield self._finding(
                        info, node,
                        _FS003_MESSAGE.format(
                            name=resolved, function=function.qualname
                        ),
                        path,
                    )

    @staticmethod
    def _encodes_only(function, node) -> bool:
        """Whether a parse re-reads bytes this same function produced.

        A writer that round-trips its own ``json.dumps`` output (e.g.
        to measure the encoded size) is not consuming framed disk
        bytes.  Recognized purely syntactically: the parsed expression
        is a call to ``json.dumps``.

        Parameters
        ----------
        function:
            Enclosing :class:`FunctionInfo`.
        node:
            The ``json.loads`` call.

        Returns
        -------
        bool
        """
        if not node.args:
            return False
        argument = node.args[0]
        if isinstance(argument, ast.Call):
            from repro.analysis.astutils import dotted_name

            return dotted_name(argument.func) == "json.dumps"
        return False
