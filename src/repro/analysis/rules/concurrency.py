"""CONC-001/002 — fork- and share-safety of the parallel engine.

``repro.parallel`` owes its determinism contract (results independent
of worker count, pooled or serial) to two structural properties the
DET rules do not check:

* **no shared-object mutation** — a worker function receives its task
  tuple *by value* across the process boundary; on the serial path the
  same objects are shared by every shard the coordinator runs in turn.
  A worker that mutates its task payload (or a callee that mutates a
  parameter fed from it) leaks state into later shards serially and
  not in the pool, so the two runs silently diverge.  The sanctioned way to combine worker results is the
  statistics-additivity merge *in the driver*, after the future
  resolves — never in-place through the submitted objects.
* **no captured resources** — a payload that carries an open file
  handle, a live ``WriteAheadLog``/``DurabilityManager``, or live RNG
  state (``np.random.Generator``) cannot cross a fork safely: handles
  share file offsets, WAL writers interleave frames, and a pickled
  generator duplicates its draw position in every worker.  The
  sanctioned boundary object is a ``SeedSequence`` from
  ``spawn_seed_sequences`` (cheap, picklable, spawn-stable); workers
  construct their own generator from it via ``rng_from_seed_sequence``
  and open their own files.

**CONC-001** walks every submitted worker root and flags in-place
mutation (subscript/attribute stores, augmented assignment, mutator
method calls) of the payload parameters or names unpacked from them,
including one call level deep through the approximate call graph.
**CONC-002** inspects every ``pool.submit``/``map``/``apply_async``
payload expression in the parallel package and flags names whose local
provenance is a handle acquisition or live-generator construction.

Both rules share finding traces in the DET style: the submission site
or worker root first, then the hop that exhibits the violation.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutils import dotted_name
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectRule, register
from repro.analysis.rules.determinism import _MUTATOR_METHODS
from repro.analysis.rules.protocol import (
    open_call_shape,
    owning_class_name,
    resolve,
    submission_sites,
)

#: Resolved constructors whose result is live RNG state — forbidden in
#: a worker payload.  ``spawn_seed_sequences`` is deliberately absent:
#: SeedSequences are the sanctioned boundary-crossing object.
_RNG_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "repro.linalg.rng.check_random_state",
    "repro.linalg.rng.rng_from_seed_sequence",
})

_CONC001_MESSAGE = (
    "{described} mutates {name!r}, which worker {root}() receives "
    "through a pool submission; shared-payload mutation leaks into "
    "later shards on the serial path and silently diverges from the "
    "process pool — return the result and merge it in the driver via "
    "statistics additivity"
)
_CONC002_MESSAGE = (
    "pool.{method}() payload captures {kind} ({name}); it cannot "
    "cross the worker boundary safely — pass a path or SeedSequence "
    "and acquire inside the worker (see _condense_shard)"
)


def _worker_root_functions(project):
    """Resolve every submitted callable to its indexed function.

    Parameters
    ----------
    project:
        The project index.

    Yields
    ------
    tuple
        ``(root_function, root_module_info)`` per distinct worker root,
        in qualname order.
    """
    seen = {}
    for info, _function, node in submission_sites(project):
        target = dotted_name(node.args[0])
        if target is None:
            continue
        root = project.resolve_function(info, target)
        if root is not None:
            seen.setdefault(root.qualname, root)
    for qualname in sorted(seen):
        root = seen[qualname]
        yield root, project.modules[root.module]


def _payload_names(function) -> set:
    """Names aliasing the worker's submitted payload.

    Starts from the function's parameters (minus ``self``/``cls``) and
    propagates through plain aliasing and tuple unpacking —
    ``records, k, strategy, seq = task`` makes all four payload names.
    Rebinding through calls (``np.asarray(records)``) does *not*
    propagate: the rule under-approximates rather than flag copies.

    Parameters
    ----------
    function:
        The worker-root :class:`FunctionInfo`.

    Returns
    -------
    set of str
    """
    shared = {
        parameter for parameter in function.params
        if parameter not in ("self", "cls")
    }

    def rooted(expression) -> bool:
        root = expression
        while isinstance(root, (ast.Subscript, ast.Attribute, ast.Starred)):
            root = root.value
        return isinstance(root, ast.Name) and root.id in shared

    changed = True
    while changed:
        changed = False
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Assign) or not rooted(node.value):
                continue
            for target in node.targets:
                elements = (
                    target.elts if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for element in elements:
                    if isinstance(element, ast.Starred):
                        element = element.value
                    if (
                        isinstance(element, ast.Name)
                        and element.id not in shared
                    ):
                        shared.add(element.id)
                        changed = True
    return shared


def _mutated_parameters(function) -> set:
    """Parameter positions a function mutates in place.

    Parameters
    ----------
    function:
        Any indexed :class:`FunctionInfo`.

    Returns
    -------
    set of int
        Positional indices (into ``function.params``) whose objects the
        body stores into or calls mutator methods on.
    """
    parameters = {
        name: position for position, name in enumerate(function.params)
        if name not in ("self", "cls")
    }
    mutated = set()
    for node, name in _mutations(function.node, set(parameters)):
        mutated.add(parameters[name])
    return mutated


def _mutations(function_node, names):
    """Yield ``(node, name)`` for in-place mutations of ``names``.

    Covers subscript/attribute stores and deletes rooted at a tracked
    name, augmented assignment through one, and mutator method calls
    (``append``/``update``/...) on one.

    Parameters
    ----------
    function_node:
        The ``def`` node to scan.
    names:
        Names whose objects must not be mutated.

    Yields
    ------
    tuple
        ``(offending_node, offending_name)`` pairs.
    """

    def tracked_root(expression) -> str | None:
        root = expression
        while isinstance(root, (ast.Subscript, ast.Attribute)):
            root = root.value
        if isinstance(root, ast.Name) and root.id in names:
            return root.id
        return None

    for node in ast.walk(function_node):
        if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            name = tracked_root(node)
            if name is not None:
                yield node, name
        elif isinstance(node, ast.AugAssign):
            # Subscript/attribute targets already match the Store
            # branch above; this one covers ``records += [...]``.
            if isinstance(node.target, ast.Name):
                name = tracked_root(node.target)
                if name is not None:
                    yield node, name
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ) and node.func.attr in _MUTATOR_METHODS:
            name = tracked_root(node.func.value)
            if name is not None:
                yield node, name


class _ConcurrencyRule(ProjectRule):
    """Shared scaffolding for the CONC rule family."""

    def _finding(self, info, node, message, trace) -> Finding:
        """Build a finding with an explicit trace.

        Parameters
        ----------
        info:
            :class:`ModuleInfo` of the offending module.
        node:
            Offending AST node.
        message:
            Violation message.
        trace:
            Provenance hops (submission/root first).

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
            trace=tuple(trace),
        )


@register
class WorkerPayloadMutationRule(_ConcurrencyRule):
    """Workers must not mutate their submitted payload in place."""

    rule_id = "CONC-001"
    summary = (
        "worker functions must not mutate objects received through a "
        "pool submission (merge results in the driver instead)"
    )

    def check_project(self, project) -> Iterator[Finding]:
        """Scan worker roots (and one callee level) for payload writes.

        Parameters
        ----------
        project:
            The project index.

        Yields
        ------
        Finding
        """
        for root, info in _worker_root_functions(project):
            shared = _payload_names(root)
            for node, name in _mutations(root.node, shared):
                yield self._finding(
                    info, node,
                    _CONC001_MESSAGE.format(
                        described=self._describe(node),
                        name=name, root=root.qualname,
                    ),
                    (f"worker {root.qualname}()",),
                )
            yield from self._check_callees(project, root, info, shared)

    def _check_callees(self, project, root, info, shared):
        """Flag payload names handed to parameter-mutating callees.

        One call level deep: the callee's own mutation summary
        (:func:`_mutated_parameters`) decides, so a worker delegating
        to a helper that scribbles on its argument is still caught.

        Parameters
        ----------
        project:
            The project index.
        root:
            The worker-root :class:`FunctionInfo`.
        info:
            Its :class:`ModuleInfo`.
        shared:
            Payload-aliasing names in the root.

        Yields
        ------
        Finding
        """
        for node in ast.walk(root.node):
            if not isinstance(node, ast.Call):
                continue
            callee = project.resolve_function(
                info, dotted_name(node.func), class_name=root.class_name
            )
            if callee is None or callee.qualname == root.qualname:
                continue
            mutated = _mutated_parameters(callee)
            if not mutated:
                continue
            offset = 1 if callee.params[:1] in (["self"], ["cls"]) else 0
            for position, argument in enumerate(node.args):
                if (
                    isinstance(argument, ast.Name)
                    and argument.id in shared
                    and position + offset in mutated
                ):
                    yield self._finding(
                        info, node,
                        _CONC001_MESSAGE.format(
                            described=f"{callee.qualname}()",
                            name=argument.id, root=root.qualname,
                        ),
                        (
                            f"worker {root.qualname}()",
                            f"→ {callee.qualname}() mutates parameter "
                            f"{callee.params[position + offset]!r}",
                        ),
                    )

    @staticmethod
    def _describe(node) -> str:
        """Short display form of a mutation site."""
        if isinstance(node, ast.Call):
            return f"{dotted_name(node.func) or 'mutator'}()"
        if isinstance(node, ast.AugAssign):
            return "augmented assignment"
        return "store"


@register
class WorkerCapturedResourceRule(_ConcurrencyRule):
    """Submission payloads must not carry handles or live RNG state."""

    rule_id = "CONC-002"
    summary = (
        "pool submissions must not capture open handles, WAL writers "
        "or live RNG state (pass paths and SeedSequences instead)"
    )

    def check_project(self, project) -> Iterator[Finding]:
        """Scan submission payloads for fork-unsafe acquisitions.

        Parameters
        ----------
        project:
            The project index.

        Yields
        ------
        Finding
        """
        for info, function, node in submission_sites(project):
            provenance = self._acquisitions(project, info, function)
            payload = list(node.args[1:])
            payload += [keyword.value for keyword in node.keywords]
            if isinstance(node.args[0], ast.Lambda):
                payload.append(node.args[0].body)
            for expression in payload:
                yield from self._check_payload(
                    project, info, function, node, expression, provenance
                )

    def _acquisitions(self, project, info, function) -> dict:
        """Local names bound to fork-unsafe resources.

        Parameters
        ----------
        project:
            The project index.
        info:
            Module of the enclosing function.
        function:
            The enclosing :class:`FunctionInfo`.

        Returns
        -------
        dict of str to str
            Name → human description of the captured resource kind.
        """
        table = {}
        for statement in ast.walk(function.node):
            if not (
                isinstance(statement, ast.Assign)
                and len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)
            ):
                continue
            kind = self._resource_kind(project, info, statement.value)
            name = statement.targets[0].id
            if kind is not None:
                table[name] = kind
            else:
                table.pop(name, None)
        return table

    def _resource_kind(self, project, info, expression) -> str | None:
        """Classify an expression as a fork-unsafe acquisition.

        Parameters
        ----------
        project:
            The project index.
        info:
            Module the expression appears in.
        expression:
            Right-hand side (or inline payload) expression.

        Returns
        -------
        str or None
            Description of the resource, or ``None`` when benign.
        """
        if not isinstance(expression, ast.Call):
            return None
        if open_call_shape(expression) is not None:
            return "an open file handle"
        owner = owning_class_name(project, info, expression)
        if owner is not None:
            return f"a live {owner}"
        resolved = resolve(project, info, expression.func)
        if resolved in _RNG_CONSTRUCTORS:
            return "live RNG state (np.random.Generator)"
        dotted = dotted_name(expression.func)
        if dotted is not None and dotted.startswith("tempfile."):
            return "an open file handle"
        return None

    def _check_payload(
        self, project, info, function, site, expression, provenance
    ) -> Iterator[Finding]:
        """Flag fork-unsafe names/calls inside one payload expression.

        Parameters
        ----------
        project:
            The project index.
        info:
            Module of the submission site.
        function:
            Enclosing function of the site.
        site:
            The submission :class:`ast.Call`.
        expression:
            One payload argument expression.
        provenance:
            Acquisition table from :meth:`_acquisitions`.

        Yields
        ------
        Finding
        """
        method = site.func.attr
        for node in ast.walk(expression):
            if isinstance(node, ast.Name) and node.id in provenance:
                yield self._finding(
                    info, node,
                    _CONC002_MESSAGE.format(
                        method=method, kind=provenance[node.id],
                        name=node.id,
                    ),
                    (
                        f"submission in {function.qualname}()",
                        f"→ payload name {node.id!r} holds "
                        f"{provenance[node.id]}",
                    ),
                )
            elif isinstance(node, ast.Call):
                kind = self._resource_kind(project, info, node)
                if kind is not None:
                    yield self._finding(
                        info, node,
                        _CONC002_MESSAGE.format(
                            method=method, kind=kind,
                            name=dotted_name(node.func) or "<call>",
                        ),
                        (
                            f"submission in {function.qualname}()",
                            "→ acquired inline in the payload",
                        ),
                    )
