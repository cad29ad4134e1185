"""One-pass project index: symbols, imports, and an approximate call graph.

The per-module analyzer (PR 1) sees one file at a time, so a raw-record
array that crosses a function or module boundary escapes its checks.
The :class:`ProjectIndex` restores the missing context in a single pass
over the analyzed tree:

* a **module table** mapping dotted module names to parsed
  :class:`repro.analysis.context.ModuleContext` objects;
* per-module **symbol tables** — every ``def`` (module-level and
  method) with its parameters, plus the import bindings that make names
  resolvable across files, including package ``__init__`` re-exports
  and relative imports;
* an approximate **call graph** (function → resolvable callees).

The call graph is deliberately approximate: plain-name calls, imported
names, ``self.method()`` / ``cls.method()`` within a class, and
``ClassName.method()`` through an imported class resolve; calls through
arbitrary instance variables do not.  Both the taint engine and the
determinism rules are built to over- or under-approximate *safely*
under that model (see ``docs/static_analysis.md``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Iterable

from repro.analysis.astutils import dotted_name
from repro.analysis.context import ModuleContext

#: Path components stripped before deriving a dotted module name.
_ROOT_MARKERS = ("src",)

#: Maximum re-export chain length followed during name resolution.
_MAX_ALIAS_HOPS = 16


def module_name_for_path(path: str) -> str:
    """Derive a dotted module name from a file path.

    ``src/repro/core/generation.py`` becomes ``repro.core.generation``;
    package ``__init__.py`` files map to the package itself.  Paths
    outside a ``src`` root (tests, benchmarks) use their remaining
    components verbatim, so ``tests/core/test_x.py`` becomes
    ``tests.core.test_x``.

    Parameters
    ----------
    path:
        File path as given to the analyzer.

    Returns
    -------
    str
        The dotted module name.
    """
    parts = list(PurePosixPath(str(path).replace("\\", "/")).parts)
    for marker in _ROOT_MARKERS:
        if marker in parts:
            parts = parts[parts.index(marker) + 1:]
            break
    else:
        # Absolute paths: keep only the components from the last
        # recognizable package root onward.
        for root in ("repro", "tests", "benchmarks", "examples"):
            if root in parts:
                parts = parts[parts.index(root):]
                break
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    parts[-1] = leaf
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


@dataclass
class FunctionInfo:
    """One indexed ``def``: a module-level function or a method.

    Attributes
    ----------
    qualname:
        Fully qualified name, e.g.
        ``"repro.core.condensation.create_condensed_groups"`` or
        ``"repro.core.statistics.GroupStatistics.add"``.
    module:
        Dotted name of the defining module.
    node:
        The ``ast.FunctionDef`` / ``ast.AsyncFunctionDef``.
    params:
        Positional and keyword parameter names, in order (including
        ``self``/``cls`` for methods).
    class_name:
        Enclosing class name for methods, ``None`` for module-level
        functions.
    """

    qualname: str
    module: str
    node: ast.AST
    params: list = field(default_factory=list)
    class_name: str | None = None

    @property
    def name(self) -> str:
        """Bare function name (the last qualname segment).

        Returns
        -------
        str
        """
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ModuleInfo:
    """Symbol table and import bindings of one indexed module.

    Attributes
    ----------
    name:
        Dotted module name.
    context:
        Parsed :class:`ModuleContext` (path, source, tree).
    imports:
        Local name → fully qualified target, e.g. ``{"np": "numpy",
        "telemetry": "repro.telemetry"}``.
    functions:
        Local qualname suffix (``"f"`` or ``"Class.m"``) →
        :class:`FunctionInfo`.
    classes:
        Local class name → fully qualified class name.
    module_level_names:
        Names bound by module-level assignments — the state the
        determinism rules guard against worker mutation.
    """

    name: str
    context: ModuleContext
    imports: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)
    classes: dict = field(default_factory=dict)
    module_level_names: set = field(default_factory=set)

    @property
    def path(self) -> str:
        """Display path of the module file.

        Returns
        -------
        str
        """
        return self.context.path


def _parameter_names(node) -> list:
    """All positional/keyword parameter names of a ``def``, in order."""
    arguments = node.args
    names = [argument.arg for argument in arguments.posonlyargs]
    names += [argument.arg for argument in arguments.args]
    names += [argument.arg for argument in arguments.kwonlyargs]
    if arguments.vararg is not None:
        names.append(arguments.vararg.arg)
    if arguments.kwarg is not None:
        names.append(arguments.kwarg.arg)
    return names


def _resolve_relative(
    module_name: str, node: ast.ImportFrom, is_package: bool
) -> str:
    """Absolute dotted form of a possibly-relative ``from`` target."""
    if not node.level:
        return node.module or ""
    base = module_name.split(".")
    # ``from . import x`` resolves against the containing package: a
    # plain module drops its own leaf, while a package ``__init__``
    # (whose dotted name already *is* the package) drops one fewer.
    drop = node.level - 1 if is_package else node.level
    base = base[: len(base) - drop] if drop < len(base) else []
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


class ProjectIndex:
    """Whole-program view of the analyzed tree.

    Build one with :meth:`from_contexts` (or the convenience
    :func:`build_index`); rules then query modules, resolve dotted
    names across files, and walk the call graph.

    Attributes
    ----------
    modules:
        Dotted module name → :class:`ModuleInfo`.
    functions:
        Fully qualified name → :class:`FunctionInfo`, across all
        modules.
    """

    def __init__(self):
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self._call_graph: dict[str, set] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_contexts(cls, contexts: Iterable[ModuleContext]) -> "ProjectIndex":
        """Index a collection of parsed modules.

        Parameters
        ----------
        contexts:
            Parsed module contexts, one per file.

        Returns
        -------
        ProjectIndex
        """
        index = cls()
        for context in contexts:
            index._add_module(context)
        return index

    def _add_module(self, context: ModuleContext) -> None:
        """Index one module: imports, defs, classes, module state."""
        name = module_name_for_path(context.path)
        info = ModuleInfo(name=name, context=context)
        self._collect_imports(info)
        self._collect_definitions(info)
        self._collect_module_state(info)
        self.modules[name] = info

    def _collect_imports(self, info: ModuleInfo) -> None:
        """Record every import binding, wherever it appears."""
        is_package = info.context.filename == "__init__.py"
        for node in ast.walk(info.context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        info.imports[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        info.imports[head] = head
            elif isinstance(node, ast.ImportFrom):
                target = _resolve_relative(info.name, node, is_package)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = (
                        f"{target}.{alias.name}" if target else alias.name
                    )

    def _collect_definitions(self, info: ModuleInfo) -> None:
        """Record module-level defs, classes, and their methods."""
        for node in info.context.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                info.classes[node.name] = f"{info.name}.{node.name}"
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._add_function(info, item, class_name=node.name)

    def _add_function(self, info, node, class_name) -> None:
        """Register one def in the module and global tables."""
        local = f"{class_name}.{node.name}" if class_name else node.name
        qualname = f"{info.name}.{local}"
        function = FunctionInfo(
            qualname=qualname,
            module=info.name,
            node=node,
            params=_parameter_names(node),
            class_name=class_name,
        )
        info.functions[local] = function
        self.functions[qualname] = function

    def _collect_module_state(self, info: ModuleInfo) -> None:
        """Record names bound by module-level assignments."""
        for node in info.context.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                for element in ast.walk(target):
                    if isinstance(element, ast.Name):
                        info.module_level_names.add(element.id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def module_for_path(self, path: str) -> ModuleInfo | None:
        """Look up the indexed module for a file path.

        Parameters
        ----------
        path:
            File path as given to the analyzer.

        Returns
        -------
        ModuleInfo or None
        """
        return self.modules.get(module_name_for_path(path))

    def _owning_module(self, qualified: str) -> str | None:
        """Longest indexed module prefix of a qualified name."""
        parts = qualified.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None

    def resolve(self, module: ModuleInfo, dotted: str) -> str | None:
        """Resolve a dotted name used in ``module`` to a qualified name.

        Follows import bindings and package-``__init__`` re-exports, so
        ``telemetry.span`` inside a module that does ``from repro
        import telemetry`` resolves to the defining
        ``repro.telemetry.spans.span``.

        Parameters
        ----------
        module:
            Module the name appears in.
        dotted:
            The dotted name as written, e.g. ``"np.save"`` or
            ``"GroupStatistics.from_records"``.

        Returns
        -------
        str or None
            The fully qualified name, or ``None`` for names that do not
            resolve through the index (builtins, locals, attributes of
            instances).
        """
        head, _, rest = dotted.partition(".")
        if head in module.functions and not rest:
            return module.functions[head].qualname
        if head in module.classes:
            qualified = module.classes[head]
        elif head in module.imports:
            qualified = module.imports[head]
        else:
            return None
        if rest:
            qualified = f"{qualified}.{rest}"
        return self._follow_aliases(qualified)

    def _follow_aliases(self, qualified: str) -> str:
        """Rewrite a qualified name through re-export chains."""
        for _ in range(_MAX_ALIAS_HOPS):
            if qualified in self.functions:
                return qualified
            owner = self._owning_module(qualified)
            if owner is None:
                return qualified
            rest = qualified[len(owner):].lstrip(".")
            if not rest:
                return qualified
            info = self.modules[owner]
            head, _, tail = rest.partition(".")
            if head in info.functions and not tail:
                return info.functions[head].qualname
            if f"{head}.{tail}" in info.functions:
                return info.functions[f"{head}.{tail}"].qualname
            if head in info.classes:
                rewritten = info.classes[head]
            elif head in info.imports:
                rewritten = info.imports[head]
            else:
                return qualified
            candidate = f"{rewritten}.{tail}" if tail else rewritten
            if candidate == qualified:
                return qualified
            qualified = candidate
        return qualified

    def resolve_function(self, module, dotted, class_name=None):
        """Resolve a called dotted name to an indexed function.

        Parameters
        ----------
        module:
            :class:`ModuleInfo` the call appears in.
        dotted:
            Call target as written (``"f"``, ``"np.save"``,
            ``"self.split"``, ...).
        class_name:
            Name of the enclosing class when resolving inside a method,
            enabling ``self.method()`` / ``cls.method()`` resolution.

        Returns
        -------
        FunctionInfo or None
        """
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls") and class_name and rest:
            method = rest.split(".")[0]
            return self.functions.get(
                f"{module.name}.{class_name}.{method}"
            )
        qualified = self.resolve(module, dotted)
        if qualified is None:
            return None
        function = self.functions.get(qualified)
        if function is not None:
            return function
        # ``ClassName.method`` through an imported class: the resolved
        # class qualname plus the method suffix.
        owner = self._owning_module(qualified)
        if owner is not None:
            suffix = qualified[len(owner):].lstrip(".")
            return self.modules[owner].functions.get(suffix)
        return None

    # ------------------------------------------------------------------
    # Call graph
    # ------------------------------------------------------------------

    def call_graph(self) -> dict:
        """Resolvable callees of every indexed function.

        Returns
        -------
        dict of str to set of str
            Function qualname → qualnames of indexed functions it
            calls (unresolvable calls are dropped).
        """
        if self._call_graph is None:
            graph = {}
            for qualname, function in self.functions.items():
                info = self.modules[function.module]
                callees = set()
                for node in ast.walk(function.node):
                    if not isinstance(node, ast.Call):
                        continue
                    callee = self.resolve_function(
                        info, dotted_name(node.func),
                        class_name=function.class_name,
                    )
                    if callee is not None:
                        callees.add(callee.qualname)
                graph[qualname] = callees
            self._call_graph = graph
        return self._call_graph

    def reachable_from(self, roots: Iterable[str]) -> dict:
        """Functions reachable from ``roots`` through the call graph.

        Parameters
        ----------
        roots:
            Starting function qualnames.

        Returns
        -------
        dict of str to list of str
            Reachable qualname → shortest call path from a root
            (root first, the function itself last).
        """
        graph = self.call_graph()
        paths = {}
        frontier = []
        for root in roots:
            if root in graph and root not in paths:
                paths[root] = [root]
                frontier.append(root)
        while frontier:
            current = frontier.pop(0)
            for callee in sorted(graph.get(current, ())):
                if callee not in paths:
                    paths[callee] = paths[current] + [callee]
                    frontier.append(callee)
        return paths

    def worker_roots(self) -> list:
        """Functions handed to executor pools in ``repro.parallel``.

        Scans parallel-package modules for ``pool.map(f, ...)`` /
        ``pool.submit(f, ...)`` / ``apply_async(f, ...)`` call sites
        and resolves the function arguments — the entry points of the
        worker-count-independence (determinism) contract.

        Returns
        -------
        list of str
            Sorted qualnames of worker entry functions.
        """
        roots = set()
        for info in self.modules.values():
            if ".parallel" not in f".{info.name}":
                continue
            for node in ast.walk(info.context.tree):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("map", "submit", "apply_async")
                ):
                    continue
                target = dotted_name(node.args[0])
                if target is None:
                    continue
                resolved = self.resolve_function(info, target)
                if resolved is not None:
                    roots.add(resolved.qualname)
        return sorted(roots)


def build_index(contexts: Iterable[ModuleContext]) -> ProjectIndex:
    """Build a :class:`ProjectIndex` from parsed module contexts.

    Parameters
    ----------
    contexts:
        Parsed module contexts, one per file.

    Returns
    -------
    ProjectIndex
    """
    return ProjectIndex.from_contexts(contexts)
