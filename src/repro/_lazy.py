"""Package exports that import their module on first access (PEP 562).

A package that re-exports names from heavy submodules binds the pair
this module returns as its ``__getattr__`` and ``__dir__``, so
``import repro`` or ``import repro.analysis`` loads nothing until a
name is used, while ``from package import name`` and ``__all__`` keep
working unchanged.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict) -> tuple:
    """Module-level ``__getattr__`` and ``__dir__`` for ``package``.

    Parameters
    ----------
    package:
        The package's ``__name__``; it must already be importing.
    exports:
        Exported name -> name of the module that defines it.

    Returns
    -------
    tuple
        ``(__getattr__, __dir__)``.  ``__getattr__`` imports the
        defining module, caches the value in the package namespace (so
        it runs once per name), and raises ``AttributeError`` for any
        other name.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
