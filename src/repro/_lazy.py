"""The one lazy-export mechanism behind every ``repro`` package (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` a ``submodule -> names``
table and binds the three values it returns::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "columnar": ("GraphFrame",),
        "io": ("read_company_csv", "save_json"),
    })

Importing the package then imports none of its submodules; a name is
resolved — and its submodule imported — the first time it is used, by
``pkg.name``, ``from pkg import name`` or ``from pkg import *`` alike.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]], submodules: Sequence[str] = ()
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*.

    *table* maps each submodule of *package* to the names it exports;
    *submodules* are exported as the modules they are.
    Resolved names are cached in the package namespace, so
    ``__getattr__`` runs once per name; plain submodule access
    (``repro.graph.columnar`` after ``import repro.graph``) resolves the
    same way.  Resolution is idempotent and goes through the import
    system's per-module locks, so a first touch from an executor thread
    is as safe as an ``import`` statement there.

    A name exported from a submodule *of the same name*
    (``repro.datalog.stratify``) is bound now: the import system sets
    ``package.<submodule>`` to the module object the first time the
    submodule loads, whoever imports it, and ``__getattr__`` is never
    asked about a name that is already bound — so the only order in
    which the export reliably wins is module first, export over it.
    """
    namespace = vars(sys.modules[package])
    origin = {name: submodule for submodule, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        submodule = origin.get(name)
        if submodule is not None:
            value = getattr(import_module(f"{package}.{submodule}"), name)
        else:
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise  # the submodule exists; something it imports does not
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(namespace["__all__"]))

    for name, submodule in origin.items():
        if name == submodule:
            namespace[name] = getattr(import_module(f"{package}.{submodule}"), name)
    return __getattr__, __dir__, [*origin, *submodules]
