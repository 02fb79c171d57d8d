"""Package exports resolved on first use (PEP 562).

Each package ``__init__`` states its public names once, as a name ->
submodule table, and :func:`exports` makes that table the package's
``__getattr__`` and ``__all__``.  Importing a package then runs none of its
submodules, so a command loads only what it uses: ``repro bench`` answered
from the artifact store never loads the simulator.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable

__all__ = ["exports"]


def exports(
    package: str, table: dict[str, str]
) -> tuple[Callable[[str], Any], list[str]]:
    """``__getattr__`` and ``__all__`` for ``package``, whose public name
    ``name`` is defined in its submodule ``table[name]``."""

    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{table[name]}"), name)
        setattr(sys.modules[package], name, value)  # later lookups skip this hook
        return value

    class Package(types.ModuleType):
        def __setattr__(self, name: str, value: Any) -> None:
            # Importing submodule ``x`` binds ``x`` on its package; an
            # export of that name (the function ``repro.store.prewarm``)
            # keeps it.
            if not (name in table and isinstance(value, types.ModuleType)):
                super().__setattr__(name, value)

    sys.modules[package].__class__ = Package
    return __getattr__, list(table)
