"""Package exports bound on first use (PEP 562).

Every package ``__init__`` of :mod:`repro` lists its public names in one
table, module -> names, and hands it to :func:`lazy_exports`.  A
subpackage names the module that defines each name; the root names the
subpackage that exports it::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.cache.config": ("CacheConfig", "HierarchyConfig"),
        "repro.cache.streaming": ("StreamingHierarchy",),
    })

Importing the package then imports none of those modules, so a run pays
only for the modules it calls.  The first ``package.Name`` (or ``from
package import Name``) imports the module that defines ``Name`` and binds
the object on the package: later lookups are plain attribute reads, and
``package.Name is module.Name``.  See DESIGN.md, "Imports".
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Iterable[str]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``'s ``table``.

    ``table`` maps each module (absolute name) to the names the package
    re-exports from it; ``__all__`` lists them in table order.
    """
    origin = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__
