"""Lazy package exports (PEP 562): a public name imports its module on first use.

A spawned serve worker imports ``repro.serve.worker``, which runs the
``__init__`` of ``repro`` and ``repro.serve`` first.  Eager re-exports
there would load the whole library — compiler, analyzers, traffic,
benchmarks — into every worker, for nothing the scan path uses.  Each
package instead lists its public names per submodule in one table and
resolves a name only when it is first read.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps each submodule, relative to ``package``, to the public
    names it defines.  A name resolves from its submodule on first access
    and is then bound on the package, so the hook runs once per name.  Any
    other public attribute resolves to the submodule of that name, so
    ``repro.robust`` works after a bare ``import repro``.
    """
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(import_module(f"{package}.{module}"), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("_"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return list(origin), __getattr__, __dir__
