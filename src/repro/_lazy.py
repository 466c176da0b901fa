"""Lazy package re-exports (PEP 562 module ``__getattr__``/``__dir__``).

A package names each public object once, in a table of defining module
-> names. :func:`lazy_exports` turns that table into the package's
``__all__``, ``__getattr__`` and ``__dir__``: a name's module is
imported the first time the name is looked up, and the value is then
stored in the package namespace, so later lookups are plain attribute
hits. Importing a package therefore costs only what its ``__init__``
itself runs; see ``docs/OBSERVABILITY.md``, "Start-up".
"""

from __future__ import annotations

import sys


def _load(name: str):
    # ``__import__`` takes the interpreter's own import path, which
    # ``python -X importtime`` reports; ``importlib.import_module`` would
    # hide lazily loaded modules from it.
    __import__(name)
    return sys.modules[name]


def lazy_exports(namespace: dict, table: dict[str, str]):
    """``(__all__, __getattr__, __dir__)`` for the package owning ``namespace``.

    ``table`` maps a module, relative to the package, to the
    whitespace-separated names it defines. The key ``"."`` lists the
    package's own submodules, which resolve to the module objects.
    """
    package = namespace["__name__"]
    source = {
        name: module for module, names in table.items()
        for name in names.split()
    }

    def __getattr__(name: str):
        try:
            module = source[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if module == ".":
            value = _load(f"{package}.{name}")
        else:
            value = getattr(_load(package + module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | source.keys())

    return list(source), __getattr__, __dir__
