"""Package exports that resolve on first use (PEP 562): a package
``__init__`` keeps its ``__all__`` and hands :func:`lazy_exports` one
table, export name -> defining module (relative to the package or
absolute).  A name in ``__all__`` with no table entry is a submodule."""

from importlib import import_module
from typing import Any, Callable, Dict


def lazy_exports(namespace: Dict[str, Any],
                 table: Dict[str, str]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of the package with globals
    ``namespace``; a name's first read imports and caches it there."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        if name in table:
            value = getattr(import_module(table[name], package), name)
        elif name in namespace["__all__"]:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    return __getattr__
