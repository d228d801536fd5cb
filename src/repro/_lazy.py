"""PEP 562 lazy exports: ``name -> defining module`` declared once.

A module hands :func:`lazy_exports` its table and binds the three
results to ``__getattr__``, ``__dir__`` and ``__all__``; a name (or, on
a package, a submodule) is imported on first access and cached on the
module, so a command imports what it reads (docs/EXECUTION.md, "Import
layering").  Table values are relative to the module's package.
"""

import importlib.util
import sys


def lazy_exports(module_name: str, table: dict):
    module = sys.modules[module_name]
    is_package = hasattr(module, "__path__")

    def __getattr__(name: str):
        if name in table:
            value = getattr(importlib.import_module(
                "." + table[name], module.__package__), name)
        elif (is_package and not name.startswith("_")
              and importlib.util.find_spec(f"{module_name}.{name}")):
            value = importlib.import_module(f"{module_name}.{name}")
        else:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}")
        setattr(module, name, value)
        return value

    def __dir__():
        return sorted(set(vars(module)) | set(table))

    return __getattr__, __dir__, list(table)
