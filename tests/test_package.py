"""The package's module exports."""

import importlib
import pkgutil

import kcone


def test_every_name_in_all_resolves():
    # a name removed from a module but left in its __all__ breaks
    # `from kcone.<module> import *`
    modules = [importlib.import_module(f"kcone.{info.name}")
               for info in pkgutil.iter_modules(kcone.__path__) if info.name != "__main__"]
    exporting = {m.__name__: m.__all__ for m in modules if hasattr(m, "__all__")}
    assert {"kcone.algebra", "kcone.curvature", "kcone.metric", "kcone.verify"} <= set(exporting)
    missing = [(module, name) for module, names in exporting.items() for name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
