import importlib
import pkgutil

import ncfem


def test_every_exported_name_resolves():
    """Each name in a module's __all__ exists, so a deleted function cannot
    linger in an export list."""
    exporting = []
    for info in pkgutil.iter_modules(ncfem.__path__):
        module = importlib.import_module(f"ncfem.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"ncfem.{info.name}.{name}"
        exporting += [info.name] * hasattr(module, "__all__")
    assert {"spaces", "solve", "estimators", "assembly"} <= set(exporting)
