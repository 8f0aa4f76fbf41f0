"""Package surface: the package imports and every exported name resolves."""

import importlib
import pkgutil

import pdirichlet


def test_every_module_export_resolves():
    for info in pkgutil.iter_modules(pdirichlet.__path__):
        module = importlib.import_module(f"pdirichlet.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"pdirichlet.{info.name}.__all__ lists missing names {missing}"
