"""Package-level checks: every exported name exists."""

import importlib
import pkgutil

import pytest

import cskit

MODULES = ["cskit"] + [f"cskit.{info.name}" for info in pkgutil.iter_modules(cskit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"
