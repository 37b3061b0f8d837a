"""Package-level checks: every exported name exists, and the integer rule
is written once."""

import importlib
import pathlib
import pkgutil

import pytest

import cskit

MODULES = ["cskit"] + [f"cskit.{info.name}" for info in pkgutil.iter_modules(cskit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"


def test_one_integer_rule():
    """``cskit.gbf._index`` is the one reader of an integer argument: no other
    module imports ``operator``, and no ``int(n)`` truncation is left."""
    sources = {path.name: path.read_text() for path in pathlib.Path(cskit.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if "import operator" in text] == ["gbf.py"]
    assert [name for name, text in sources.items() if "int(n) for n" in text] == []
