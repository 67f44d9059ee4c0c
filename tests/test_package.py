import importlib
import pkgutil

import pytest

import crackdyn

MODULES = ["crackdyn"] + [f"crackdyn.{m.name}"
                          for m in pkgutil.iter_modules(crackdyn.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
