import importlib
import pkgutil

import pytest

import btd1

MODULES = ["btd1"] + [f"btd1.{m.name}" for m in pkgutil.iter_modules(btd1.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
