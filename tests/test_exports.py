import importlib
import pkgutil

import pytest

import brauer

MODULES = sorted(
    f"brauer.{info.name}" for info in pkgutil.iter_modules(brauer.__path__)
) + ["brauer"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
