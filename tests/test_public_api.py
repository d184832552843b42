"""The public surface: every name a module exports in __all__ resolves."""

import importlib
import pkgutil

import pytest

import polarpark

MODULES = ["polarpark"] + [
    f"polarpark.{info.name}" for info in pkgutil.iter_modules(polarpark.__path__)
    if hasattr(importlib.import_module(f"polarpark.{info.name}"), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
