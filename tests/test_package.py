"""Package surface: every public name that a module exports imports."""

import importlib

import pytest

MODULES = ["spectral", "flow", "gibbs", "invariance", "bourgain", "cli"]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # a name deleted but left in __all__ fails here, not at a user's import
    namespace = {}
    exec(f"from ostlab.{module} import *", namespace)
    assert set(importlib.import_module(f"ostlab.{module}").__all__) <= set(namespace)


def test_package_import():
    package = importlib.import_module("ostlab")
    for module in MODULES[:-1]:
        assert getattr(package, module).__name__ == f"ostlab.{module}"
