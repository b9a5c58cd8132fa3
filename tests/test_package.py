"""Package surface: every public name that a module exports imports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only: every command starts on numpy alone
    src = str(Path(importlib.import_module("ostlab").__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, ostlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
