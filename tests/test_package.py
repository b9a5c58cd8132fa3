"""Package surface: every public name that a module exports imports, and the test extra covers the tests."""

import ast
import importlib
import os
import re
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


def test_test_imports_declared():
    # a third-party module the tests import but pyproject.toml does not name is a collection error
    # after `pip install -e '.[test]'` on a clean environment
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}
    imported = set()
    for path in (root / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip":
                imported.add(node.args[0].value)
    third_party = {name.split(".")[0] for name in imported} - set(sys.stdlib_module_names) - {"ostlab"}
    assert third_party - declared == set()
