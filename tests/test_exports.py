"""Every name that a hamgnn module lists in ``__all__`` resolves, so a stale
export of a removed function fails here rather than at a user's import; and
every package the library imports is a declared dependency."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import hamgnn

MODULES = sorted(m.name for m in pkgutil.iter_modules(hamgnn.__path__))


def test_every_module_is_listed():
    assert {"cli", "engine", "graphdata", "hamiltonian", "model", "odeint",
            "schema", "train"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hamgnn.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _imported_packages(path: Path):
    """The top-level package of every absolute import at module level in a
    source file (an optional import inside a function is not counted)."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_imported_package_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    package = Path(hamgnn.__file__).resolve().parent
    pyproject = package.parents[1] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("not a source checkout")
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
                for dep in tomllib.loads(pyproject.read_text())["project"]["dependencies"]}
    imported = {name for path in package.glob("*.py") for name in _imported_packages(path)}
    third_party = imported - set(sys.stdlib_module_names) - {"hamgnn"}
    assert "numpy" in third_party  # the scan sees the imports
    assert third_party <= declared, f"imported but not in pyproject.toml: {third_party - declared}"
