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
from hamgnn import engine as eg

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
    """(top-level package, whether the import is at module level) for every
    absolute import in a source file."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        yield from ((name.split(".")[0], node in tree.body) for name in names)


def test_every_imported_package_is_a_declared_dependency():
    """A module-level import needs a runtime dependency; an import inside a
    function (an optional feature) needs at least an optional one."""
    tomllib = pytest.importorskip("tomllib")
    package = Path(hamgnn.__file__).resolve().parent
    pyproject = package.parents[1] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("not a source checkout")
    project = tomllib.loads(pyproject.read_text())["project"]

    def names(deps):
        return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in deps}

    required = names(project["dependencies"])
    optional = names(dep for deps in project["optional-dependencies"].values()
                     for dep in deps)
    imported = {found for path in package.glob("*.py") for found in _imported_packages(path)}
    outside = set(sys.stdlib_module_names) | {"hamgnn"}
    module_level = {name for name, top in imported if top} - outside
    in_function = {name for name, top in imported if not top} - outside
    assert "numpy" in module_level and "threadpoolctl" in in_function  # the scan sees both
    assert module_level <= required, f"imported but not in dependencies: {module_level - required}"
    assert in_function <= required | optional, (
        f"imported but not declared: {in_function - required - optional}")


def test_readme_states_the_engine_op_count():
    readme = Path(hamgnn.__file__).resolve().parents[2] / "README.md"
    if not readme.is_file():
        pytest.skip("not a source checkout")
    text = readme.read_text()
    stated = re.findall(r"The engine has (\d+) op\s+kinds", text)
    assert stated == [str(len(eg._FORWARD))]
    [scanned] = re.findall(r"the BLAS and scipy outputs\s+\(([^)]*)\)", text)
    assert set(re.findall(r"`([^`]+)`", scanned)) == set(eg._FORWARD) - eg._UNSCANNED
