"""Every name that a hamgnn module lists in ``__all__`` resolves, so a stale
export of a removed function fails here rather than at a user's import."""

import importlib
import pkgutil

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
