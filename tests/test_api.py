"""Every exported name resolves, so removals leave no dangling export."""

import importlib
import pkgutil

import pytest

import iavar

MODULES = ["iavar"] + [f"iavar.{m.name}" for m in pkgutil.iter_modules(iavar.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_star_import():
    namespace: dict = {}
    exec("from iavar import *", namespace)
    assert set(iavar.__all__) <= set(namespace)


def test_reduced_route_exported():
    module = importlib.import_module("iavar.variogram")
    assert "variogram_reduced" in module.__all__
    assert "variogram_reduced" in iavar.__all__
    assert iavar.variogram_reduced is module.variogram_reduced
