"""Every public name a module of the package exports resolves. The benchmark
tracer wraps functions by their ``__all__`` names and skips a stale name
silently, so a stale entry would drop a function from every trace."""

import importlib
import pkgutil

import pytest

import unn_csi

MODULES = sorted(m.name for m in pkgutil.iter_modules(unn_csi.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"unn_csi.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
