"""Every public name a module of the package exports resolves. The benchmark
tracer wraps functions by their ``__all__`` names and skips a stale name
silently, so a stale entry would drop a function from every trace. Every
data file the CLI names ships with the package."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import unn_csi
from unn_csi import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(unn_csi.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"unn_csi.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_builtin_data_files_are_package_data():
    # an installed package holds only the files its package-data globs
    # match, relative to the package directory as setuptools expands them
    tomllib = pytest.importorskip("tomllib")
    package = Path(unn_csi.__file__).parent
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    globs = pyproject["tool"]["setuptools"]["package-data"]["unn_csi"]
    shipped = {p.relative_to(package).as_posix() for glob in globs for p in package.glob(glob) if p.is_file()}
    named = [*cli._BUILTIN_SCENES.values(), *cli._BUILTIN_SPECS.values(), *cli._BUILTIN_PLANS.values()]
    assert [path for path in named if path not in shipped] == []
