"""Every name a quadsums module lists in __all__ resolves."""

import importlib
import pkgutil

import pytest

import quadsums

MODULES = ["quadsums"] + [
    f"quadsums.{info.name}" for info in pkgutil.iter_modules(quadsums.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    mod = importlib.import_module(name)
    for attr in getattr(mod, "__all__", ()):
        assert hasattr(mod, attr), f"{name}.__all__ lists missing {attr!r}"
    exec(f"from {name} import *", {})
