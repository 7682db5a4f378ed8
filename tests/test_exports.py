"""Every name a module exports in __all__ resolves, so a deleted class or
function cannot stay behind as a stale export."""

import importlib
import pkgutil

import pytest

import coulomblab

MODULES = ["coulomblab"] + [
    f"coulomblab.{m.name}" for m in pkgutil.iter_modules(coulomblab.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
