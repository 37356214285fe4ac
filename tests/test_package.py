import importlib
import pkgutil

import pytest

import chaoscontrol

MODULES = sorted(info.name for info in pkgutil.iter_modules(chaoscontrol.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"chaoscontrol.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"chaoscontrol.{name}.__all__ names undefined {missing}"
