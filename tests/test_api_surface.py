"""Every name a module exports through __all__ exists."""

import importlib
import pkgutil

import pytest

import ultraseq

MODULES = ["ultraseq"] + [
    f"ultraseq.{m.name}" for m in pkgutil.iter_modules(ultraseq.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
