"""Every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import alebench

MODULES = sorted(info.name for info in pkgutil.iter_modules(alebench.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"alebench.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
