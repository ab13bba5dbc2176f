"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import alebench

MODULES = sorted(info.name for info in pkgutil.iter_modules(alebench.__path__))


def test_package_exports_resolve():
    missing = [name for name in alebench.__all__ if not hasattr(alebench, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"alebench.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
