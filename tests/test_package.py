"""Package surface: every name a module exports is importable from braidcomb."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import braidcomb

MODULES = [m.name for m in pkgutil.iter_modules(braidcomb.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_reexported(name):
    module = importlib.import_module(f"braidcomb.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(braidcomb, attr)]
    assert missing == []
