"""Package surface: every name a module exports is importable from braidcomb,
and every name a module imports is used."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import braidcomb

MODULES = [m.name for m in pkgutil.iter_modules(braidcomb.__path__) if m.name != "__main__"]
SOURCES = sorted(p for p in Path(braidcomb.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_reexported(name):
    module = importlib.import_module(f"braidcomb.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(braidcomb, attr)]
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports in source that it neither reads nor
    lists in __all__."""
    tree = ast.parse(source)
    imported = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import heapq\nimport os.path\nfrom typing import Sequence as Seq\n"
        "from math import gcd, lcm\nfrom json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f(x: Seq[int]) -> int:\n    return gcd(*x)\n"
    )
    assert unused_imports(source) == ["heapq", "lcm", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
