"""Package surface: every name a module exports is importable from braidcomb
and read somewhere in the package or the acceptance suite, every name a
module imports is used, every private function, method or class a module
defines is read somewhere in the package, every generator symbol is
built by the one constructor that shares them, no tuple is built from a
lazy iterator, and the CLI writes JSON in one place."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import braidcomb

MODULES = [m.name for m in pkgutil.iter_modules(braidcomb.__path__) if m.name != "__main__"]
PACKAGE_SOURCES = sorted(Path(braidcomb.__file__).parent.glob("*.py"))
SOURCES = [p for p in PACKAGE_SOURCES if p.name != "__init__.py"]


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


def unread_private_definitions(source: str, package: list[str]) -> list[str]:
    """The _names that source defines as a function, method or class and no
    source in package reads, as a name, an attribute or an imported name."""
    defined = {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }
    read = set()
    for text in package:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(defined - read)


def test_unread_private_definitions_are_found():
    source = (
        "class _Engine:\n"
        "    def __init__(self):\n        self._fill_inverse = None\n"
        "    def _fill(self):\n        return _helper()\n"
        "    def _orphan(self):\n        pass\n"
        "def _helper():\n    return 1\n"
        "def _imported_elsewhere():\n    return 2\n"
        "def _fill_inverse():\n    return 3\n"
        "def run():\n    return _Engine()._fill()\n"
    )
    other = "from engine import _imported_elsewhere\n"
    assert unread_private_definitions(source, [source, other]) == ["_fill_inverse", "_orphan"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_private_definitions(path):
    package = [p.read_text() for p in PACKAGE_SOURCES]
    assert unread_private_definitions(path.read_text(), package) == []


def unread_exports(source: str, package: list[str], named: str) -> list[str]:
    """The names in source's __all__ that no source in package loads, as a
    name or an attribute, outside the top-level statement that defines
    them, and that the text named does not mention as a name, an attribute
    or an imported name."""
    tree = ast.parse(source)
    exported = [
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    ]
    read = set()
    for text in package:
        for statement in ast.parse(text).body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {statement.name}
            elif isinstance(statement, ast.Assign):
                own = {t.id for t in statement.targets if isinstance(t, ast.Name)}
            else:
                own = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    read.add(name)
    for node in ast.walk(ast.parse(named)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return [name for name in exported if name not in read]


def test_unread_exports_are_found():
    source = (
        "__all__ = ['CAP', 'Engine', 'run', 'helper', 'recurse', 'checked', 'orphan']\n"
        "CAP = 3\n"
        "class Engine:\n    def again(self):\n        return Engine()\n"
        "def run():\n    return CAP\n"
        "def helper():\n    return 1\n"
        "def recurse(k):\n    return recurse(k - 1) if k else 0\n"
        "def checked():\n    return 2\n"
        "def orphan():\n    return 4\n"
    )
    caller = "from engine import helper, orphan\nimport engine\nengine.run()\nhelper()\n"
    acceptance = "from engine import checked\n"
    assert unread_exports(source, [source, caller], acceptance) == ["Engine", "recurse", "orphan"]


# Exported names with no reader in the package and no mention in the
# acceptance suite, each kept for one reason.
UNREAD_EXPORTS_KEPT = (
    "element_E",  # the paper's E(k,m,q), checked against its definition
    "parse_presentation",  # the import half of export_presentation
    "conjugation_action",  # the test hook onto the combing action tables
)


def test_every_export_is_read_or_kept():
    package = [p.read_text() for p in PACKAGE_SOURCES]
    acceptance = (Path(__file__).parent / "test_acceptance.py").read_text()
    unread = [
        name
        for path in SOURCES
        for name in unread_exports(path.read_text(), package, acceptance)
    ]
    assert sorted(unread) == sorted(UNREAD_EXPORTS_KEPT)


def symbols_built_outside_the_shared_constructor(source: str) -> list[int]:
    """The lines of source that call GeneratorSymbol, or hand the class to a
    call other than isinstance/issubclass (such as object.__new__), outside
    words._symbol, the one constructor whose symbols are shared."""

    def is_class(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and node.id == "GeneratorSymbol") or (
            isinstance(node, ast.Attribute) and node.attr == "GeneratorSymbol"
        )

    tree = ast.parse(source)
    inside = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_symbol"
        for inner in ast.walk(node)
    }
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        checks_type = isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "issubclass")
        if is_class(node.func) or (not checks_type and any(map(is_class, node.args))):
            lines.add(node.lineno)
    return sorted(lines)


def test_symbols_built_outside_the_shared_constructor_are_found():
    source = (
        "from braidcomb import words\n"
        "def _symbol(char, indices):\n"
        "    return GeneratorSymbol(GenFamily(char), indices)\n"
        "def orbit_gen(j, i):\n    return _symbol('r', (j, i))\n"
        "def bypass(j, i):\n    return GeneratorSymbol(GenFamily.ORBIT, (j, i))\n"
        "def qualified(i, j):\n    return words.GeneratorSymbol(GenFamily.BAND, (i, j))\n"
        "def unchecked():\n    return object.__new__(GeneratorSymbol)\n"
        "def check(s: GeneratorSymbol) -> bool:\n    return isinstance(s, GeneratorSymbol)\n"
    )
    assert symbols_built_outside_the_shared_constructor(source) == [7, 9, 11]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_symbols_are_built_only_by_the_shared_constructor(path):
    assert symbols_built_outside_the_shared_constructor(path.read_text()) == []


def tuples_built_from_lazy_iterators(source: str) -> list[int]:
    """The lines of source that call tuple() on a generator expression or on
    map, filter or zip.

    CPython builds such a tuple at a guessed size and then resizes it, so
    its memory never comes from the free list of tuples of its final size,
    yet returns there when the tuple dies.  Over a long run those free
    lists fill up to 2,000 tuples for every size up to 20, about 2 MB held
    for nothing; tuple([...]) allocates at the final size and keeps them
    balanced."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and len(node.args) == 1
        ):
            (arg,) = node.args
            lazy_call = (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id in ("map", "filter", "zip")
            )
            if isinstance(arg, ast.GeneratorExp) or lazy_call:
                lines.add(node.lineno)
    return sorted(lines)


def test_tuples_built_from_lazy_iterators_are_found():
    source = (
        "a = tuple(x for x in range(3))\n"
        "b = tuple([x for x in range(3)])\n"
        "c = tuple(map(str, range(3)))\n"
        "d = tuple(list(map(str, range(3))))\n"
        "e = tuple(sorted({3, 1}))\n"
        "f = tuple(zip(a, b))\n"
    )
    assert tuples_built_from_lazy_iterators(source) == [1, 3, 6]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_tuple_is_built_from_a_lazy_iterator(path):
    assert tuples_built_from_lazy_iterators(path.read_text()) == []


def json_dumps_calls(source: str) -> list[int]:
    """The line of each call in source to json.dumps, or to dumps imported
    from json under any name; two calls on one line give it twice."""
    tree = ast.parse(source)
    bare = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        for a in node.names
        if a.name == "dumps"
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
            (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "dumps"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
            )
            or (isinstance(node.func, ast.Name) and node.func.id in bare)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_json_dumps_calls_are_found():
    source = (
        "import json\nfrom json import dumps as to_json\n"
        "def a(p):\n    return json.dumps(p, indent=2)\n"
        "def b(p):\n    return to_json(p)\n"
        "def c(p):\n    return json.loads(p)\n"
        "def d(p):\n    return pickle.dumps(p)\n"
        "def e(p):\n    return json.dumps(p) + to_json(p)\n"
    )
    assert json_dumps_calls(source) == [4, 6, 12, 12]


def test_the_cli_prints_json_in_one_place():
    # Every command hands its payload to one printer, which alone writes
    # the schema_version envelope.
    cli_source = (Path(braidcomb.__file__).parent / "cli.py").read_text()
    assert len(json_dumps_calls(cli_source)) == 1
