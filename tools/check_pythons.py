"""Run the tests under every Python the project claims (>= 3.10).

pytest, hypothesis and sympy are pure Python, so the copies installed for
the interpreter that runs this script serve the others: each of them, and
each installed package it requires outside an extra, is linked into a temporary
directory, and only that directory and src go on PYTHONPATH.  Under each
interpreter given, the tier-1 suite then runs.  Where pytest cannot import
(3.10 wants exceptiongroup, which a 3.11 install does not hold), pytest-free
checks run instead: the names a star import binds and the objects the
package's names resolve to, the layers that an import, a name import and a
cold `comb` load, and the sha256 of the output of every argv in
perfbench/cli_catalog.json.

Run from the repository root, with an interpreter that has the test
packages:

    python tools/check_pythons.py /path/to/python3.10 /path/to/python3.12 ...

It exits 1 if any interpreter fails.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_PACKAGES = ("pytest", "hypothesis", "sympy")

# Each runs in a fresh interpreter and prints one "ok <check>" or
# "FAIL <check>" line per check.
_SURFACE = """
import sys, types
import braidcomb
layers = ("braidcomb.abelian", "braidcomb.fibration")
def loaded():
    return [m for m in layers if type(sys.modules[m]) is types.ModuleType]
def check(what, passed):
    print("ok" if passed else "FAIL", what)
check("import braidcomb loads no layer", loaded() == [])
from braidcomb import h1
check("from braidcomb import h1 loads abelian alone", loaded() == ["braidcomb.abelian"])
namespace = {}
exec("from braidcomb import *", namespace)
public = sorted(name for name in vars(braidcomb) if not name.startswith("_"))
star = sorted(name for name in namespace if name != "__builtins__")
check(f"a star import binds the package's {len(star)} public names, of 83", star == public and len(star) == 83)
modules = ("errors", "words", "presentations", "combing", "abelian", "fibration")
check("every module's __all__ name resolves to its own object", all(
    getattr(braidcomb, name) is vars(sys.modules[f"braidcomb.{m}"])[name]
    for m in modules for name in sys.modules[f"braidcomb.{m}"].__all__
))
"""

_CATALOG = """
import hashlib, io, json, sys, types
from contextlib import redirect_stderr, redirect_stdout
from braidcomb.cli import main
layers = ("braidcomb.abelian", "braidcomb.fibration")
def check(what, passed):
    print("ok" if passed else "FAIL", what)
def run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code == 0 and hashlib.sha256(out.getvalue().encode()).hexdigest()
with open("perfbench/cli_catalog.json") as f:
    entries = json.load(f)["entries"]
first_comb = next(e for e in entries if e["argv"][0] == "comb")
run(first_comb["argv"])
check("a cold comb loads no layer", all(type(sys.modules[m]) is not types.ModuleType for m in layers))
matched = sum(run(e["argv"]) == e["sha256"] for e in entries)
check(f"{matched} of {len(entries)} catalog argvs print their recorded sha256", matched == len(entries))
"""


def link_test_packages(into: Path) -> list[str]:
    """Link each test package, and each installed package it requires
    outside an extra, from this interpreter's site-packages into into;
    return the distributions linked."""
    linked, todo = set(), list(TEST_PACKAGES)
    while todo:
        name = todo.pop()
        try:
            dist = metadata.distribution(name)
        except metadata.PackageNotFoundError:
            continue  # a requirement of other Pythons only, such as exceptiongroup
        if dist.metadata["Name"] in linked:
            continue
        linked.add(dist.metadata["Name"])
        for top in {f.parts[0] for f in dist.files or ()} - {"..", "__pycache__"}:
            source = Path(dist.locate_file(top))
            if source.exists() and not (into / top).exists():
                (into / top).symlink_to(source)
        todo += [re.match(r"[\w.-]+", r)[0] for r in dist.requires or () if "extra ==" not in r]
    return sorted(linked)


def check(python: str, env: dict[str, str]) -> bool:
    version = subprocess.run(
        [python, "-c", "import platform; print(platform.python_version())"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    print(f"== {python} (Python {version})", flush=True)

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([python, *args], capture_output=True, text=True, cwd=ROOT, env=env)

    probe = run("-c", "import pytest")
    if probe.returncode == 0:
        proc = run("-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors")
        lines = proc.stdout.splitlines()
        for line in [line for line in lines if line.startswith(("FAILED", "ERROR"))] + lines[-1:]:
            print(f"  {line}")
        return proc.returncode == 0
    print(f"  pytest does not import: {probe.stderr.strip().splitlines()[-1]}")
    print("  pytest-free checks:")
    passed = True
    for script in (_SURFACE, _CATALOG):
        proc = run("-c", script)
        for line in proc.stdout.splitlines():
            print(f"    {line}")
        if proc.returncode != 0:
            print(f"    FAIL {proc.stderr.strip().splitlines()[-1]}")
        passed &= proc.returncode == 0 and "FAIL" not in proc.stdout
    return passed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pythons", nargs="+", help="interpreter paths")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as packages:
        print("linked:", ", ".join(link_test_packages(Path(packages))))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), packages]),
            PYTHONDONTWRITEBYTECODE="1",
        )
        results = [check(python, env) for python in args.pythons]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
