"""Where the benchmark runs: the checkout root, its source tree, and the
directory the results and spans are written to."""

from __future__ import annotations

import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"


def child_env() -> dict:
    """The environment for child interpreters: braidcomb from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
