"""Regenerates cli_catalog.json: the cold_cli inputs and the sha256 of the
stdout each produced at the commit the catalog was recorded from.

    python3 perfbench/make_catalog.py

The digests are a regression reference, not an independent oracle: they
say the CLI prints what it printed when the catalog was made.  Re-record
them only when an output change is intended.
"""

from __future__ import annotations

import json
import random
import sys

from paths import HERE, SRC

sys.path.insert(0, str(SRC))  # braidcomb from the checkout, as run.py's workers use it

from checks import digest  # noqa: E402
from workloads import CATALOG, CLI_PLAN, run_child  # noqa: E402

CATALOG_SEED = 20171031
CATALOG_FACTOR = 3  # catalog words per comb call in a pass
WORD_LETTERS = (4, 8)


def orbit_letter(rng: random.Random, n: int) -> str:
    j = rng.randint(1, n)
    return f"r({j},{rng.randint(0, 2 * j - 2)})"


def band_letter(rng: random.Random, n: int) -> str:
    j = rng.randint(2, n)
    return f"A({rng.randint(1, j - 1)},{j})"


def catalog_argvs() -> list[tuple[str, list[str]]]:
    rng = random.Random(CATALOG_SEED)
    out = []
    for kind, count in CLI_PLAN.items():
        if kind.startswith("center-"):
            out.append((kind, ["verify", "--suite", "center", "--n", kind.split("-")[1]]))
            continue
        group, n = kind[len("comb-"):][:2], int(kind[len("comb-") + 2:])
        letter = orbit_letter if group == "gn" else band_letter
        for _ in range(count * CATALOG_FACTOR):
            tokens = [letter(rng, n) + rng.choice(("", "^-1")) for _ in range(rng.randint(*WORD_LETTERS))]
            out.append((kind, ["comb", "--group", group, "--n", str(n), "--word", " ".join(tokens)]))
    return out


def main() -> None:
    entries = []
    for kind, argv in catalog_argvs():
        done = run_child(["-m", "braidcomb", *argv])
        if done.returncode != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {done.returncode}: {done.stderr}")
        entries.append({"kind": kind, "argv": argv, "sha256": digest(done.stdout)})
    CATALOG.write_text(json.dumps({"catalog_seed": CATALOG_SEED, "entries": entries}, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {CATALOG.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
