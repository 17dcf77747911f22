"""Warm combing at large n, where the benchmark's sweep does not reach.

Each tower gets 200 seeded words, each 4 random lower letters followed by
60 random top-level letters, freely reduced, combed under a cap of 200,000
through the public ``comb``.  One pass fills the action tables; the best of
3 further passes is reported, with the pairs and cells the tower's pair
store holds afterwards.  ``--unbounded`` lifts the store's bounds, to show
what every pair the passes read would take.

Run from the repository root:

    PYTHONPATH=src python tools/warm_large_n.py [--unbounded]
"""

from __future__ import annotations

import argparse
import random
import time

from braidcomb import combing
from braidcomb.presentations import TowerSpec
from braidcomb.words import GenFamily, Letter, reduce

TOWERS = [
    TowerSpec(GenFamily.ORBIT, 4),
    TowerSpec(GenFamily.ORBIT, 8),
    TowerSpec(GenFamily.ORBIT, 12),
    TowerSpec(GenFamily.ORBIT, 20),
    TowerSpec(GenFamily.BAND, 40),
]
SEED, WORDS, LOWER, TOP, CAP, PASSES = 7, 200, 4, 60, 200_000, 3


def words(tower: TowerSpec) -> list:
    rng = random.Random(SEED)
    generators = tower.all_generators()
    lower = [s for s in generators if s.level < tower.n]
    top = [s for s in generators if s.level == tower.n]
    return [
        reduce(
            [Letter(rng.choice(lower), rng.choice((1, -1))) for _ in range(LOWER)]
            + [Letter(rng.choice(top), rng.choice((1, -1))) for _ in range(TOP)]
        )
        for _ in range(WORDS)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--unbounded", action="store_true", help="lift the pair store's bounds")
    args = parser.parse_args()
    if args.unbounded:
        combing._PAIR_ENTRIES = combing._PAIR_CELLS = 10**12
    print(f"{'tower':<6} {'seconds':>8} {'pairs':>10} {'cells':>12}")
    for tower in TOWERS:
        combing._comber_for.cache_clear()
        batch = words(tower)
        for w in batch:
            combing.comb(tower, w, CAP)
        best = float("inf")
        for _ in range(PASSES):
            start = time.perf_counter()
            for w in batch:
                combing.comb(tower, w, CAP)
            best = min(best, time.perf_counter() - start)
        engine = combing._comber_for(tower)
        name = f"{'G' if tower.family is GenFamily.ORBIT else 'P'}_{tower.n}"
        print(f"{name:<6} {best:8.3f} {engine._pair_count:>10,} {engine._cells:>12,}")


if __name__ == "__main__":
    main()
