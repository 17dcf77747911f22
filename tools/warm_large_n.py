"""Warm combing at large n, where the benchmark's sweep does not reach.

Each tower gets 200 seeded words, each 4 random lower letters followed by
60 random top-level letters, freely reduced, combed under a cap of 200,000
through the public ``comb``.  One pass fills the action tables; the best of
3 further passes is reported, with the words charged to the tower's pair
store since it was last emptied and how many times the 3 passes emptied it
in all.  ``--unbounded`` lifts the store's budget, to show what every pair
the passes read would take.

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


def count_emptyings() -> list[int]:
    """Wrap _Comber._spend so that each call that empties a pair store adds
    one to the only entry of the returned list.  A call empties the store
    when the room it leaves is not the room before less the words charged."""
    emptied = [0]
    spend = combing._Comber._spend

    def counting(self, words: int) -> None:
        room = self._room
        spend(self, words)
        emptied[0] += self._room != room - words

    combing._Comber._spend = counting
    return emptied


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--unbounded", action="store_true", help="lift the pair store's budget")
    args = parser.parse_args()
    if args.unbounded:
        combing._PAIR_WORDS = 10**12
    emptied = count_emptyings()
    print(f"{'tower':<6} {'seconds':>8} {'words':>12} {'emptied':>8}")
    for tower in TOWERS:
        combing._comber_for.cache_clear()
        batch = words(tower)
        for w in batch:
            combing.comb(tower, w, CAP)
        emptied[0] = 0
        best = float("inf")
        for _ in range(PASSES):
            start = time.perf_counter()
            for w in batch:
                combing.comb(tower, w, CAP)
            best = min(best, time.perf_counter() - start)
        engine = combing._comber_for(tower)
        name = f"{'G' if tower.family is GenFamily.ORBIT else 'P'}_{tower.n}"
        print(f"{name:<6} {best:8.3f} {combing._PAIR_WORDS - engine._room:>12,} {emptied[0]:>8}")


if __name__ == "__main__":
    main()
