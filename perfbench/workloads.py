"""The three workloads.  Each builds, from its seed, one *pass*: a fixed
list of operations whose answers are checked.  A run repeats whole passes,
so the operations and the per-pass counts depend on the seed alone.

sweep     warm combing: seeded word pairs over G_3, G_4, P_5, P_6 with a
          relator inserted, combed under a fixed word cap and compared with
          the combed pair.  Action tables fill in set-up, while every base
          pair is combed once; the pass then hits the caches.  No abelian
          layer.
cold_cli  one fresh `python3 -m braidcomb` process per operation: `comb`
          on short seeded words over G_6..G_8 and P_12, P_16, plus `verify
          --suite center`.  Every call pays import, presentation building
          and action-table fills, the cold path a CLI user pays.
homology  in-process H1 of G_n and P_n (optionally modulo one seeded
          relator), quotient_check, exactness_report,
          boundary_sum_identity and nonsplit_witness_s2.  The abelian and
          presentations layers dominate; combing barely appears.

A workload's setup() calls its `tick` argument between steps of a long
set-up, so the worker can sample the machine's speed there (calib.py).
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import braidcomb as bc

from paths import HERE, ROOT, child_env
from checks import (
    FAILED,
    OK,
    check_cli,
    check_group,
    check_quotient_report,
    check_report,
    check_same,
    h1_closed_form,
    parse_comb_output,
)

CATALOG = HERE / "cli_catalog.json"
CLI_TIMEOUT_S = 60


@dataclass
class Op:
    """One operation.  `call` looks library functions up when it runs, so
    a traced pass reaches the tracer's wrappers and an untraced pass the
    library's own functions."""

    group: str  # label the per-group outcome counts are kept under
    call: Callable[[], object]
    check: Callable[[object], str]


def presentation(group: str, n: int):
    return bc.orbit_presentation(n) if group == "gn" else bc.artin_presentation(n)


def random_word(rng: random.Random, generators, length: int):
    """A seeded word of `length` letters and the exponent-sum vector of the
    letters drawn."""
    exponents = [0] * len(generators)
    letters = []
    for _ in range(length):
        idx = rng.randrange(len(generators))
        sign = rng.choice((1, -1))
        exponents[idx] += sign
        letters.append(bc.Word((bc.Letter(generators[idx], sign),)))
    word = bc.IDENTITY
    for letter in letters:
        word = word * letter
    return word, exponents


# --- sweep ------------------------------------------------------------------

SWEEP_STRATA = (("gn", 3), ("gn", 4), ("pn", 5), ("pn", 6))
SWEEP_MAX_LEN = 10  # letters drawn per side of a pair
# Base pairs decided per stratum.  Every (|u|, |v|) in 1..SWEEP_MAX_LEN
# occurs equally often: the cost of a comb grows steeply with word length,
# and with lengths drawn at random the pass's total time varied by 7 % (sd)
# across eight seeds; with the lengths fixed and the letters drawn, by
# 2.5-4.7 % over two sets of eight and ten seeds.
SWEEP_PAIRS = 400
SWEEP_RELATORS = 2  # relators inserted into each base pair
SWEEP_CAP = 12_000  # intermediate word cap, as in the acceptance sweep


class Sweep:
    name = "sweep"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: list[Op] = []
        self.base_overcap: Counter = Counter()

    def setup(self, tick: Callable[[], None] = lambda: None) -> None:
        rng = random.Random(self.seed)
        for group, n in SWEEP_STRATA:
            p = presentation(group, n)
            gens = tuple(p.generators)
            relators = tuple(p.relators)
            label = f"{group}{n}"
            lengths = list(itertools.product(range(1, SWEEP_MAX_LEN + 1), repeat=2))
            decided = 0
            while decided < SWEEP_PAIRS:
                tick()
                len_u, len_v = lengths[decided % len(lengths)]
                u, _ = random_word(rng, gens, len_u)
                v, _ = random_word(rng, gens, len_v)
                try:
                    base = bc.comb(p, u * v, SWEEP_CAP)
                except bc.WordSizeExceededError:
                    self.base_overcap[label] += 1
                    continue  # new letters, same lengths
                decided += 1
                for r in rng.sample(relators, SWEEP_RELATORS):
                    word = u * r * v
                    self.ops.append(
                        Op(label, lambda p=p, w=word: bc.comb(p, w, SWEEP_CAP), partial(check_same, reference=base))
                    )
        rng.shuffle(self.ops)

    def post_check(self) -> list[str]:
        return []

    def report(self) -> dict:
        return {"base_pairs_over_cap": dict(self.base_overcap)}


# --- homology -----------------------------------------------------------------

# (group, n, operations): the first H1 of each presentation is plain, the
# rest add one seeded relator of at most HOMOLOGY_EXTRA_LEN letters.  The
# counts place the median and the p75 tail of a 48-operation pass inside a
# run of similar operations (G_4/P_6 and P_7), not on a jump between sizes.
HOMOLOGY_H1 = (("gn", 4, 11), ("gn", 5, 5), ("gn", 6, 1), ("pn", 6, 11), ("pn", 7, 9), ("pn", 8, 1))
HOMOLOGY_EXTRA_LEN = 6
HOMOLOGY_FIBRATION = (
    ("quotient_check", "rp2", 5),
    ("quotient_check", "rp2", 6),
    ("quotient_check", "s2", 6),
    ("quotient_check", "s2", 7),
    ("exactness_report", "s2", 7),
    ("exactness_report", "rp2", 7),
    ("boundary_sum_identity", "s2", 7),
    ("boundary_sum_identity", "rp2", 6),
)
HOMOLOGY_NONSPLIT = (6, 7)


class Homology:
    name = "homology"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: list[Op] = []

    def setup(self, tick: Callable[[], None] = lambda: None) -> None:
        rng = random.Random(self.seed)
        for group, n, count in HOMOLOGY_H1:
            tick()
            p = presentation(group, n)
            gens = tuple(p.generators)
            expected = h1_closed_form(len(gens))
            self.ops.append(Op(f"h1-{group}", lambda p=p: bc.h1(p), partial(check_group, expected=expected)))
            for _ in range(count - 1):
                w, exponents = random_word(rng, gens, rng.randint(1, HOMOLOGY_EXTRA_LEN))
                q = bc.quotient_by(p, [w])
                expected = h1_closed_form(len(gens), exponents)
                self.ops.append(Op(f"h1-{group}", lambda q=q: bc.h1(q), partial(check_group, expected=expected)))
        for func, surface_name, n in HOMOLOGY_FIBRATION:
            tick()
            surface = bc.Surface(surface_name)
            bc.fibre_presentation(surface, n)
            check = check_quotient_report if func == "quotient_check" else check_report
            self.ops.append(Op(func, lambda f=func, s=surface, n=n: getattr(bc, f)(s, n), check))
        for n in HOMOLOGY_NONSPLIT:
            self.ops.append(Op("nonsplit_witness_s2", lambda n=n: bc.nonsplit_witness_s2(n), check_report))
        rng.shuffle(self.ops)

    def post_check(self) -> list[str]:
        return []

    def report(self) -> dict:
        return {}


# --- cold_cli -----------------------------------------------------------------

# Calls per pass, by catalog kind.  Comb words are drawn without
# replacement from the catalog; the centre suite is deterministic.  Call
# costs (ms, 2-core Xeon VM, words drawn as make_catalog.py draws them)
# run center ~140 < gn6 130-340 ~ pn12 190-300 ~ gn7 170-310 (rarely
# more) < pn16 400-690, while gn8 spans 290-1170 with the word.  So gn8 gets few calls and pn16 many: the median of 42
# calls falls among gn6/gn7/pn12 and the p75 tail among the cheaper pn16
# calls, whichever words the seed picks.
CLI_PLAN = {
    "comb-gn6": 10,
    "comb-gn7": 6,
    "comb-gn8": 2,
    "comb-pn12": 8,
    "comb-pn16": 12,
    "center-3": 2,
    "center-4": 2,
}


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )


class ColdCli:
    name = "cold_cli"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: list[Op] = []
        self.trace_dir: Path | None = None  # set for the traced pass
        self.outputs: dict[tuple[str, ...], str] = {}
        self.children: list[dict] = []  # traced children's counters and spans

    def setup(self, tick: Callable[[], None] = lambda: None) -> None:
        catalog = json.loads(CATALOG.read_text())
        by_kind: dict[str, list[dict]] = {}
        for entry in catalog["entries"]:
            by_kind.setdefault(entry["kind"], []).append(entry)
        rng = random.Random(self.seed)
        for kind, count in CLI_PLAN.items():
            entries = by_kind[kind]
            picks = rng.sample(entries, min(count, len(entries)))
            for i in range(count):
                entry = picks[i % len(picks)]
                argv = tuple(entry["argv"])
                self.ops.append(Op(kind, partial(self.call, argv), partial(self.check, argv, entry["sha256"])))
        rng.shuffle(self.ops)

    def call(self, argv: tuple[str, ...]) -> subprocess.CompletedProcess:
        if self.trace_dir is None:
            return run_child(["-m", "braidcomb", *argv])
        out = self.trace_dir / f"cli-child-{len(self.children)}.json"
        done = run_child([str(HERE / "cli_child.py"), "--counters-out", str(out), "--", *argv])
        self.children.append(json.loads(out.read_text()))
        out.unlink()
        return done

    def check(self, argv: tuple[str, ...], expected_digest: str, answer: subprocess.CompletedProcess) -> str:
        outcome = check_cli(answer.returncode, answer.stdout, expected_digest)
        if outcome == OK and argv[0] == "comb":
            self.outputs[argv] = answer.stdout
        return outcome

    def post_check(self) -> list[str]:
        """Re-combing each printed normal form must reproduce it."""
        failures = []
        towers = {}
        for argv, stdout in sorted(self.outputs.items()):
            opts = dict(zip(argv[1::2], argv[2::2]))
            key = (opts["--group"], int(opts["--n"]))
            if key not in towers:
                towers[key] = presentation(*key)
            rows = parse_comb_output(stdout)
            word = bc.IDENTITY
            for _, text in rows:
                word = word * bc.parse_word(text)
            again = bc.comb(towers[key], word)
            redone = [(key[1] - i, bc.format_word(w)) for i, w in enumerate(again.levels)]
            if check_same(redone, rows) == FAILED:
                failures.append(f"re-combing the output of {' '.join(argv)} changed it")
        return failures

    def report(self) -> dict:
        return {"idempotence_checked": len(self.outputs)}


WORKLOADS = {cls.name: cls for cls in (Sweep, ColdCli, Homology)}
