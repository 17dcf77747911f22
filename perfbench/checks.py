"""Answer checks.  Each returns an outcome: OK, UNDECIDED (a typed refusal
such as a word-cap overflow) or FAILED (a wrong answer).

The checks read answers through duck typing only, so the benchmark's own
tests can hand them deliberately wrong values without involving the
library.  Closed forms are computed here from the benchmark's own inputs;
CLI output digests are a regression reference recorded from the seed
commit, not an independent oracle.
"""

from __future__ import annotations

import hashlib
from math import gcd

OK = "ok"
UNDECIDED = "undecided"
FAILED = "failed"

EXIT_WORD_CAP = 3  # the CLI's documented exit code for a word-cap refusal


def h1_closed_form(generator_count: int, exponent_vector=None) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion) of H1 for G_n or P_n, optionally modulo one extra
    relator with the given exponent-sum vector.

    Every defining relator of both towers is a conjugation relation, so the
    relation matrix is zero and H1 is free on the generators.  One extra
    relator with exponent vector e != 0 cuts this to Z^(m-1) + Z/gcd(e).
    """
    if exponent_vector is None or not any(exponent_vector):
        return generator_count, ()
    g = 0
    for e in exponent_vector:
        g = gcd(g, e)
    return generator_count - 1, ((g,) if g > 1 else ())


def check_group(group, expected: tuple[int, tuple[int, ...]]) -> str:
    free_rank, torsion = expected
    ok = group.free_rank == free_rank and tuple(group.torsion) == torsion
    return OK if ok else FAILED


def check_report(report) -> str:
    return OK if report.ok is True else FAILED


def check_quotient_report(report) -> str:
    """Both routes agree and the quotient keeps its Z/2."""
    ok = report.ok is True and 2 in tuple(report.from_cokernel.torsion)
    return OK if ok else FAILED


def check_same(answer, reference) -> str:
    return OK if answer == reference else FAILED


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_cli(returncode: int, stdout: str, expected_digest: str) -> str:
    if returncode == EXIT_WORD_CAP:
        return UNDECIDED
    if returncode != 0:
        return FAILED
    return OK if digest(stdout) == expected_digest else FAILED


def parse_comb_output(stdout: str) -> list[tuple[int, str]]:
    """The (level, word text) rows of `braidcomb comb` text output."""
    rows = []
    for line in stdout.splitlines():
        head, sep, word = line.partition(": ")
        if not sep or not head.startswith("level "):
            raise ValueError(f"unexpected comb output line {line!r}")
        rows.append((int(head[len("level "):]), word))
    return rows
