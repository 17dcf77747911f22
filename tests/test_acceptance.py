"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package and prints a
single PASS/FAIL line (visible under ``pytest -s``) before asserting, so a
full run doubles as a checklist.  Everything here is deterministic: random
words come from ``random.Random(0)`` and the combing engine is exact, so
the printed counts never vary between runs.

A note on the first criterion: combed normal forms grow exponentially in
the input length (the kernel subgroups of the tower are exponentially
distorted), so some random length-32 pair insertions would need normal
forms of 10^8 letters or more.  Those instances cannot be decided by any
engine that materializes words.  The suite therefore runs every instance
under an explicit word cap; instances whose intermediates exceed the cap
are counted and reported as undecided — never as passes — and the
criterion demands zero mismatches among the thousands of instances that
are decided exactly, with every relator exercised in many contexts.
"""

from __future__ import annotations

import random
import time

from braidcomb.abelian import (
    FGAbelianGroup,
    cokernel,
    h1,
    relation_matrix,
    smith_normal_form,
)
from braidcomb.cli import _random_word
from braidcomb.combing import (
    center_check,
    comb,
    project_qn,
    section_sprime,
    theta_decompose,
    words_equal,
)
from braidcomb.errors import WordSizeExceededError
from braidcomb.fibration import (
    Surface,
    boundary_matrix_ab,
    boundary_sum_identity,
    nonsplit_witness_s2,
    quotient_check,
    split_ses_check,
)
from braidcomb.presentations import element_Theta, orbit_presentation, quotient_by
from braidcomb.words import Letter, Word, exponent_sum, orbit_gen

SEED = 0
MAX_LEN = 32
# Shorter draw for checks that comb each side of an equality separately:
# combed forms of length-32 words routinely exceed a million letters, while
# length-12 words stay comfortably inside the default engine cap.
MAX_LEN_EQ = 12
PAIR_COUNT = 200
# Cap on intermediate word length for criterion 1.  With 12_000 the full
# 200-pair x every-relator sweep decides more than six thousand instances
# exactly (see module docstring) and takes about 14 s on a 2-core Xeon VM.
INSERTION_CAP = 12_000
# Coverage floors: the sweep must decide at least this many base pairs per
# n and at least this many contexts per relator, or the criterion fails.
MIN_BASE_DECIDED = 40
MIN_CONTEXTS_PER_RELATOR = 25


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {number:2d}. {description}"
    if detail:
        line += f" — {detail}"
    print(line, flush=True)
    assert ok, line


def _single(symbol) -> Word:
    return Word((Letter(symbol),))


def _theta_power(n: int, exponent: int) -> Word:
    theta = element_Theta(n)
    step = theta if exponent >= 0 else theta.inverse()
    out = Word(())
    for _ in range(abs(exponent)):
        out = out * step
    return out


# --- 1. relator-insertion invariance -----------------------------------


def test_01_relator_insertion_invariance() -> None:
    t0 = time.perf_counter()
    ok = True
    parts = []
    for n in (2, 3, 4):
        p = orbit_presentation(n)
        rng = random.Random(SEED)
        pairs = [
            (_random_word(rng, p.generators, MAX_LEN), _random_word(rng, p.generators, MAX_LEN))
            for _ in range(PAIR_COUNT)
        ]
        base = []
        for u, v in pairs:
            try:
                base.append((u, v, comb(p, u * v, word_cap=INSERTION_CAP)))
            except WordSizeExceededError:
                continue
        mismatches = undecided = decided = 0
        undecided_s = 0.0
        min_contexts = None
        for r in p.relators:
            contexts = 0
            for u, v, nf in base:
                started = time.perf_counter()
                try:
                    inserted = comb(p, u * r * v, word_cap=INSERTION_CAP)
                except WordSizeExceededError:
                    undecided += 1
                    undecided_s += time.perf_counter() - started
                    continue
                decided += 1
                contexts += 1
                if inserted != nf:
                    mismatches += 1
            min_contexts = contexts if min_contexts is None else min(min_contexts, contexts)
        ok = (
            ok
            and mismatches == 0
            and len(base) >= MIN_BASE_DECIDED
            and min_contexts is not None
            and min_contexts >= MIN_CONTEXTS_PER_RELATOR
        )
        parts.append(
            f"n={n}: {decided} decided, {mismatches} mismatches, "
            f"{undecided} over cap ({undecided_s:.1f}s), >= {min_contexts} contexts/relator"
        )
    detail = "; ".join(parts) + f" (cap {INSERTION_CAP}, {time.perf_counter() - t0:.1f}s)"
    _report(1, "relator insertion leaves combed forms unchanged", ok, detail)


# --- 2. centrality ------------------------------------------------------


def test_02_theta_conjugation_fixes_generators() -> None:
    checks = 0
    ok = True
    for n in range(1, 5):
        p = orbit_presentation(n)
        theta = element_Theta(n)
        for g in p.generators:
            gw = _single(g)
            ok = ok and comb(p, theta * gw * theta.inverse()) == comb(p, gw)
            checks += 1
    _report(2, "conjugation by Theta fixes every generator", ok, f"{checks} exact equalities, n <= 4")


# --- 3. non-centrality witnesses ----------------------------------------


def test_03_noncentral_generators_have_witnesses() -> None:
    witnessed = 0
    ok = True
    for n in (2, 3, 4):
        p = orbit_presentation(n)
        report = center_check(p)
        ok = ok and report.theta_commutes and report.all_witnessed
        ok = ok and not report.theta_powers
        witnessed += len(report.witnesses)
    _report(3, "every generator has a non-commuting witness", ok, f"{witnessed} witnesses, n in {{2,3,4}}")


# --- 4. first homology --------------------------------------------------


def test_04_h1_free_of_rank_n_squared() -> None:
    ok = True
    for n in range(1, 6):
        p = orbit_presentation(n)
        theta = element_Theta(n)
        ok = ok and not any(relation_matrix(p).entries)
        ok = ok and h1(p) == FGAbelianGroup(n * n)
        ok = ok and h1(quotient_by(p, [theta * theta])) == FGAbelianGroup(n * n - 1, (2,))
    _report(4, "H1 is Z^(n^2) and the Theta^2 quotient adds Z/2", ok, "n <= 5, relation matrices exactly zero")


# --- 5. boundary matrices at the smallest point count --------------------


def test_05_boundary_at_base_n() -> None:
    m_s2 = boundary_matrix_ab(Surface.S2, 3)
    m_rp2 = boundary_matrix_ab(Surface.RP2, 2)
    ok = (
        smith_normal_form(m_s2).d == (1, 1, 2)
        and cokernel(m_s2) == FGAbelianGroup(0, (2,))
        and smith_normal_form(m_rp2).d == (1, 2)
        and cokernel(m_rp2) == FGAbelianGroup(0, (2,))
    )
    _report(5, "boundary at n0 has SNF (1,1,2) / (1,2) with Z/2 cokernel", ok, "s2 n=3 and rp2 n=2")


# --- 6. word-level boundary sum -----------------------------------------


def test_06_boundary_sum_is_tau_hat_squared() -> None:
    checks = 0
    ok = True
    for surface in (Surface.S2, Surface.RP2):
        for n in range(surface.n0, 6):
            ok = ok and boundary_sum_identity(surface, n).ok
            checks += 1
    _report(6, "signed boundary images multiply to tau-hat squared", ok, f"{checks} checks, both surfaces, n <= 5")


# --- 7. quotient agreement ----------------------------------------------


def test_07_quotient_check_agrees() -> None:
    checks = 0
    ok = True
    for surface in (Surface.S2, Surface.RP2):
        for n in range(surface.n0, 6):
            ok = ok and quotient_check(surface, n).ok
            checks += 1
    _report(7, "cokernel of the boundary matches the twist-squared quotient", ok, f"{checks} checks, n <= 5")


# --- 8. diagonal splitting ----------------------------------------------


def test_08_diagonal_sequences_split() -> None:
    coeffs = (
        FGAbelianGroup(1),
        FGAbelianGroup(0, (2,)),
        FGAbelianGroup(1, (2,)),
        FGAbelianGroup(0, (3,)),
    )
    checks = 0
    ok = True
    for coeff in coeffs:
        for n in range(2, 6):
            diagonal = (1,) * n
            alternating = tuple((-1) ** i for i in range(n))
            for vector in (diagonal, alternating):
                ok = ok and split_ses_check(coeff, n, vector).ok
                checks += 1
    _report(8, "diagonal and alternating-sign sequences split", ok, f"{checks} checks over four coefficient groups")


# --- 9. non-splitting over the sphere ------------------------------------


def test_09_sphere_sequence_does_not_split() -> None:
    ok = all(nonsplit_witness_s2(n).ok for n in (3, 4, 5))
    _report(9, "sphere middle term is torsion-free but the quotient has Z/2", ok, "n in {3,4,5}")


# --- 10. section laws ----------------------------------------------------


def test_10_sections_invert_projection() -> None:
    ok = True
    words = 0
    for n in (2, 3, 4):
        low = orbit_presentation(n - 1)
        high = orbit_presentation(n)
        rng = random.Random(SEED)
        for _ in range(100):
            w = _random_word(rng, low.generators, MAX_LEN_EQ)
            ok = ok and words_equal(low, project_qn(w, n), w)
            ok = ok and words_equal(low, project_qn(section_sprime(w, n), n), w)
            words += 1
        ok = ok and words_equal(high, section_sprime(element_Theta(n - 1), n), element_Theta(n))
    _report(10, "both sections are right inverses of the projection", ok, f"{words} words per section, n <= 4; s' carries Theta up")


# --- 11. Theta decomposition ---------------------------------------------


def test_11_theta_decomposition_is_bijective() -> None:
    ok = True
    words = 0
    for n in range(1, 5):
        p = orbit_presentation(n)
        loop = orbit_gen(1, 0)
        rng = random.Random(SEED)
        for _ in range(200):
            w = _random_word(rng, p.generators, MAX_LEN_EQ)
            e, remainder = theta_decompose(p, w)
            ok = ok and e == exponent_sum(w, loop)
            ok = ok and exponent_sum(remainder, loop) == 0
            ok = ok and words_equal(p, _theta_power(n, e) * remainder, w)
            words += 1
    _report(11, "theta_decompose splits off the unique central power", ok, f"{words} words, n <= 4")
