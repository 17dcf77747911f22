"""Command-line front end: presentations, combing, verification suites,
abelianization, and the boundary calculus, with text or JSON output.

Exit codes are frozen for CI use: 0 success, 1 a verification check failed,
2 usage error (the message names the offending flag), 3 the input word
after ^k expansion, or an intermediate word, outgrew --word-cap (the
message names which word and carries its length).  All randomness flows
from a single generator seeded by --seed, and every randomized suite
prints its seed, so reports are byte-reproducible.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections.abc import Sequence
from typing import TextIO

from . import abelian, fibration
from .combing import NormalForm, center_check, comb, theta_decompose, words_equal
from .errors import (
    InvalidArgumentError,
    NoUnitCoordinateError,
    WordSizeExceededError,
)
from .presentations import (
    Presentation,
    TowerSpec,
    artin_presentation,
    element_Theta,
    export_presentation,
    orbit_presentation,
)
from .words import (
    DEFAULT_WORD_CAP,
    IDENTITY,
    GenFamily,
    Letter,
    Word,
    exponent_sum,
    format_word,
    orbit_gen,
    parse_word,
    reduce,
    word_power,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_WORD_CAP = 3

GROUPS = ("gn", "pn")
FORMATS = ("text", "json", "gap")

# Verification suites sample fewer words than the heavyweight acceptance
# battery so a CLI run stays interactive; the seed line makes any failure
# replayable at full fidelity.
SUITE_PAIRS = 25
SUITE_WORD_LENGTH = 16


class _UsageError(Exception):
    """A post-parse flag problem; the message names the offending flag."""


def _positive_int(text: str) -> int:
    """argparse type for --n and --word-cap; argparse names the flag."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidcomb",
        description="Combing normal forms and boundary calculus for braid towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pres = sub.add_parser("presentation", help="print a presentation of the chosen group")
    pres.add_argument("--group", choices=GROUPS, default="gn")
    pres.add_argument("--n", type=_positive_int, required=True)
    pres.add_argument("--format", dest="fmt", choices=FORMATS, default="text")

    cmb = sub.add_parser("comb", help="comb a word into its kernel-first normal form")
    cmb.add_argument("--group", choices=GROUPS, default="gn")
    cmb.add_argument("--n", type=_positive_int, required=True)
    cmb.add_argument("--word", required=True)
    cmb.add_argument("--word-cap", dest="word_cap", type=_positive_int, default=DEFAULT_WORD_CAP)
    cmb.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    ver = sub.add_parser("verify", help="run a verification suite; exit 0 iff all checks pass")
    ver.add_argument("--suite", choices=list(_SUITE_RUNNERS), required=True)
    ver.add_argument("--group", choices=GROUPS, default="gn")
    ver.add_argument("--surface", choices=("s2", "rp2"), default=None)
    ver.add_argument("--n", type=_positive_int, required=True)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--word-cap", dest="word_cap", type=_positive_int, default=DEFAULT_WORD_CAP)
    ver.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    ab = sub.add_parser("abelianize", help="print H1 of the chosen presentation")
    ab.add_argument("--group", choices=GROUPS, default="gn")
    ab.add_argument("--n", type=_positive_int, required=True)
    ab.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    bd = sub.add_parser("boundary", help="boundary images of the pi_2 basis, optionally abelianized")
    bd.add_argument("--surface", choices=("s2", "rp2"), required=True)
    bd.add_argument("--n", type=_positive_int, required=True)
    bd.add_argument("--abelianized", action="store_true")
    bd.add_argument("--strict-corollary", dest="strict_corollary", action="store_true")
    bd.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    return parser


def _presentation_for(group: str, n: int) -> Presentation:
    """The group's presentation, for the commands that print or read its
    relators."""
    return orbit_presentation(n) if group == "gn" else artin_presentation(n)


def _tower_for(group: str, n: int) -> TowerSpec:
    """The group's tower: all that combing reads."""
    return TowerSpec(GenFamily.ORBIT if group == "gn" else GenFamily.BAND, n)


def _parse_word_flag(text: str, word_cap: int) -> Word:
    try:
        return parse_word(text, word_cap)
    except InvalidArgumentError as exc:
        raise _UsageError(f"--word is not a valid word: {exc}") from exc


def _random_word(rng: random.Random, generators: Sequence, max_length: int) -> Word:
    if not generators:  # P_1 has no generators; only the identity is a word
        return IDENTITY
    return reduce(
        Letter(rng.choice(generators), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_length))
    )


def _print_result(fmt: str, out: TextIO, payload: dict, lines: Sequence[str]) -> None:
    """Print a command's result: the payload as one JSON object headed by
    its schema version, or the text lines one per print.  The only place
    that picks between --format text and json; presentation's formats, gap
    among them, are export_presentation's."""
    if fmt == "json":
        import json  # here only: a text call never reads it

        print(json.dumps({"schema_version": 1, **payload}, indent=2), file=out)
    else:
        for line in lines:
            print(line, file=out)


# --- commands -------------------------------------------------------------------


def cmd_presentation(ns: argparse.Namespace, out: TextIO) -> int:
    p = _presentation_for(ns.group, ns.n)
    print(export_presentation(p, ns.fmt), file=out)
    return EXIT_OK


def cmd_comb(ns: argparse.Namespace, out: TextIO) -> int:
    tower = _tower_for(ns.group, ns.n)
    normal_form = comb(tower, _parse_word_flag(ns.word, ns.word_cap), ns.word_cap)
    levels = [(k, format_word(w)) for k, w in zip(range(ns.n, 0, -1), normal_form.levels)]
    payload = {
        "group": ns.group,
        "n": ns.n,
        "word": ns.word,
        "levels": [{"level": k, "word": w} for k, w in levels],
    }
    _print_result(ns.fmt, out, payload, [f"level {k}: {w}" for k, w in levels])
    return EXIT_OK


def cmd_abelianize(ns: argparse.Namespace, out: TextIO) -> int:
    group = abelian.h1(_presentation_for(ns.group, ns.n))
    payload = {
        "group": ns.group,
        "n": ns.n,
        "free_rank": group.free_rank,
        "torsion": list(group.torsion),
    }
    _print_result(ns.fmt, out, payload, [str(group)])
    return EXIT_OK


def _element_json(e: fibration.FibreElement) -> dict:
    return {"r_part": format_word(e.r_part), "z_part": list(e.z_part)}


def cmd_boundary(ns: argparse.Namespace, out: TextIO) -> int:
    surface = fibration.Surface(ns.surface)
    basis = fibration.pi2_basis(surface, ns.n)
    images = {label: fibration.boundary_image(surface, ns.n, label) for label in basis}

    payload: dict = {
        "surface": surface.value,
        "n": ns.n,
        "labels": list(basis),
        "images": {label: _element_json(img) for label, img in images.items()},
    }
    lines = [f"{label} -> {img}" for label, img in images.items()]

    if ns.abelianized:
        matrix = fibration.boundary_matrix_ab(surface, ns.n)
        factors = abelian.smith_normal_form(matrix).d
        payload["matrix"] = matrix.to_rows()
        payload["snf"] = list(factors)
        lines.append("matrix (rows: loop slots, then generator classes; columns: basis):")
        lines.extend(f"  {row}" for row in matrix.to_rows())
        lines.append(f"SNF invariant factors: {tuple(factors)}")

    if ns.strict_corollary:
        final = basis[-1]
        terse = fibration.strict_corollary_image(surface, ns.n)
        gap = fibration.strict_corollary_discrepancy(surface, ns.n)
        payload["strict_corollary"] = {
            "final_label": final,
            "terse_image": _element_json(terse),
            "discrepancy": _element_json(gap),
            "agrees": gap.is_identity,
        }
        lines.append(f"strict-corollary form of {final}: {terse}")
        if gap.is_identity:
            lines.append("strict-corollary check: forms agree")
        else:
            lines.append(f"strict-corollary check: forms differ by {gap}")

    _print_result(ns.fmt, out, payload, lines)
    return EXIT_OK


# --- verification suites ----------------------------------------------------------

# A suite returns its (name, ok, detail) checks and whether it drew words
# from --seed.
_SuiteResult = tuple[list[tuple[str, bool, str]], bool]


def _suite_relators(ns: argparse.Namespace) -> _SuiteResult:
    rng = random.Random(ns.seed)
    p = _presentation_for(ns.group, ns.n)
    gens = p.generators
    pairs = [
        (_random_word(rng, gens, SUITE_WORD_LENGTH), _random_word(rng, gens, SUITE_WORD_LENGTH))
        for _ in range(SUITE_PAIRS)
    ]
    base_forms: dict[int, NormalForm] = {}  # pair index -> comb of u * v, at first use
    checks = []
    for idx, relator in enumerate(p.relators):
        bad = ""
        for i, (u, v) in enumerate(pairs):
            form = comb(p, u * relator * v, ns.word_cap)
            if i not in base_forms:
                base_forms[i] = comb(p, u * v, ns.word_cap)
            if form != base_forms[i]:
                bad = f"reproducer: {format_word(u * relator * v)}"
                break
        checks.append(
            (f"relator {idx}: insertion invariant over {SUITE_PAIRS} pairs", not bad, bad)
        )
    return checks, True


def _suite_center(ns: argparse.Namespace) -> _SuiteResult:
    if ns.group != "gn":
        raise _UsageError("--suite center applies to --group gn only")
    tower = _tower_for(ns.group, ns.n)
    failures = center_check(tower, word_cap=ns.word_cap).commutation_failures
    theta = element_Theta(ns.n)
    checks = []
    for g in tower.all_generators():
        ok = g not in failures
        detail = ""
        if not ok:
            detail = f"reproducer: {format_word(theta * Word((Letter(g),)) * theta.inverse())}"
        checks.append((f"{g}: conjugation by theta fixes the combed form", ok, detail))
    return checks, False


def _surfaces_for(ns: argparse.Namespace) -> list[fibration.Surface]:
    if ns.surface is not None:
        return [fibration.Surface(ns.surface)]
    return [fibration.Surface.S2, fibration.Surface.RP2]


def _suite_exactness(ns: argparse.Namespace) -> _SuiteResult:
    checks = []
    for surface in _surfaces_for(ns):
        report = fibration.exactness_report(surface, ns.n)
        tag = surface.value
        checks.append(
            (
                f"{tag} n={ns.n}: boundary matrix rank equals {ns.n}",
                report.injective,
                "" if report.injective else f"rank is {report.matrix_rank}",
            )
        )
        checks.append(
            (
                f"{tag} n={ns.n}: loop rows span the Z^{ns.n - 1} factor unimodularly",
                report.z_factor_saturated,
                "",
            )
        )
    return checks, False


def _suite_quotient(ns: argparse.Namespace) -> _SuiteResult:
    checks = []
    for surface in _surfaces_for(ns):
        report = fibration.quotient_check(surface, ns.n)
        checks.append(
            (
                f"{surface.value} n={ns.n}: cokernel {report.from_cokernel} "
                f"matches presentation H1 {report.from_presentation}",
                report.agree,
                "",
            )
        )
    return checks, False


def _suite_split(ns: argparse.Namespace) -> _SuiteResult:
    if ns.n < 2:
        raise _UsageError("--suite split needs --n of at least 2")
    # iota_sharp on pi_2: diagonal over RP^2 for every n, anti-diagonal over
    # S^2 at n = 2.
    vectors = [("diagonal", fibration.iota_sharp_vector(fibration.Surface.RP2, ns.n, 2))]
    if ns.n == 2:
        vectors.append(("anti-diagonal", fibration.iota_sharp_vector(fibration.Surface.S2, 2, 2)))
    coefficients = (
        ("Z", abelian.FGAbelianGroup(1)),
        ("Z/2", abelian.FGAbelianGroup(0, (2,))),
        ("Z x Z/2", abelian.FGAbelianGroup(1, (2,))),
        ("Z/3", abelian.FGAbelianGroup(0, (3,))),
    )
    checks = []
    for coeff_name, coeff in coefficients:
        for vec_name, vector in vectors:
            report = fibration.split_ses_check(coeff, ns.n, vector)
            checks.append(
                (
                    f"coeff {coeff_name}, {vec_name} n={ns.n}: "
                    f"section exact, quotient {report.quotient}",
                    report.ok,
                    "" if report.ok else f"expected quotient {report.expected}",
                )
            )
    return checks, False


def _suite_theta(ns: argparse.Namespace) -> _SuiteResult:
    if ns.group != "gn":
        raise _UsageError("--suite theta applies to --group gn only")
    rng = random.Random(ns.seed)
    tower = _tower_for(ns.group, ns.n)
    generators = tower.all_generators()
    theta = element_Theta(ns.n)
    kernel_functional = orbit_gen(1, 0)
    checks = []
    for idx in range(SUITE_PAIRS):
        w = _random_word(rng, generators, SUITE_WORD_LENGTH)
        exponent, remainder = theta_decompose(tower, w, ns.word_cap)
        power = word_power(theta, exponent)
        # Equal as words, Theta^exponent * remainder and w are equal in the
        # group; Theta is central, so the comparison combed fails only when
        # combing does.
        ok = (
            exponent_sum(remainder, kernel_functional) == 0
            and power * remainder == w
            and words_equal(tower, power * remainder, remainder * power, ns.word_cap)
        )
        checks.append(
            (
                f"word {idx}: theta exponent {exponent}, remainder in the kernel",
                ok,
                "" if ok else f"reproducer: {format_word(w)}",
            )
        )
    return checks, True


_SUITE_RUNNERS = {
    "relators": _suite_relators,
    "center": _suite_center,
    "exactness": _suite_exactness,
    "quotient": _suite_quotient,
    "split": _suite_split,
    "theta": _suite_theta,
}


def cmd_verify(ns: argparse.Namespace, out: TextIO) -> int:
    checks, randomized = _SUITE_RUNNERS[ns.suite](ns)
    all_ok = all(ok for _, ok, _ in checks)
    payload = {
        "suite": ns.suite,
        "n": ns.n,
        "seed": ns.seed if randomized else None,
        "ok": all_ok,
        "checks": [
            {"name": name, "ok": ok, **({"detail": detail} if detail else {})}
            for name, ok, detail in checks
        ],
    }
    lines = [f"seed: {ns.seed}"] if randomized else []
    for name, ok, detail in checks:
        suffix = f" ({detail})" if detail else ""
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    _print_result(ns.fmt, out, payload, lines)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


_COMMANDS = {
    "presentation": cmd_presentation,
    "comb": cmd_comb,
    "verify": cmd_verify,
    "abelianize": cmd_abelianize,
    "boundary": cmd_boundary,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed a message naming the flag
        return int(exc.code or 0)
    try:
        return _COMMANDS[ns.command](ns, sys.stdout)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WordSizeExceededError as exc:
        print(f"error: {exc}; raise --word-cap to proceed", file=sys.stderr)
        return EXIT_WORD_CAP
    except NoUnitCoordinateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except InvalidArgumentError as exc:
        print(f"error: {exc} (check --n and the other flag values)", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
