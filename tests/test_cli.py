"""CLI surface: subcommands, formats, exit codes, and seeded reproducibility."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from braidcomb import cli, combing
from braidcomb.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, EXIT_WORD_CAP, main
from braidcomb.combing import CenterReport, comb
from braidcomb.presentations import TowerSpec, orbit_presentation, parse_presentation
from braidcomb.words import GenFamily, format_word, orbit_gen, parse_word


def _tower_code(c, v):
    """The tower code, in the engine c, of the signed generator id v."""
    return len(c.symbols) + v


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- presentation ---------------------------------------------------------------


def test_presentation_pinned_example(capsys):
    code, out, _ = run(capsys, "presentation", "--group", "gn", "--n", "1", "--format", "text")
    assert code == EXIT_OK
    assert out == "generators: r(1,0)\n(no relators)\n"


def test_presentation_json_round_trips(capsys):
    code, out, _ = run(capsys, "presentation", "--group", "gn", "--n", "2", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["schema_version"] == 1
    assert parse_presentation(out, "json") == orbit_presentation(2)


def test_presentation_gap_format(capsys):
    code, out, _ = run(capsys, "presentation", "--group", "pn", "--n", "3", "--format", "gap")
    assert code == EXIT_OK
    assert out.startswith('F := FreeGroup("A_1_2", "A_1_3", "A_2_3");;')


def test_n_zero_is_usage_error(capsys):
    code, _, err = run(capsys, "presentation", "--group", "gn", "--n", "0")
    assert code == EXIT_USAGE
    assert "--n" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--n", "abc"), ("--word-cap", "1.5")],
    ids=["n", "word-cap"],
)
def test_a_non_integer_count_is_a_usage_error_naming_flag_and_value(capsys, flag, value):
    argv = {"--n": "2", "--word": "r(1,0)", "--word-cap": "10", flag: value}
    code, _, err = run(capsys, "comb", *[x for pair in argv.items() for x in pair])
    assert code == EXIT_USAGE
    assert flag in err and repr(value) in err


def test_unknown_flag_value_is_usage_error(capsys):
    code, _, err = run(capsys, "presentation", "--group", "qq", "--n", "1")
    assert code == EXIT_USAGE
    assert "--group" in err


# --- comb -----------------------------------------------------------------------


def test_comb_pinned_example(capsys):
    code, out, _ = run(capsys, "comb", "--group", "gn", "--n", "2", "--word", "r(1,0) r(2,0)")
    assert code == EXIT_OK
    assert out == "level 2: r(2,0)\nlevel 1: r(1,0)\n"


def test_comb_json(capsys):
    code, out, _ = run(
        capsys, "comb", "--group", "gn", "--n", "2", "--word", "r(2,1) r(1,0)", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["levels"][0]["level"] == 2
    assert [entry["word"] for entry in payload["levels"]] == ["r(2,1)", "r(1,0)"]


def test_comb_bad_word_names_the_flag(capsys):
    code, _, err = run(capsys, "comb", "--group", "gn", "--n", "2", "--word", "q(1,0)")
    assert code == EXIT_USAGE
    assert "--word" in err


def test_comb_refuses_a_letter_of_no_alphabet(capsys):
    code, out, err = run(capsys, "comb", "--n", "2", "--word", "p(1)")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--word is not a valid word" in err


def test_comb_word_cap_exit_code(capsys):
    code, _, err = run(
        capsys,
        "comb",
        "--group",
        "gn",
        "--n",
        "3",
        "--word",
        "r(3,4) r(1,0) r(3,3) r(2,1) r(3,2)^-1 r(2,2)",
        "--word-cap",
        "5",
    )
    assert code == EXIT_WORD_CAP
    assert "length 6" in err and "cap of 5" in err


def test_comb_refuses_an_over_cap_power_before_expanding_it(capsys):
    code, _, err = run(
        capsys, "comb", "--group", "gn", "--n", "2", "--word", "r(1,0)^1001", "--word-cap", "1000"
    )
    assert code == EXIT_WORD_CAP
    assert "input word of length 1001 exceeds the cap of 1000" in err


def test_comb_over_cap_reports_the_level(capsys):
    word = "r(1,0) r(3,4) r(3,2) r(3,4) r(1,0)^-1"
    code, out, err = run(
        capsys, "comb", "--group", "gn", "--n", "3", "--word", word, "--word-cap", "8"
    )
    assert code == EXIT_WORD_CAP
    assert out == ""
    # r(1,0)^-1 and r(1,0) mirror each other across the level-3 block, so
    # r(1,0) acts on the block alone and holds only itself beside it.
    assert "intermediate word of length 14 exceeds the cap of 8 at level 3" in err


def test_comb_word_cap_zero_is_usage_error(capsys):
    code, _, err = run(
        capsys, "comb", "--group", "gn", "--n", "2", "--word", "r(1,0)", "--word-cap", "0"
    )
    assert code == EXIT_USAGE
    assert "--word-cap" in err


def test_comb_rejects_gap_format(capsys):
    code, _, err = run(
        capsys, "comb", "--group", "gn", "--n", "2", "--word", "r(1,0)", "--format", "gap"
    )
    assert code == EXIT_USAGE
    assert "--format" in err


# --- the cold path reads only the tower --------------------------------------------


TOWER_ONLY_ARGVS = [
    ("comb", "--group", "gn", "--n", "4", "--word", "r(1,0) r(4,6)^-1 r(2,1) r(3,4) r(1,0)^-1"),
    ("comb", "--group", "pn", "--n", "6", "--word", "A(1,3)^-1 A(2,6) A(4,5) A(1,3)", "--format", "json"),
    ("verify", "--suite", "center", "--n", "3"),
    ("verify", "--suite", "theta", "--n", "3", "--seed", "11"),
]


@pytest.mark.parametrize("argv", TOWER_ONLY_ARGVS, ids=lambda argv: "-".join(argv[:3]))
def test_tower_only_commands_build_no_presentation(capsys, monkeypatch, argv, no_relators_built):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    monkeypatch.undo()
    assert run(capsys, *argv) == (EXIT_OK, out, "")


def test_comb_fills_the_top_level_of_g30_without_relators(capsys, no_relators_built):
    # r(29,31)^-1 acting on r(30,1) fills the inverse table at level 30.
    code, out, _ = run(
        capsys, "comb", "--group", "gn", "--n", "30", "--word", "r(29,31)^-1 r(30,1) r(29,31)"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"level {k}" for k in range(30, 0, -1)]
    assert all(line.endswith(": 1") for line in lines[1:])
    # Conjugating the image back by r(29,31) returns r(30,1).
    image = parse_word(lines[0].split(": ")[1])
    actor = parse_word("r(29,31)")
    back = comb(TowerSpec(GenFamily.ORBIT, 30), actor * image * actor.inverse())
    assert back.to_word() == parse_word("r(30,1)")


@pytest.mark.parametrize(
    "argv",
    [
        ("comb", "--group", "gn", "--n", "51", "--word", "r(1,0)"),
        ("comb", "--group", "pn", "--n", "72", "--word", "A(1,2)"),
        ("comb", "--group", "gn", "--n", "100000", "--word", "r(1,0)"),
        ("verify", "--suite", "center", "--n", "51"),
        ("verify", "--suite", "theta", "--n", "51"),
    ],
    ids=lambda argv: "-".join(argv[:5]),
)
def test_towers_past_the_generator_bound_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert "MAX_TOWER_GENERATORS=2500" in err


def test_tallest_towers_comb(capsys):
    code, out, _ = run(capsys, "comb", "--group", "gn", "--n", "50", "--word", "r(50,0)")
    assert code == EXIT_OK
    assert out.startswith("level 50: r(50,0)\nlevel 49: 1\n")
    code, out, _ = run(capsys, "comb", "--group", "pn", "--n", "71", "--word", "A(1,71)")
    assert code == EXIT_OK
    assert out.startswith("level 71: A(1,71)\nlevel 70: 1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("presentation", "--group", "gn", "--n", "15"),
        ("presentation", "--group", "pn", "--n", "21", "--format", "json"),
        ("verify", "--suite", "relators", "--group", "gn", "--n", "15"),
        ("verify", "--suite", "relators", "--group", "pn", "--n", "21"),
    ],
    ids=lambda argv: "-".join(argv[:5]),
)
def test_presentations_past_the_relator_bound_are_usage_errors(capsys, argv, no_relators_derived):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert "MAX_RELATORS=20000" in err


@pytest.mark.parametrize(
    "group, n, expected",
    [("gn", 15, "Z^225"), ("pn", 21, "Z^210"), ("gn", 50, "Z^2500"), ("pn", 71, "Z^2485")],
    ids=["gn-15", "pn-21", "gn-50", "pn-71"],
)
def test_abelianize_past_the_relator_bound(capsys, no_relators_derived, group, n, expected):
    # H1 reads no conjugation relator, so only the tower bound applies.
    code, out, err = run(capsys, "abelianize", "--group", group, "--n", str(n))
    assert (code, out, err) == (EXIT_OK, expected + "\n", "")


@pytest.mark.parametrize(
    "surface, tallest, expected",
    [("rp2", 51, "Z^2499 x Z/2"), ("s2", 72, "Z^2484 x Z/2")],
    ids=["rp2", "s2"],
)
def test_quotient_suite_runs_up_to_the_tower_bound(
    capsys, no_relators_derived, surface, tallest, expected
):
    code, out, _ = run(capsys, "verify", "--suite", "quotient", "--surface", surface, "--n", str(tallest))
    assert code == EXIT_OK
    assert out == f"PASS {surface} n={tallest}: cokernel {expected} matches presentation H1 {expected}\n"


# --- abelianize -----------------------------------------------------------------


def test_abelianize_text_and_json(capsys):
    code, out, _ = run(capsys, "abelianize", "--group", "gn", "--n", "2")
    assert code == EXIT_OK
    assert out == "Z^4\n"

    code, out, _ = run(capsys, "abelianize", "--group", "pn", "--n", "3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["free_rank"] == 3
    assert payload["torsion"] == []


# --- the abelian path's bytes -----------------------------------------------------


def _abelian_path_argvs():
    for n in range(1, 7):
        for fmt in ("text", "json"):
            tail = ("--n", str(n), "--format", fmt)
            for group in ("gn", "pn"):
                yield ("abelianize", "--group", group, *tail)
            for surface in ("s2", "rp2"):
                yield ("boundary", "--surface", surface, "--abelianized", *tail)
                yield ("boundary", "--surface", surface, "--abelianized", "--strict-corollary", *tail)
            for suite in ("exactness", "quotient", "split"):
                yield ("verify", "--suite", suite, *tail)


# argv -> (exit code, sha256 of stdout) for every abelianize, abelianized
# boundary and exactness/quotient/split run at n = 1..6.  A change to the
# abelian layer, the presentations or the boundary calculus that alters one
# printed byte or exit code shows here.
PINNED_ABELIAN_PATH_SHA256 = {
    "abelianize --group gn --n 1 --format text": (0, "9602df4a88f4c33c1efdf244d247adea280e7170b6495cb3cca4a47fd058177a"),
    "abelianize --group pn --n 1 --format text": (0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    "boundary --surface s2 --abelianized --n 1 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "boundary --surface s2 --abelianized --strict-corollary --n 1 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "boundary --surface rp2 --abelianized --n 1 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "boundary --surface rp2 --abelianized --strict-corollary --n 1 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --suite exactness --n 1 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --suite quotient --n 1 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --suite split --n 1 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "abelianize --group gn --n 1 --format json": (0, "0ca7f8bcc9fbc3ec88469d20ee0f0c55dde4649d5015c20a3d8a0b9fb8d7b483"),
    "abelianize --group pn --n 1 --format json": (0, "ddb8069addfb9586a3b7b4e1a2bdad7bc8c77f5e17a9d78cb6fb23c7c1f219fc"),
    "boundary --surface s2 --abelianized --n 1 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "boundary --surface s2 --abelianized --strict-corollary --n 1 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "boundary --surface rp2 --abelianized --n 1 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "boundary --surface rp2 --abelianized --strict-corollary --n 1 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --suite exactness --n 1 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --suite quotient --n 1 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --suite split --n 1 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "abelianize --group gn --n 2 --format text": (0, "802d286065a8e1da4955c010c30d7232e44f0f9f21672dbd56bb2e6986b7c76b"),
    "abelianize --group pn --n 2 --format text": (0, "9602df4a88f4c33c1efdf244d247adea280e7170b6495cb3cca4a47fd058177a"),
    "boundary --surface s2 --abelianized --n 2 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "boundary --surface s2 --abelianized --strict-corollary --n 2 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "boundary --surface rp2 --abelianized --n 2 --format text": (0, "fdcbbeee7a1b451139e721b650bf8d6ce20451a8d57e966b427cdb68f6d076e1"),
    "boundary --surface rp2 --abelianized --strict-corollary --n 2 --format text": (0, "81a997df1b3b1c175b7cb0406fd68aa1eb569486371d42082075dbf662f59675"),
    "verify --suite exactness --n 2 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --suite quotient --n 2 --format text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --suite split --n 2 --format text": (0, "230fa71b8300e2bfed973e24fe5b7dc1b2fc4950a7631e89bb4ed1a80009f060"),
    "abelianize --group gn --n 2 --format json": (0, "5ca090a0cae04e0d23a9be4dc23cae6bbfcf351e20fb295cc2eebab743780136"),
    "abelianize --group pn --n 2 --format json": (0, "44605f06481f74500f4039c11d601fdd567e4d6164d87e94543599873b342246"),
    "boundary --surface s2 --abelianized --n 2 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "boundary --surface s2 --abelianized --strict-corollary --n 2 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "boundary --surface rp2 --abelianized --n 2 --format json": (0, "bc0158dce17d1c978ea26f6825ab4499a9584ef1dbdcd98c2ac74791ffe70cb2"),
    "boundary --surface rp2 --abelianized --strict-corollary --n 2 --format json": (0, "2b6cd090ba65e8121df20cd8053d16c3acd710a63019f779ef01b009c1ea0405"),
    "verify --suite exactness --n 2 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --suite quotient --n 2 --format json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --suite split --n 2 --format json": (0, "4b5f10eb50706f7ed4995104137e2da6730eccb849d59da7d7a80676ae26e91f"),
    "abelianize --group gn --n 3 --format text": (0, "74b8f7cdc346a5d1ba0afd7403e261e75d532eb48129e93dabb6f980f494092d"),
    "abelianize --group pn --n 3 --format text": (0, "7b6df1f46f3252fd06052d22095235d16c940c875fac796ea4909f982a605337"),
    "boundary --surface s2 --abelianized --n 3 --format text": (0, "80a7476a29375c4ebdee451399f5669effa8a9942d25ec75b867605c666afe9a"),
    "boundary --surface s2 --abelianized --strict-corollary --n 3 --format text": (0, "4d02a877f20e843189f718e80c60b60ebd69ec73559659c1c49a14b0c8707f7f"),
    "boundary --surface rp2 --abelianized --n 3 --format text": (0, "d6d4c485f87c634f8070c487af72632304bb9c013dd91b2d4c769db2a3bc9949"),
    "boundary --surface rp2 --abelianized --strict-corollary --n 3 --format text": (0, "661c9d888e9e3b931cd62f395182b66a2e12d18e76fbfb8b6f6a2154ee8a98a2"),
    "verify --suite exactness --n 3 --format text": (0, "9169cdd7f847eb08dbfabec5593d168c87e03256d82235c70be412472bf8c66e"),
    "verify --suite quotient --n 3 --format text": (0, "65d54744f260433e164fbaecc0cd9a6164f176668cf5df7dd0d7145529ae1dc2"),
    "verify --suite split --n 3 --format text": (0, "c502118c9432485f6702da41e22786838a65c1689a34035d0eed1472a62a1bfc"),
    "abelianize --group gn --n 3 --format json": (0, "1311f6a1608dd58619bcc70c1002fc9e096215a6184a4ebfcb146eb458a59b29"),
    "abelianize --group pn --n 3 --format json": (0, "69ff538fc679949d06a3232069101c86c2e547de34bc7d8c8c4aeb56209baf31"),
    "boundary --surface s2 --abelianized --n 3 --format json": (0, "1178522ff2a928b11c3c8cc43cc415e6ce1794ca7972cab08f652b520b26bb29"),
    "boundary --surface s2 --abelianized --strict-corollary --n 3 --format json": (0, "ff5a28781c720b6f38a7507d900b869b3d63bb84b686598ec80aa88a1fee8f58"),
    "boundary --surface rp2 --abelianized --n 3 --format json": (0, "84028916a08ce1adfea856970e4f41b0a3dbeb573a041bf813e34b50d31232b0"),
    "boundary --surface rp2 --abelianized --strict-corollary --n 3 --format json": (0, "db2c3aa1aa746b8a1acb495939dfefd053ee38bf256409ff8feca341220c04f3"),
    "verify --suite exactness --n 3 --format json": (0, "49a90ed53b84fa73b216e2f80bc97636d96b61ecc9f05f6784c426b162e5c0b4"),
    "verify --suite quotient --n 3 --format json": (0, "3b409b0c9857e561c298410d6df8d9b75fe0959d4588a9357c4af72413f69ba1"),
    "verify --suite split --n 3 --format json": (0, "f056e409c4cd15ce46932fcdad611a6ca524a032f4320749ad5adaa6e5c552ad"),
    "abelianize --group gn --n 4 --format text": (0, "e46910f93700e6dfb395e166db5a0c3a6e224fc0b5187cad5b2ab1e03f632c69"),
    "abelianize --group pn --n 4 --format text": (0, "da5cea79ab8b49a7a9a36a6b80c03a779b2ca14f59ab18a89af8cf037dcb45ea"),
    "boundary --surface s2 --abelianized --n 4 --format text": (0, "7014e33f6f50d7942e37d1fb7d484b8200ac76c18d1247bd623fa644ae99b249"),
    "boundary --surface s2 --abelianized --strict-corollary --n 4 --format text": (0, "8f308904d0ddccd0d163ac52445dfc49f8bf769e5582bcdc789c1486c8bbd20b"),
    "boundary --surface rp2 --abelianized --n 4 --format text": (0, "ea26d00ee19cc8617b2da43cfc89dfe3b621b4ba57b5d2929739cdf707d40eee"),
    "boundary --surface rp2 --abelianized --strict-corollary --n 4 --format text": (0, "e701c7944f9b40f0206cc07860628e2830717fd1bba2291cf1fa90f713c4ce0d"),
    "verify --suite exactness --n 4 --format text": (0, "e26b33fbc8234508cc858f1eb9e15403237b900150ba082e3ab4fbc92d29fa1a"),
    "verify --suite quotient --n 4 --format text": (0, "b4734f09c9ce61c821d5be18a3cd4416e287c45a307ce2e381e5462b91e9e6cc"),
    "verify --suite split --n 4 --format text": (0, "70f2c385221257a890fa7f3700b8a424dcd6006048eeda1dacc724ebdae79a85"),
    "abelianize --group gn --n 4 --format json": (0, "1d12413834bd2e65cd706badd9b0f0a6d413a7534c0f238c5e44970d2fd2925c"),
    "abelianize --group pn --n 4 --format json": (0, "58f7bceb851ca05835c3e98c450a96e42b900ab7427b42a63f356cbf114e7983"),
    "boundary --surface s2 --abelianized --n 4 --format json": (0, "d69fc4bedd1685014f70849fe2c71d77844c4d5729b92892c0da4aa715457f25"),
    "boundary --surface s2 --abelianized --strict-corollary --n 4 --format json": (0, "c75b78947a39e8695c568f8c50308bb06d3b4db789ba1207816a46e161268264"),
    "boundary --surface rp2 --abelianized --n 4 --format json": (0, "25f1104ec73567db02a68930c04af99742bcc6bfdd585cabd09a113c6694eb21"),
    "boundary --surface rp2 --abelianized --strict-corollary --n 4 --format json": (0, "b4a7cd11b8fc83c4c82451156dd53f04e2ca46222def50daace7573c38aa3a16"),
    "verify --suite exactness --n 4 --format json": (0, "6fed6dc26a5c3684f5671857dfd0d66654bf03c57d7af5c9f7747fb71cdbb371"),
    "verify --suite quotient --n 4 --format json": (0, "515629aa3aa3dad78443d2561aa02011c7aa5fc4adc9303baad7c95231886921"),
    "verify --suite split --n 4 --format json": (0, "36d64f2612cc6ebf02ef4a5b3051d05b713a56732715cf02daeefa4c82fde9af"),
    "abelianize --group gn --n 5 --format text": (0, "57d97c17953ae650e20697ab9e985717ef27ffac2d7735f65bbcadf8302a74ef"),
    "abelianize --group pn --n 5 --format text": (0, "f0f78c3dfd06be0e9a14e56ba3763dd191f3214885cdb7807dd9d2300eaf01f0"),
    "boundary --surface s2 --abelianized --n 5 --format text": (0, "ba2f5ff642ce52bb4e2677e80b073ac4ff1ac06163a2f3ab98e82c47d4e0e72e"),
    "boundary --surface s2 --abelianized --strict-corollary --n 5 --format text": (0, "20503574e0f3f870047f5b35f210ed9dd85efac6f452d30914f24ddf745f3a01"),
    "boundary --surface rp2 --abelianized --n 5 --format text": (0, "7a6a6e2e746590120b4ba4e236e0b4e95bdaa7f596cb3f38f078fe6985469766"),
    "boundary --surface rp2 --abelianized --strict-corollary --n 5 --format text": (0, "87ef727e9d2af436606880a6f99e1b3f15054cfd47e2170ca8c51097ee413212"),
    "verify --suite exactness --n 5 --format text": (0, "d2eec2bb65b85a2212f89d23d54b324c4fa5e3b06a0a03bfb94ac1eb4f264ccd"),
    "verify --suite quotient --n 5 --format text": (0, "9da73f1ab3d261702b276946853ab7252efb7928386228d9af0ad608ea62d04e"),
    "verify --suite split --n 5 --format text": (0, "d980aa4bf8620e110dce2a3c21f262a6cd00ee06b356d2d5abe8218e88eba7d1"),
    "abelianize --group gn --n 5 --format json": (0, "36bed1941e5dc2a3e9ae312cd52a17eb115268b0daa96f82a0c4409b573cb432"),
    "abelianize --group pn --n 5 --format json": (0, "114c510f34e7c57f17e9d9598b3ccc294db5f126e1494b0c6a9a2ccf192efbf2"),
    "boundary --surface s2 --abelianized --n 5 --format json": (0, "9809c48a687e89229c71cfee880bcd9fd7d1d28e514a4d7089f1de95177c65dd"),
    "boundary --surface s2 --abelianized --strict-corollary --n 5 --format json": (0, "ac46286e33ea5c612c00ee9597209d6ea232bccf0da6eba69b841a62ae3e3f42"),
    "boundary --surface rp2 --abelianized --n 5 --format json": (0, "e124ebbfbc7432cee8ce69ffa12721c537ed6027d97ac47efc205b25bbfc7bb1"),
    "boundary --surface rp2 --abelianized --strict-corollary --n 5 --format json": (0, "298ce4606fdae0d8d2309fe109d71156222e5740148410e1225a27eeadf9b17d"),
    "verify --suite exactness --n 5 --format json": (0, "ddd88d6865850bca3c8b71fa513221aa293f2f22fee431c5f281e6b1598a024e"),
    "verify --suite quotient --n 5 --format json": (0, "90f4c66dac24d826ebf8d242809f56f00b1bb19dc26d2ec6869dff516e8b43b2"),
    "verify --suite split --n 5 --format json": (0, "5b99f9e689913ae372e896689d92fb5352bcf862010495f0ae24bc1e3bc9c6bf"),
    "abelianize --group gn --n 6 --format text": (0, "d0264199ff0fa7b11d478f965df33041ef278273b33ac926476d797a8cf2acf8"),
    "abelianize --group pn --n 6 --format text": (0, "dc1198f5a402944bb2aa3dcb02239640c177b754adab162682f3584cbef47e32"),
    "boundary --surface s2 --abelianized --n 6 --format text": (0, "7bc11328ca5a65807961245655ef3a3db5c076e54d063789c663e9882c5a7b89"),
    "boundary --surface s2 --abelianized --strict-corollary --n 6 --format text": (0, "f3fda71013d4ecc66ee8070a8b4e25f9b0ed1267bbfa1723d684898973fdcbd4"),
    "boundary --surface rp2 --abelianized --n 6 --format text": (0, "bba9a5795a0cdf10187e690b7b13e60c14d8cb4148ce2795eab1e57ad6fafa46"),
    "boundary --surface rp2 --abelianized --strict-corollary --n 6 --format text": (0, "f47c41d3c3112f7de2287e480abbbcd12fa7740daa2c46f003ace3e5c4006b4c"),
    "verify --suite exactness --n 6 --format text": (0, "af571814792573459d85c84f4724ec086ef6aec5206abcea25690cb5db65cb48"),
    "verify --suite quotient --n 6 --format text": (0, "c4a90358a2366daa297bf81a731203d7cb8e2605d998f5727cab08a2f99ed0bd"),
    "verify --suite split --n 6 --format text": (0, "df906898b08ce497258ec049163fd72c70424284663a2a53cf0fd33e18ce8bf9"),
    "abelianize --group gn --n 6 --format json": (0, "8c3a80133f1a38b02e1c1d97daae7574508d7a94c9acb2d7e3ff544abdc35b72"),
    "abelianize --group pn --n 6 --format json": (0, "31ab20dac4842e9668cb47cb71e4d09d91d208a9f10edbca038242afae1d4969"),
    "boundary --surface s2 --abelianized --n 6 --format json": (0, "8cd9a6577eea9717a35d73d27da496fe33064c3e27432b7ec3d1e13f50c4e8d0"),
    "boundary --surface s2 --abelianized --strict-corollary --n 6 --format json": (0, "9a7d97c110f7ec264537708edcc7040de203508f1f8268a0afef126555363747"),
    "boundary --surface rp2 --abelianized --n 6 --format json": (0, "5b067149da5db3b4214fc75bb48c16e015b92014596dd07d32877734d0965310"),
    "boundary --surface rp2 --abelianized --strict-corollary --n 6 --format json": (0, "ca8209d66fc7fb8e0610a94650e9ed7a8767f7b402649428525cfc0274de240c"),
    "verify --suite exactness --n 6 --format json": (0, "07750e43edbe56415afc3867ea9671a7cf57ebe193971d827542c941a920d18b"),
    "verify --suite quotient --n 6 --format json": (0, "0335739b6e4ac3973ce23fb453782ef2a516d0a92155641be57ce4af014eedb8"),
    "verify --suite split --n 6 --format json": (0, "4d12d8f3b883be9e7ad5fce3acd18232fe14fc1b2998a7cc10285204db5d11d0"),
}


def test_abelian_path_output_is_pinned(capsys):
    seen = {}
    for argv in _abelian_path_argvs():
        code = main(list(argv))
        out = capsys.readouterr().out
        seen[" ".join(argv)] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert seen == PINNED_ABELIAN_PATH_SHA256


# --- every command's bytes ----------------------------------------------------------


_PINNED_COMB_WORDS = {
    ("gn", 1): "r(1,0)^3 r(1,0)^-1",
    ("gn", 2): "r(2,1) r(1,0) r(2,2)^-1 r(1,0)^-1 r(2,0)",
    ("gn", 3): "r(3,2) r(1,0) r(2,1)^-1 r(3,4) r(2,2) r(1,0)^-2 r(3,0)",
    ("gn", 4): "r(4,6) r(2,1) r(3,4)^-1 r(1,0) r(4,2) r(2,2)^-1 r(3,1)",
    ("pn", 1): "1",
    ("pn", 2): "A(1,2)^2 A(1,2)^-1",
    ("pn", 3): "A(2,3) A(1,2)^-1 A(1,3) A(1,2) A(2,3)^-2",
    ("pn", 4): "A(3,4) A(1,2) A(2,4)^-1 A(1,3) A(1,4) A(2,3)^-1 A(1,2)^-1",
}


# Numbers past Python's int-string limit of 4,300 digits.
_HUGE_DIGIT_WORDS = ("r(2,1)^" + "9" * 5000, "r(" + "9" * 5000 + ",0)")


def _pinned_cli_argvs():
    for n in range(1, 5):
        for fmt in ("text", "json"):
            tail = ("--n", str(n), "--format", fmt)
            for group in ("gn", "pn"):
                yield ("comb", "--group", group, "--word", _PINNED_COMB_WORDS[group, n], *tail)
                yield ("abelianize", "--group", group, *tail)
                for suite in ("relators", "center", "exactness", "quotient", "split", "theta"):
                    yield ("verify", "--suite", suite, "--group", group, *tail)
    for n in range(1, 6):
        for fmt in ("text", "json"):
            for surface in ("s2", "rp2"):
                for flags in ((), ("--abelianized",), ("--strict-corollary",)):
                    yield ("boundary", "--surface", surface, *flags, "--n", str(n), "--format", fmt)
                yield (
                    "boundary", "--surface", surface, "--abelianized", "--strict-corollary",
                    "--n", str(n), "--format", fmt,
                )
    for fmt in ("text", "json"):
        yield ("verify", "--suite", "relators", "--n", "2", "--seed", "7", "--format", fmt)
        yield ("verify", "--suite", "theta", "--n", "3", "--seed", "7", "--format", fmt)
        yield ("verify", "--suite", "split", "--surface", "rp2", "--n", "2", "--format", fmt)
        yield ("verify", "--suite", "quotient", "--surface", "s2", "--n", "3", "--format", fmt)
        # Over the word cap: the input word, a power, an intermediate word.
        yield ("comb", "--n", "3", "--word", _PINNED_COMB_WORDS["gn", 3], "--word-cap", "5", "--format", fmt)
        yield ("comb", "--n", "2", "--word", "r(1,0)^1001", "--word-cap", "1000", "--format", fmt)
        yield (
            "comb", "--n", "3", "--word", "r(1,0) r(3,4) r(3,2) r(3,4) r(1,0)^-1",
            "--word-cap", "8", "--format", fmt,
        )
        yield ("verify", "--suite", "relators", "--n", "3", "--word-cap", "2", "--format", fmt)
        yield ("verify", "--suite", "theta", "--n", "3", "--word-cap", "2", "--format", fmt)
        # Words that do not parse, or lie outside the tower.
        for word in ("q(1,0)", "p(1)", "A(1,2)", "r(4,0)", "r(1,0", *_HUGE_DIGIT_WORDS):
            yield ("comb", "--n", "3", "--word", word, "--format", fmt)
        yield ("comb", "--group", "pn", "--n", "3", "--word", "A(1,4)", "--format", fmt)
    # Flags argparse refuses.
    yield ("comb", "--n", "2", "--word", "r(1,0)", "--format", "gap")
    yield ("verify", "--suite", "nosuch", "--n", "2")
    yield ("abelianize", "--group", "qq", "--n", "2")
    yield ("boundary", "--surface", "s2", "--n", "0")


# argv -> (exit code, sha256 of stdout, sha256 of stderr with each run of
# whitespace as one space) for comb, abelianize and every verify suite over
# both groups at n = 1..4, boundary with every flag combination at n = 1..5,
# in both formats, and for over-cap, unparsable and refused inputs.
# Recorded before the commands shared one printer; any byte the CLI changes
# shows here, and any stderr token.
PINNED_CLI_SHA256 = {
    'comb --group gn --word r(1,0)^3 r(1,0)^-1 --n 1 --format text': (0, 'c3a98e18132ba17b8b288e18c1f99980ede65eaf2dddbebd3b1914a2b5076d5d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group gn --n 1 --format text': (0, '9602df4a88f4c33c1efdf244d247adea280e7170b6495cb3cca4a47fd058177a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group gn --n 1 --format text': (0, '6a5a163cfb9d8459f178db8f04e1c14b22f30c274c8d68e806c982e03e48bbe3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite center --group gn --n 1 --format text': (0, '1f1d31faf81157970a8774db9333ac5210d16984e0496cc7e1808377aa6f7889', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite exactness --group gn --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'verify --suite quotient --group gn --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'verify --suite split --group gn --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '260c0a81fb42f5b235c336198c0e474bf48dcea7bbb0aec72465bcc7ebdafd5d'),
    'verify --suite theta --group gn --n 1 --format text': (0, 'cbaa854d8037a55359728c536c060452b78da6343bd0273dc71db801fff57720', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'comb --group pn --word 1 --n 1 --format text': (0, '319bf26f77233cb29e996ed996954ef98b34d1592a9dec99633c8655d8ae7259', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group pn --n 1 --format text': (0, '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group pn --n 1 --format text': (0, '6a5a163cfb9d8459f178db8f04e1c14b22f30c274c8d68e806c982e03e48bbe3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite center --group pn --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e9f77eb9f1949a34e406d0fc48f0aae2d3358fe6d60e2a12d21016c6677a7597'),
    'verify --suite exactness --group pn --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'verify --suite quotient --group pn --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'verify --suite split --group pn --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '260c0a81fb42f5b235c336198c0e474bf48dcea7bbb0aec72465bcc7ebdafd5d'),
    'verify --suite theta --group pn --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '859ef3d90841c78caaa7a6e26ff437766ce345c41ad929f5ffe5dfa0eb06cdf2'),
    'comb --group gn --word r(1,0)^3 r(1,0)^-1 --n 1 --format json': (0, '58768e285b6af0dfce6347b45df731b233cc6858e5ee415928aa8bdf547fcaa2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group gn --n 1 --format json': (0, '0ca7f8bcc9fbc3ec88469d20ee0f0c55dde4649d5015c20a3d8a0b9fb8d7b483', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group gn --n 1 --format json': (0, '3185a96c1e733569e2f82547ae364d33076d6e73812d35fa0b8978d840f7540e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite center --group gn --n 1 --format json': (0, 'e0022eb54712cf9cefd0254a2d75553b311a1b1670c137fb8d86b33bebd01f81', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite exactness --group gn --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'verify --suite quotient --group gn --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'verify --suite split --group gn --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '260c0a81fb42f5b235c336198c0e474bf48dcea7bbb0aec72465bcc7ebdafd5d'),
    'verify --suite theta --group gn --n 1 --format json': (0, 'e14ede2efcfaad459fc1ec659bdc27fb440cc821d08c342c571b86b4685fb490', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'comb --group pn --word 1 --n 1 --format json': (0, '8ca94b11fcccc30b792aa9c708d66607a3680d866b5548d1475f0444bc0f4a53', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group pn --n 1 --format json': (0, 'ddb8069addfb9586a3b7b4e1a2bdad7bc8c77f5e17a9d78cb6fb23c7c1f219fc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group pn --n 1 --format json': (0, '3185a96c1e733569e2f82547ae364d33076d6e73812d35fa0b8978d840f7540e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite center --group pn --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e9f77eb9f1949a34e406d0fc48f0aae2d3358fe6d60e2a12d21016c6677a7597'),
    'verify --suite exactness --group pn --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'verify --suite quotient --group pn --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'verify --suite split --group pn --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '260c0a81fb42f5b235c336198c0e474bf48dcea7bbb0aec72465bcc7ebdafd5d'),
    'verify --suite theta --group pn --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '859ef3d90841c78caaa7a6e26ff437766ce345c41ad929f5ffe5dfa0eb06cdf2'),
    'comb --group gn --word r(2,1) r(1,0) r(2,2)^-1 r(1,0)^-1 r(2,0) --n 2 --format text': (0, '6ee28ee53363e8e0e5debde75057e205856839edc5f3f77d922cebc065fa6bde', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group gn --n 2 --format text': (0, '802d286065a8e1da4955c010c30d7232e44f0f9f21672dbd56bb2e6986b7c76b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group gn --n 2 --format text': (0, 'cf670b079aa3bfeb8c64086d8aa7650000b0213956d35ca77710d9f304a4c085', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite center --group gn --n 2 --format text': (0, '84f618c292293e3d9eea0468851c989075a8294d5f80a6f30a4629aa0f0485c5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite exactness --group gn --n 2 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'verify --suite quotient --group gn --n 2 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'verify --suite split --group gn --n 2 --format text': (0, '230fa71b8300e2bfed973e24fe5b7dc1b2fc4950a7631e89bb4ed1a80009f060', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite theta --group gn --n 2 --format text': (0, 'd6358a7a77e83af28b8ac5ca2bc95fd5f81dabae8e61256ff2223d4bf9129e41', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'comb --group pn --word A(1,2)^2 A(1,2)^-1 --n 2 --format text': (0, '4ca343fb3ca9be90117c697dd879cd3ed3153cc02e329eda65d40ec305414dcc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group pn --n 2 --format text': (0, '9602df4a88f4c33c1efdf244d247adea280e7170b6495cb3cca4a47fd058177a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group pn --n 2 --format text': (0, '6a5a163cfb9d8459f178db8f04e1c14b22f30c274c8d68e806c982e03e48bbe3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite center --group pn --n 2 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e9f77eb9f1949a34e406d0fc48f0aae2d3358fe6d60e2a12d21016c6677a7597'),
    'verify --suite exactness --group pn --n 2 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'verify --suite quotient --group pn --n 2 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'verify --suite split --group pn --n 2 --format text': (0, '230fa71b8300e2bfed973e24fe5b7dc1b2fc4950a7631e89bb4ed1a80009f060', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite theta --group pn --n 2 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '859ef3d90841c78caaa7a6e26ff437766ce345c41ad929f5ffe5dfa0eb06cdf2'),
    'comb --group gn --word r(2,1) r(1,0) r(2,2)^-1 r(1,0)^-1 r(2,0) --n 2 --format json': (0, '742c81f3253aa7a9a52ad755eb93212c063b087afc85f013b21b4275e6908a73', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group gn --n 2 --format json': (0, '5ca090a0cae04e0d23a9be4dc23cae6bbfcf351e20fb295cc2eebab743780136', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group gn --n 2 --format json': (0, '0c8e1d7abb9279ec2d7105ebef26d66b7ff79bbab77880fc8178395e3552e52a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite center --group gn --n 2 --format json': (0, 'fea8828b09dc3389c5a8088346cb4d6648f775095c940f25b52984f16f806e65', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite exactness --group gn --n 2 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'verify --suite quotient --group gn --n 2 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'verify --suite split --group gn --n 2 --format json': (0, '4b5f10eb50706f7ed4995104137e2da6730eccb849d59da7d7a80676ae26e91f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite theta --group gn --n 2 --format json': (0, 'ffb668ee3ff873c2d347dee985eb3c50481875907bb3767baf6b538dfeb489ef', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'comb --group pn --word A(1,2)^2 A(1,2)^-1 --n 2 --format json': (0, '8153b28507d3234e8898a5576cac8742a17f1aa3ee2fbcd69db4e9362fc6e715', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group pn --n 2 --format json': (0, '44605f06481f74500f4039c11d601fdd567e4d6164d87e94543599873b342246', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group pn --n 2 --format json': (0, '6a9b3f99d4a7697782e43e6bc009a12f853b0003df1ab9ea54c917940d0fc2f4', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite center --group pn --n 2 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e9f77eb9f1949a34e406d0fc48f0aae2d3358fe6d60e2a12d21016c6677a7597'),
    'verify --suite exactness --group pn --n 2 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'verify --suite quotient --group pn --n 2 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'verify --suite split --group pn --n 2 --format json': (0, '4b5f10eb50706f7ed4995104137e2da6730eccb849d59da7d7a80676ae26e91f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite theta --group pn --n 2 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '859ef3d90841c78caaa7a6e26ff437766ce345c41ad929f5ffe5dfa0eb06cdf2'),
    'comb --group gn --word r(3,2) r(1,0) r(2,1)^-1 r(3,4) r(2,2) r(1,0)^-2 r(3,0) --n 3 --format text': (0, '78eb295c6429ad4745b9beb85f006efcf3a0a4152e14cdf78bf1be249deb5a10', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group gn --n 3 --format text': (0, '74b8f7cdc346a5d1ba0afd7403e261e75d532eb48129e93dabb6f980f494092d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group gn --n 3 --format text': (0, '7ae91e072300626b201c22dc2e5cefbebf7ee2002f7b825e0bbe7287c0e197c1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite center --group gn --n 3 --format text': (0, 'f13f932a76fa3f0c218a09d08f74b6d99cffde5e7d6fafae690d30eb099c7352', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite exactness --group gn --n 3 --format text': (0, '9169cdd7f847eb08dbfabec5593d168c87e03256d82235c70be412472bf8c66e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite quotient --group gn --n 3 --format text': (0, '65d54744f260433e164fbaecc0cd9a6164f176668cf5df7dd0d7145529ae1dc2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite split --group gn --n 3 --format text': (0, 'c502118c9432485f6702da41e22786838a65c1689a34035d0eed1472a62a1bfc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite theta --group gn --n 3 --format text': (0, '118a20d5d6dd26676c4b952078302037af1f484f38738c746fcb79e22feb4914', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'comb --group pn --word A(2,3) A(1,2)^-1 A(1,3) A(1,2) A(2,3)^-2 --n 3 --format text': (0, '5222a315a50c78452d9da1c4441e3fd616b9e068387d9bbdb3bb7c6251dd3c77', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group pn --n 3 --format text': (0, '7b6df1f46f3252fd06052d22095235d16c940c875fac796ea4909f982a605337', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group pn --n 3 --format text': (0, '7d289ae7156b290dde82937b6f14cdb047bce7c0176e0a67a6493a79906d57e6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite center --group pn --n 3 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e9f77eb9f1949a34e406d0fc48f0aae2d3358fe6d60e2a12d21016c6677a7597'),
    'verify --suite exactness --group pn --n 3 --format text': (0, '9169cdd7f847eb08dbfabec5593d168c87e03256d82235c70be412472bf8c66e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite quotient --group pn --n 3 --format text': (0, '65d54744f260433e164fbaecc0cd9a6164f176668cf5df7dd0d7145529ae1dc2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite split --group pn --n 3 --format text': (0, 'c502118c9432485f6702da41e22786838a65c1689a34035d0eed1472a62a1bfc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite theta --group pn --n 3 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '859ef3d90841c78caaa7a6e26ff437766ce345c41ad929f5ffe5dfa0eb06cdf2'),
    'comb --group gn --word r(3,2) r(1,0) r(2,1)^-1 r(3,4) r(2,2) r(1,0)^-2 r(3,0) --n 3 --format json': (0, '292a5a022b5aea35b62fe9592918baf25b164b5417b92b78d5fd74b24478596c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group gn --n 3 --format json': (0, '1311f6a1608dd58619bcc70c1002fc9e096215a6184a4ebfcb146eb458a59b29', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group gn --n 3 --format json': (0, '582a5fb94b4eb03ecd64cef57bac86d76b0a3abcc3a0f553ed1b12f9861d9d6c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite center --group gn --n 3 --format json': (0, '968e05c38dd5b724adc7ffa42fae275239fd74225c4494668ccc1c711f9245d9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite exactness --group gn --n 3 --format json': (0, '49a90ed53b84fa73b216e2f80bc97636d96b61ecc9f05f6784c426b162e5c0b4', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite quotient --group gn --n 3 --format json': (0, '3b409b0c9857e561c298410d6df8d9b75fe0959d4588a9357c4af72413f69ba1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite split --group gn --n 3 --format json': (0, 'f056e409c4cd15ce46932fcdad611a6ca524a032f4320749ad5adaa6e5c552ad', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite theta --group gn --n 3 --format json': (0, '148c3bdff4455325fcd6bf567faa8b3d049ad5052b982d32bb19307acbd11264', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'comb --group pn --word A(2,3) A(1,2)^-1 A(1,3) A(1,2) A(2,3)^-2 --n 3 --format json': (0, 'd667a2b4d42732e536c4c119b92a112f1e8e3da54c08b66726785c961f50e3c8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group pn --n 3 --format json': (0, '69ff538fc679949d06a3232069101c86c2e547de34bc7d8c8c4aeb56209baf31', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group pn --n 3 --format json': (0, 'a018f4f022903f57a8ed1ad735f442bd043d97d95c8532ef167fce0aa24bdb48', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite center --group pn --n 3 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e9f77eb9f1949a34e406d0fc48f0aae2d3358fe6d60e2a12d21016c6677a7597'),
    'verify --suite exactness --group pn --n 3 --format json': (0, '49a90ed53b84fa73b216e2f80bc97636d96b61ecc9f05f6784c426b162e5c0b4', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite quotient --group pn --n 3 --format json': (0, '3b409b0c9857e561c298410d6df8d9b75fe0959d4588a9357c4af72413f69ba1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite split --group pn --n 3 --format json': (0, 'f056e409c4cd15ce46932fcdad611a6ca524a032f4320749ad5adaa6e5c552ad', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite theta --group pn --n 3 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '859ef3d90841c78caaa7a6e26ff437766ce345c41ad929f5ffe5dfa0eb06cdf2'),
    'comb --group gn --word r(4,6) r(2,1) r(3,4)^-1 r(1,0) r(4,2) r(2,2)^-1 r(3,1) --n 4 --format text': (0, '160590fa6c2e675293c808d0a01827372998afe485047175d996258686ffd59c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group gn --n 4 --format text': (0, 'e46910f93700e6dfb395e166db5a0c3a6e224fc0b5187cad5b2ab1e03f632c69', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group gn --n 4 --format text': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'dab55fff9d43c01a42d216c23e2489a97ce24eb70160748ece2b7cbfa421e8d5'),
    'verify --suite center --group gn --n 4 --format text': (0, '55cb0b38971b3ad24481b55661f95dd7b8dd8207bd870a8fe363c08a2b45b679', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite exactness --group gn --n 4 --format text': (0, 'e26b33fbc8234508cc858f1eb9e15403237b900150ba082e3ab4fbc92d29fa1a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite quotient --group gn --n 4 --format text': (0, 'b4734f09c9ce61c821d5be18a3cd4416e287c45a307ce2e381e5462b91e9e6cc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite split --group gn --n 4 --format text': (0, '70f2c385221257a890fa7f3700b8a424dcd6006048eeda1dacc724ebdae79a85', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite theta --group gn --n 4 --format text': (0, 'a6e01119abe976f09f1b1006910f72a73435e687eb8b76246ae94981e082a1e5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'comb --group pn --word A(3,4) A(1,2) A(2,4)^-1 A(1,3) A(1,4) A(2,3)^-1 A(1,2)^-1 --n 4 --format text': (0, 'ba5ace7368cb14167db3cae13483280f5c5a59a499e78866bfea7898f24a4f6e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group pn --n 4 --format text': (0, 'da5cea79ab8b49a7a9a36a6b80c03a779b2ca14f59ab18a89af8cf037dcb45ea', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group pn --n 4 --format text': (0, 'bafaecf69763c268fe6a94fab95679c02f93f1b5b7ce00757df61a436b45daef', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite center --group pn --n 4 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e9f77eb9f1949a34e406d0fc48f0aae2d3358fe6d60e2a12d21016c6677a7597'),
    'verify --suite exactness --group pn --n 4 --format text': (0, 'e26b33fbc8234508cc858f1eb9e15403237b900150ba082e3ab4fbc92d29fa1a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite quotient --group pn --n 4 --format text': (0, 'b4734f09c9ce61c821d5be18a3cd4416e287c45a307ce2e381e5462b91e9e6cc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite split --group pn --n 4 --format text': (0, '70f2c385221257a890fa7f3700b8a424dcd6006048eeda1dacc724ebdae79a85', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite theta --group pn --n 4 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '859ef3d90841c78caaa7a6e26ff437766ce345c41ad929f5ffe5dfa0eb06cdf2'),
    'comb --group gn --word r(4,6) r(2,1) r(3,4)^-1 r(1,0) r(4,2) r(2,2)^-1 r(3,1) --n 4 --format json': (0, '8e87ecda4c8e07965f1276ba628e1a9ae3b3d747d0a936fcce8454295ac8c92c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group gn --n 4 --format json': (0, '1d12413834bd2e65cd706badd9b0f0a6d413a7534c0f238c5e44970d2fd2925c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group gn --n 4 --format json': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'dab55fff9d43c01a42d216c23e2489a97ce24eb70160748ece2b7cbfa421e8d5'),
    'verify --suite center --group gn --n 4 --format json': (0, 'c1f1ba51495c9e07a7db6db72481abd0e6be2b36ff71e6d6ddd79c44bfad6680', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite exactness --group gn --n 4 --format json': (0, '6fed6dc26a5c3684f5671857dfd0d66654bf03c57d7af5c9f7747fb71cdbb371', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite quotient --group gn --n 4 --format json': (0, '515629aa3aa3dad78443d2561aa02011c7aa5fc4adc9303baad7c95231886921', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite split --group gn --n 4 --format json': (0, '36d64f2612cc6ebf02ef4a5b3051d05b713a56732715cf02daeefa4c82fde9af', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite theta --group gn --n 4 --format json': (0, 'e8284e603ab8332ac57c1ec3bd21031f60101cca28f300b3f88abcc4dfb70153', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'comb --group pn --word A(3,4) A(1,2) A(2,4)^-1 A(1,3) A(1,4) A(2,3)^-1 A(1,2)^-1 --n 4 --format json': (0, 'c4f9f986f36ecd6d7d7a31cdd9f8a5eef210ce28f96e2a960bab08b88c9721aa', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'abelianize --group pn --n 4 --format json': (0, '58f7bceb851ca05835c3e98c450a96e42b900ab7427b42a63f356cbf114e7983', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --group pn --n 4 --format json': (0, 'a44cf9f39a09649080300ac6130f5ee87d2b61f1db1b88b6830debc6070afa99', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite center --group pn --n 4 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e9f77eb9f1949a34e406d0fc48f0aae2d3358fe6d60e2a12d21016c6677a7597'),
    'verify --suite exactness --group pn --n 4 --format json': (0, '6fed6dc26a5c3684f5671857dfd0d66654bf03c57d7af5c9f7747fb71cdbb371', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite quotient --group pn --n 4 --format json': (0, '515629aa3aa3dad78443d2561aa02011c7aa5fc4adc9303baad7c95231886921', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite split --group pn --n 4 --format json': (0, '36d64f2612cc6ebf02ef4a5b3051d05b713a56732715cf02daeefa4c82fde9af', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite theta --group pn --n 4 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '859ef3d90841c78caaa7a6e26ff437766ce345c41ad929f5ffe5dfa0eb06cdf2'),
    'boundary --surface s2 --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'boundary --surface s2 --abelianized --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'boundary --surface s2 --strict-corollary --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'boundary --surface s2 --abelianized --strict-corollary --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'boundary --surface rp2 --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1b63627ea3d2d7cb484b8dadea213f7a29d5e421f12181bce65a8865a488e9cd'),
    'boundary --surface rp2 --abelianized --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1b63627ea3d2d7cb484b8dadea213f7a29d5e421f12181bce65a8865a488e9cd'),
    'boundary --surface rp2 --strict-corollary --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1b63627ea3d2d7cb484b8dadea213f7a29d5e421f12181bce65a8865a488e9cd'),
    'boundary --surface rp2 --abelianized --strict-corollary --n 1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1b63627ea3d2d7cb484b8dadea213f7a29d5e421f12181bce65a8865a488e9cd'),
    'boundary --surface s2 --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'boundary --surface s2 --abelianized --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'boundary --surface s2 --strict-corollary --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'boundary --surface s2 --abelianized --strict-corollary --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8e7c8b3eafe7a11b2d488c548f6e22e511486b099ab3ad396407d4fc4c5f8676'),
    'boundary --surface rp2 --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1b63627ea3d2d7cb484b8dadea213f7a29d5e421f12181bce65a8865a488e9cd'),
    'boundary --surface rp2 --abelianized --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1b63627ea3d2d7cb484b8dadea213f7a29d5e421f12181bce65a8865a488e9cd'),
    'boundary --surface rp2 --strict-corollary --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1b63627ea3d2d7cb484b8dadea213f7a29d5e421f12181bce65a8865a488e9cd'),
    'boundary --surface rp2 --abelianized --strict-corollary --n 1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1b63627ea3d2d7cb484b8dadea213f7a29d5e421f12181bce65a8865a488e9cd'),
    'boundary --surface s2 --n 2 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'boundary --surface s2 --abelianized --n 2 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'boundary --surface s2 --strict-corollary --n 2 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'boundary --surface s2 --abelianized --strict-corollary --n 2 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'boundary --surface rp2 --n 2 --format text': (0, 'dd7701b280670e54a103a8df2f7e1588ebfc65c30164c09a7edaec2f531033ed', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --n 2 --format text': (0, 'fdcbbeee7a1b451139e721b650bf8d6ce20451a8d57e966b427cdb68f6d076e1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --strict-corollary --n 2 --format text': (0, '72aec4b68451f6b5ee7071aa3d452f313e4f86da3afb3b2b6036ec980c13f96f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --strict-corollary --n 2 --format text': (0, '81a997df1b3b1c175b7cb0406fd68aa1eb569486371d42082075dbf662f59675', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --n 2 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'boundary --surface s2 --abelianized --n 2 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'boundary --surface s2 --strict-corollary --n 2 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'boundary --surface s2 --abelianized --strict-corollary --n 2 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'a720d5c3f9381cf5bb31f2c93982f178447df46000fb502d377455e869019df6'),
    'boundary --surface rp2 --n 2 --format json': (0, 'e0faa73bbd76cb9fb3a3efec093614f4dac6dc9c3d56f441c5e5b5f5481ab711', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --n 2 --format json': (0, 'bc0158dce17d1c978ea26f6825ab4499a9584ef1dbdcd98c2ac74791ffe70cb2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --strict-corollary --n 2 --format json': (0, '04d63712686a1fbdc84184cd8b52898ce7f0f8b522dae28e6d2a7d1d9549ed43', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --strict-corollary --n 2 --format json': (0, '2b6cd090ba65e8121df20cd8053d16c3acd710a63019f779ef01b009c1ea0405', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --n 3 --format text': (0, '990030062065064f4560833e39a57c7b963dabdf4f128b737b45ec776b5d2c0b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --abelianized --n 3 --format text': (0, '80a7476a29375c4ebdee451399f5669effa8a9942d25ec75b867605c666afe9a', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --strict-corollary --n 3 --format text': (0, 'fc0da1da3549395eee0021417f3cd0f1fc432c2df0c88cacce4dbdb322c0c878', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --abelianized --strict-corollary --n 3 --format text': (0, '4d02a877f20e843189f718e80c60b60ebd69ec73559659c1c49a14b0c8707f7f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --n 3 --format text': (0, 'e2fefc7c5c5006ba0c212f55cbc173acc2a6b6862c18395a9a33edc4a7b42444', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --n 3 --format text': (0, 'd6d4c485f87c634f8070c487af72632304bb9c013dd91b2d4c769db2a3bc9949', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --strict-corollary --n 3 --format text': (0, 'cb1ee7e9a5ea6981e40240f4173ee75de14a9bb83abe41f57fd2e28ac66f2b40', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --strict-corollary --n 3 --format text': (0, '661c9d888e9e3b931cd62f395182b66a2e12d18e76fbfb8b6f6a2154ee8a98a2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --n 3 --format json': (0, '06a78516071a5184e91c7f4461ef29956dc8cdba3cfe4b9168fdb551d237e798', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --abelianized --n 3 --format json': (0, '1178522ff2a928b11c3c8cc43cc415e6ce1794ca7972cab08f652b520b26bb29', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --strict-corollary --n 3 --format json': (0, 'b44486c44fbec667cc0f642412ebd1e061f99306de22922039eb54065bc8e32e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --abelianized --strict-corollary --n 3 --format json': (0, 'ff5a28781c720b6f38a7507d900b869b3d63bb84b686598ec80aa88a1fee8f58', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --n 3 --format json': (0, '1c61af91fcf9debf38d06c6c90523dfd26ec71b04abf25c0c808fe6246624752', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --n 3 --format json': (0, '84028916a08ce1adfea856970e4f41b0a3dbeb573a041bf813e34b50d31232b0', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --strict-corollary --n 3 --format json': (0, '14c229905a353a5c1beaa77b2b1a770b27f701b0e2e10606f844e425f81a2efd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --strict-corollary --n 3 --format json': (0, 'db2c3aa1aa746b8a1acb495939dfefd053ee38bf256409ff8feca341220c04f3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --n 4 --format text': (0, '0cf2df5273276169ac2006138619f1392501ffa1d906fd7ce342c8a3d50770ce', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --abelianized --n 4 --format text': (0, '7014e33f6f50d7942e37d1fb7d484b8200ac76c18d1247bd623fa644ae99b249', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --strict-corollary --n 4 --format text': (0, '8e6df9ada0bcc2b164fdc2bcf238f4ea9adfa6cfcc895b436b646693e59cf53c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --abelianized --strict-corollary --n 4 --format text': (0, '8f308904d0ddccd0d163ac52445dfc49f8bf769e5582bcdc789c1486c8bbd20b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --n 4 --format text': (0, 'dde0afa1187199bd52327ef0d0b065e76362e1af48ca718f728677e7354123dc', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --n 4 --format text': (0, 'ea26d00ee19cc8617b2da43cfc89dfe3b621b4ba57b5d2929739cdf707d40eee', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --strict-corollary --n 4 --format text': (0, '35b86ffe693768dc319a0e3b1d7dd2a1db0bf5e3b7013053257c9940908eb96b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --strict-corollary --n 4 --format text': (0, 'e701c7944f9b40f0206cc07860628e2830717fd1bba2291cf1fa90f713c4ce0d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --n 4 --format json': (0, '5f099a20753e84df3201ac85fb733a74d204676f9a0c19bc5fece83e278d18a8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --abelianized --n 4 --format json': (0, 'd69fc4bedd1685014f70849fe2c71d77844c4d5729b92892c0da4aa715457f25', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --strict-corollary --n 4 --format json': (0, '578b4999ef96b8d04817de199b752ac2efe714012dd3a95928e4804ded682477', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --abelianized --strict-corollary --n 4 --format json': (0, 'c75b78947a39e8695c568f8c50308bb06d3b4db789ba1207816a46e161268264', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --n 4 --format json': (0, '8f262ea581e07fc43bd0fb59e69a927e9490362a8faa11f0e44ce7238a23e418', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --n 4 --format json': (0, '25f1104ec73567db02a68930c04af99742bcc6bfdd585cabd09a113c6694eb21', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --strict-corollary --n 4 --format json': (0, 'c703fc74415f8b606519f7e851d85e084980b31aa8430e8ced3ce2f8cc5385ed', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --strict-corollary --n 4 --format json': (0, 'b4a7cd11b8fc83c4c82451156dd53f04e2ca46222def50daace7573c38aa3a16', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --n 5 --format text': (0, '08b6cdd95eeaaf69df39450cc943947ca3395ccef62b309b2b9ab2070fea1d41', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --abelianized --n 5 --format text': (0, 'ba2f5ff642ce52bb4e2677e80b073ac4ff1ac06163a2f3ab98e82c47d4e0e72e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --strict-corollary --n 5 --format text': (0, 'd1e76afa34a3127508e12b13e7936d89916c69f6a76e4b838478810081a81383', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --abelianized --strict-corollary --n 5 --format text': (0, '20503574e0f3f870047f5b35f210ed9dd85efac6f452d30914f24ddf745f3a01', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --n 5 --format text': (0, '305a9ee8e06b70fc80039287dc4dac1842bf808cbc823327c76e65fc71423a8e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --n 5 --format text': (0, '7a6a6e2e746590120b4ba4e236e0b4e95bdaa7f596cb3f38f078fe6985469766', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --strict-corollary --n 5 --format text': (0, 'aef87946ec571c6a19f89198c11fcde4cec519d20cea8e92ba9168004309bb2d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --strict-corollary --n 5 --format text': (0, '87ef727e9d2af436606880a6f99e1b3f15054cfd47e2170ca8c51097ee413212', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --n 5 --format json': (0, '354f1add5e4a877166c3aa09b6ba5fb41c02a2502ccb76e9c1a7b84dd2c8b411', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --abelianized --n 5 --format json': (0, '9809c48a687e89229c71cfee880bcd9fd7d1d28e514a4d7089f1de95177c65dd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --strict-corollary --n 5 --format json': (0, '4be43bbd0585d964a4a1716e06c1d6f161ccbb6dc73cb340ad89d428c5340ec8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface s2 --abelianized --strict-corollary --n 5 --format json': (0, 'ac46286e33ea5c612c00ee9597209d6ea232bccf0da6eba69b841a62ae3e3f42', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --n 5 --format json': (0, 'd1cdf86b14745b46e2c89180e79964f75472ef81b64bb040a68accfedc5e09e8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --n 5 --format json': (0, 'e124ebbfbc7432cee8ce69ffa12721c537ed6027d97ac47efc205b25bbfc7bb1', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --strict-corollary --n 5 --format json': (0, 'f9ba484979139460e131423bef859c1439ad5ba190b64db209254b7df4c8949b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'boundary --surface rp2 --abelianized --strict-corollary --n 5 --format json': (0, '298ce4606fdae0d8d2309fe109d71156222e5740148410e1225a27eeadf9b17d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite relators --n 2 --seed 7 --format text': (0, 'e5cd977bf97500efd6a02c92b083808d9846ca2e9496f8d1b9b9d426c575c6fe', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite theta --n 3 --seed 7 --format text': (0, '7db1a07c402a9bafe5d5fe791acf8f9699c0cf581feecf45691e5cc64b2cb7e8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite split --surface rp2 --n 2 --format text': (0, '230fa71b8300e2bfed973e24fe5b7dc1b2fc4950a7631e89bb4ed1a80009f060', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite quotient --surface s2 --n 3 --format text': (0, 'c48ed7654160aff5474fd691da78b570af63ea7a20f7891763f7cf051891e7dd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'comb --n 3 --word r(3,2) r(1,0) r(2,1)^-1 r(3,4) r(2,2) r(1,0)^-2 r(3,0) --word-cap 5 --format text': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f59f12d830fec2d9aafb2cc9b6c85169c5aabbe4bbdcf683a8a9fe374caab2a9'),
    'comb --n 2 --word r(1,0)^1001 --word-cap 1000 --format text': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'd1c3f0205e55316afe8496df362d072e4004f56200db635958143d29d789e27f'),
    'comb --n 3 --word r(1,0) r(3,4) r(3,2) r(3,4) r(1,0)^-1 --word-cap 8 --format text': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '47d8d99d38f6d240a1f76e9116158ac8f5a224557ccfc107a7b25fc8a5f0d5a0'),
    'verify --suite relators --n 3 --word-cap 2 --format text': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'af9494936d4e267ee82235c74162af58ef9642de43758aa097ca82ab941511cc'),
    'verify --suite theta --n 3 --word-cap 2 --format text': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1588e45f841ae2201aabe2841b3bc3f3b17fae058e2068720f26a6ad489d6a49'),
    'comb --n 3 --word q(1,0) --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '41824df2c9fa2f3860481db45f5bc913ec136f3ec2e0c7b8aaf6b11d912bc305'),
    'comb --n 3 --word p(1) --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bd27a60766b2241d366f8590c89a11903e3dad8be1c269563cbb5612800e9264'),
    'comb --n 3 --word A(1,2) --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '2f7ecae7165a5daa521f4494c1b41aec4f85f41d96fc5bb39829a27ec1d7d117'),
    'comb --n 3 --word r(4,0) --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'fff83b062342fa4f48c4d6631f97e5b4408e46902c0f308d9caae87f53414aeb'),
    'comb --n 3 --word r(1,0 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e0b211c0f91ba44d9e62242dfc927eeab3997c08c88becdce7a7f769c5a735c6'),
    'comb --group pn --n 3 --word A(1,4) --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '12c36bc73cd9952077a31f8fdf55990156e0460a6c39f2732f636671ac79a4df'),
    'verify --suite relators --n 2 --seed 7 --format json': (0, 'ad3f0e49c8dbf90eacc1bcf6695bb545422c48bf38f49f261fefb3b976d6b1c6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite theta --n 3 --seed 7 --format json': (0, '5d10592ada162f31f5036d17d3b87c6857b2481a54fdd171a9fe629876a9ec30', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite split --surface rp2 --n 2 --format json': (0, '4b5f10eb50706f7ed4995104137e2da6730eccb849d59da7d7a80676ae26e91f', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite quotient --surface s2 --n 3 --format json': (0, '706f1a48415632f25f2163a9e0abb0f5c4dbe3ec2d45e97a5566523046818cb5', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'comb --n 3 --word r(3,2) r(1,0) r(2,1)^-1 r(3,4) r(2,2) r(1,0)^-2 r(3,0) --word-cap 5 --format json': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f59f12d830fec2d9aafb2cc9b6c85169c5aabbe4bbdcf683a8a9fe374caab2a9'),
    'comb --n 2 --word r(1,0)^1001 --word-cap 1000 --format json': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'd1c3f0205e55316afe8496df362d072e4004f56200db635958143d29d789e27f'),
    'comb --n 3 --word r(1,0) r(3,4) r(3,2) r(3,4) r(1,0)^-1 --word-cap 8 --format json': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '47d8d99d38f6d240a1f76e9116158ac8f5a224557ccfc107a7b25fc8a5f0d5a0'),
    'verify --suite relators --n 3 --word-cap 2 --format json': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'af9494936d4e267ee82235c74162af58ef9642de43758aa097ca82ab941511cc'),
    'verify --suite theta --n 3 --word-cap 2 --format json': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '1588e45f841ae2201aabe2841b3bc3f3b17fae058e2068720f26a6ad489d6a49'),
    'comb --n 3 --word q(1,0) --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '41824df2c9fa2f3860481db45f5bc913ec136f3ec2e0c7b8aaf6b11d912bc305'),
    'comb --n 3 --word p(1) --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'bd27a60766b2241d366f8590c89a11903e3dad8be1c269563cbb5612800e9264'),
    'comb --n 3 --word A(1,2) --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '2f7ecae7165a5daa521f4494c1b41aec4f85f41d96fc5bb39829a27ec1d7d117'),
    'comb --n 3 --word r(4,0) --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'fff83b062342fa4f48c4d6631f97e5b4408e46902c0f308d9caae87f53414aeb'),
    'comb --n 3 --word r(1,0 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'e0b211c0f91ba44d9e62242dfc927eeab3997c08c88becdce7a7f769c5a735c6'),
    'comb --group pn --n 3 --word A(1,4) --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '12c36bc73cd9952077a31f8fdf55990156e0460a6c39f2732f636671ac79a4df'),
    'comb --n 2 --word r(1,0) --format gap': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'f71a7c3a04b329871ea15874a6655cd8c3d9cb5f5a822f22d1e26fd41dae6433'),
    'verify --suite nosuch --n 2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '8ee9ced922407631dd02e48d4a9327507cf33d4e89191a6e9b7396665f6043e5'),
    'abelianize --group qq --n 2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '5c75659a526fe1eb64fd9cd4e43c7ea5d41b3084847b89f87801428e4329729c'),
    'boundary --surface s2 --n 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4d048177e71c70d954c1d446854fc25b15b146ba41a3b1b50843b60a58ed04b7'),
}
# The huge-digit words, too long to write out as keys.
PINNED_CLI_SHA256.update(
    {
        f"comb --n 3 --word {word} --format {fmt}": (
            2,
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
            'd0fcebc5fa49dc32cb9460c1ff96ebb50abec75d0f09871a54e2653cb7754ffd',
        )
        for word in _HUGE_DIGIT_WORDS
        for fmt in ("text", "json")
    }
)


def test_every_command_and_format_is_pinned(capsys, monkeypatch):
    # argparse wraps its usage text to COLUMNS, which the digests fix at 80,
    # and where it breaks the line differs between Python versions (3.13
    # breaks the usage of `verify --suite nosuch` elsewhere).  So stderr is
    # hashed with each run of whitespace as one space: every token stays
    # pinned, its line breaks do not.
    monkeypatch.setenv("COLUMNS", "80")
    seen = {}
    for argv in _pinned_cli_argvs():
        code = main(list(argv))
        captured = capsys.readouterr()
        seen[" ".join(argv)] = (
            code,
            hashlib.sha256(captured.out.encode()).hexdigest(),
            hashlib.sha256(re.sub(r"\s+", " ", captured.err).encode()).hexdigest(),
        )
    assert seen == PINNED_CLI_SHA256


# --- boundary -------------------------------------------------------------------


def test_boundary_abelianized_pinned(capsys):
    code, out, _ = run(capsys, "boundary", "--surface", "s2", "--n", "3", "--abelianized")
    assert code == EXIT_OK
    assert "x0 -> (1; 1,0)" in out
    assert "[1, 0, 1]" in out and "[0, 0, -2]" in out
    assert "SNF invariant factors: (1, 1, 2)" in out


def test_boundary_json(capsys):
    code, out, _ = run(
        capsys, "boundary", "--surface", "rp2", "--n", "2", "--abelianized", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["labels"] == ["x0", "z0"]
    assert payload["images"]["z0"]["z_part"] == [-1]
    assert payload["snf"] == [1, 2]


def test_boundary_strict_corollary(capsys):
    code, out, _ = run(capsys, "boundary", "--surface", "s2", "--n", "3", "--strict-corollary")
    assert code == EXIT_OK
    assert "forms differ by (1; 0,1)" in out

    code, out, _ = run(capsys, "boundary", "--surface", "rp2", "--n", "2", "--strict-corollary")
    assert code == EXIT_OK
    assert "forms agree" in out


def test_boundary_below_n0_is_usage_error(capsys):
    code, _, err = run(capsys, "boundary", "--surface", "s2", "--n", "2")
    assert code == EXIT_USAGE
    assert "--n" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("boundary", "--surface", "s2", "--n", "73"),
        ("boundary", "--surface", "rp2", "--n", "52"),
        ("boundary", "--surface", "s2", "--n", "3000", "--abelianized"),
        ("boundary", "--surface", "rp2", "--n", "100000", "--abelianized", "--strict-corollary"),
    ],
    ids=lambda argv: "-".join(argv[2:5]),
)
def test_boundary_past_the_fibre_tower_bound_is_refused_before_any_image(
    capsys, monkeypatch, argv
):
    def refuse(*args):
        raise AssertionError("a boundary image was built")

    monkeypatch.setattr(cli.fibration, "boundary_image", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert "MAX_TOWER_GENERATORS=2500" in err


@pytest.mark.parametrize(
    "surface, tallest, twist", [("s2", 72, "A(1,2)^-1"), ("rp2", 51, "r(50,0)")], ids=["s2", "rp2"]
)
def test_boundary_prints_at_the_fibre_tower_bound(capsys, surface, tallest, twist):
    code, out, _ = run(capsys, "boundary", "--surface", surface, "--n", str(tallest))
    assert code == EXIT_OK
    final = out.splitlines()[-1]
    assert final.startswith("-z0 -> (" if surface == "s2" else "z0 -> (")
    assert twist in final


# --- verify ---------------------------------------------------------------------


def test_verify_center_prints_one_pass_per_generator(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "center", "--n", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_center_honours_the_word_cap(capsys, fmt):
    code, out, err = run(
        capsys, "verify", "--suite", "center", "--n", "3", "--word-cap", "2", "--format", fmt
    )
    assert (code, out) == (EXIT_WORD_CAP, "")
    assert "exceeds the cap of 2" in err and "--word-cap" in err


@pytest.mark.parametrize("n", [3, 4])
def test_verify_center_at_the_default_cap_matches_the_catalog(capsys, n):
    catalog = Path(__file__).parents[1] / "perfbench" / "cli_catalog.json"
    (entry,) = [e for e in json.loads(catalog.read_text())["entries"] if e["kind"] == f"center-{n}"]
    code, out, _ = run(capsys, *entry["argv"])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"]


def test_every_catalog_argv_matches_the_catalog(capsys):
    # The benchmark's cold CLI calls, run in-process: each exits 0 and
    # prints the bytes the catalog recorded.
    catalog = Path(__file__).parents[1] / "perfbench" / "cli_catalog.json"
    entries = json.loads(catalog.read_text())["entries"]
    mismatched = []
    for entry in entries:
        code, out, _ = run(capsys, *entry["argv"])
        if code != EXIT_OK or hashlib.sha256(out.encode()).hexdigest() != entry["sha256"]:
            mismatched.append((entry["kind"], entry["argv"], code))
    assert len(entries) == 116 and mismatched == []


def test_verify_relators_prints_seed_and_reproduces(capsys):
    code, first, _ = run(capsys, "verify", "--suite", "relators", "--n", "2", "--seed", "5")
    assert code == EXIT_OK
    assert first.splitlines()[0] == "seed: 5"
    assert sum(line.startswith("PASS relator") for line in first.splitlines()) == 3

    code, second, _ = run(capsys, "verify", "--suite", "relators", "--n", "2", "--seed", "5")
    assert code == EXIT_OK
    assert second == first


def test_verify_theta_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theta", "--n", "2", "--seed", "3")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "seed: 3"
    assert all(line.startswith("PASS") for line in out.splitlines()[1:])


def test_verify_theta_suite_fails_on_a_wrong_engine(capsys, monkeypatch):
    # Swapping two images in one action table leaves every answer a valid
    # normal form, but a wrong one: Theta^e * remainder then combs apart
    # from remainder * Theta^e, though it still reduces to the word itself.
    c = combing._Comber(TowerSpec(GenFamily.ORBIT, 2))
    x, y, z = (c.ids[orbit_gen(*indices)] for indices in ((1, 0), (2, 1), (2, 2)))
    table = c.table(_tower_code(c, x), 2)
    y, z, y_inverse, z_inverse = (c.local[_tower_code(c, v)] for v in (y, z, -y, -z))
    table[y], table[z], table[y_inverse], table[z_inverse] = (
        table[z], table[y], table[z_inverse], table[y_inverse]
    )
    monkeypatch.setattr(combing, "_comber_for", lambda tower: c)
    code, out, _ = run(capsys, "verify", "--suite", "theta", "--n", "2", "--seed", "3")
    assert code == EXIT_CHECK_FAILED
    assert any(line.startswith("FAIL word") for line in out.splitlines())


def test_verify_theta_suite_hands_its_word_cap_to_the_split(capsys, monkeypatch):
    caps = []
    split = cli.theta_decompose

    def spy(tower, w, word_cap):
        caps.append(word_cap)
        return split(tower, w, word_cap)

    monkeypatch.setattr(cli, "theta_decompose", spy)
    code, _, _ = run(capsys, "verify", "--suite", "theta", "--n", "3", "--word-cap", "40000")
    assert code == EXIT_OK
    assert len(caps) == cli.SUITE_PAIRS and set(caps) == {40000}


@pytest.mark.parametrize("n", ["201", "100000", "1000000000000"])
def test_verify_split_past_its_bound_is_usage_error(capsys, n):
    code, out, err = run(capsys, "verify", "--suite", "split", "--n", n)
    assert (code, out) == (EXIT_USAGE, "")
    assert "MAX_SPLIT_N=200" in err


def test_verify_split_counts(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "split", "--n", "2")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 8  # diagonal + anti-diagonal per coeff

    code, out, _ = run(capsys, "verify", "--suite", "split", "--n", "3")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 4  # diagonal only


def test_verify_exactness_and_quotient_surface_selection(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "exactness", "--n", "3")
    assert code == EXIT_OK
    assert "s2 n=3" in out and "rp2 n=3" in out

    code, out, _ = run(capsys, "verify", "--suite", "quotient", "--surface", "rp2", "--n", "3")
    assert code == EXIT_OK
    assert "s2" not in out.replace("rp2", "")
    assert "Z^3 x Z/2" in out


def test_verify_json_payload(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "quotient", "--surface", "s2", "--n", "3", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["ok"] is True
    assert payload["seed"] is None  # deterministic suite
    assert all(check["ok"] for check in payload["checks"])


def test_verify_failure_exit_code(capsys, monkeypatch):
    def failing_suite(cfg):
        return [("synthetic check", False, "reproducer: r(1,0)")], False

    monkeypatch.setitem(cli._SUITE_RUNNERS, "center", failing_suite)
    code, out, _ = run(capsys, "verify", "--suite", "center", "--n", "2")
    assert code == EXIT_CHECK_FAILED
    assert "FAIL synthetic check (reproducer: r(1,0))" in out


def test_verify_center_formats_library_failures(capsys, monkeypatch):
    real = cli.center_check

    def one_failure(p, **kwargs):
        report = real(p, **kwargs)
        return CenterReport(
            n=report.n,
            theta_commutes=report.theta_commutes,
            commutation_failures=(orbit_gen(2, 1),),
            theta_powers=report.theta_powers,
            witnesses=report.witnesses,
        )

    monkeypatch.setattr(cli, "center_check", one_failure)
    code, out, _ = run(capsys, "verify", "--suite", "center", "--n", "2")
    assert code == EXIT_CHECK_FAILED
    assert out.count("PASS") == 3
    assert (
        "FAIL r(2,1): conjugation by theta fixes the combed form "
        "(reproducer: r(1,0) r(2,0) r(2,1) r(2,0)^-1 r(1,0)^-1)"
    ) in out


def test_verify_relators_reports_an_insertion_that_combs_differently(capsys, monkeypatch):
    # Left as a word of the free group, where no relator is trivial, every
    # insertion differs from its base pair u v at the first pair.
    combed = []

    def free_comb(p, w, word_cap):
        combed.append(w)
        return w

    monkeypatch.setattr(cli, "comb", free_comb)
    code, out, _ = run(capsys, "verify", "--suite", "relators", "--group", "gn", "--n", "2")
    assert code == EXIT_CHECK_FAILED
    assert "PASS" not in out and out.count("FAIL relator") == 3
    # The first word combed is the first relator inserted into the first pair.
    assert (
        f"FAIL relator 0: insertion invariant over {cli.SUITE_PAIRS} pairs "
        f"(reproducer: {format_word(combed[0])})"
    ) in out.splitlines()


def test_verify_relators_combs_each_base_word_once(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return comb(*args)

    monkeypatch.setattr(cli, "comb", counted)
    code, out, _ = run(capsys, "verify", "--suite", "relators", "--group", "gn", "--n", "3")
    assert code == EXIT_OK
    assert out.count("PASS relator") == 23
    # One comb per relator and pair, plus one per pair's base word u * v.
    assert len(calls) == 23 * 25 + 25


def test_verify_relators_on_p1_reports_no_checks(capsys):
    # P_1 has no generators and no relators: an empty, passing report.
    code, out, _ = run(capsys, "verify", "--suite", "relators", "--group", "pn", "--n", "1")
    assert code == EXIT_OK
    assert out == "seed: 0\n"
    code, out, _ = run(
        capsys, "verify", "--suite", "relators", "--group", "pn", "--n", "1", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["checks"] == []


def test_verify_theta_rejects_pn(capsys):
    code, _, err = run(capsys, "verify", "--suite", "theta", "--group", "pn", "--n", "2")
    assert code == EXIT_USAGE
    assert "--group" in err or "--suite" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_module_entry_point():
    # The child finds braidcomb where this process did, installed or not.
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "braidcomb", "presentation", "--group", "gn", "--n", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "generators: r(1,0)\n(no relators)\n"


_COLD_TEXT_COMB = """
import sys
sys.path.insert(0, sys.argv[1])
from braidcomb.cli import main
code = main(["comb", "--group", "gn", "--n", "3", "--word", "r(2,1) r(3,0) r(1,0)^-1"])
print(code, sorted(m for m in ("dataclasses", "inspect", "json") if m in sys.modules))
"""


def test_a_text_comb_imports_no_dataclasses_inspect_or_json():
    # -S skips site, which alone would load some of these modules.
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _COLD_TEXT_COMB, src], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_a_number_of_too_many_digits_is_a_usage_error(capsys):
    for word in _HUGE_DIGIT_WORDS:
        code, out, err = run(capsys, "comb", "--group", "gn", "--n", "3", "--word", word)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: --word is not a valid word: a number in a r(...) letter has more than 100 digits\n"
