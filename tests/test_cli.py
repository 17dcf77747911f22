"""CLI surface: subcommands, formats, exit codes, and seeded reproducibility."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

from braidcomb import cli
from braidcomb.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, EXIT_WORD_CAP, main
from braidcomb.combing import comb
from braidcomb.presentations import TowerSpec, orbit_presentation, parse_presentation
from braidcomb.words import GenFamily, orbit_gen, parse_word


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
    assert "intermediate word of length 15 exceeds the cap of 8 at level 3" in err


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
        ("abelianize", "--group", "gn", "--n", "15"),
        ("abelianize", "--group", "pn", "--n", "21"),
        ("verify", "--suite", "relators", "--group", "gn", "--n", "15"),
        ("verify", "--suite", "relators", "--group", "pn", "--n", "21"),
    ],
    ids=lambda argv: "-".join(argv[:5]),
)
def test_presentations_past_the_relator_bound_are_usage_errors(capsys, argv, no_relators_built):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert "MAX_RELATORS=20000" in err


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


# --- verify ---------------------------------------------------------------------


def test_verify_center_prints_one_pass_per_generator(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "center", "--n", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all(line.startswith("PASS") for line in lines)


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

    def one_failure(p):
        return dataclasses.replace(real(p), commutation_failures=(orbit_gen(2, 1),))

    monkeypatch.setattr(cli, "center_check", one_failure)
    code, out, _ = run(capsys, "verify", "--suite", "center", "--n", "2")
    assert code == EXIT_CHECK_FAILED
    assert out.count("PASS") == 3
    assert (
        "FAIL r(2,1): conjugation by theta fixes the combed form "
        "(reproducer: r(1,0) r(2,0) r(2,1) r(2,0)^-1 r(1,0)^-1)"
    ) in out


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
    proc = subprocess.run(
        [sys.executable, "-m", "braidcomb", "presentation", "--group", "gn", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "generators: r(1,0)\n(no relators)\n"
