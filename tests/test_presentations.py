"""Presentation builders: generator/relator inventories, distinguished
elements, the conjugation-action table, quotients, and serialization."""

from __future__ import annotations

import hashlib
import inspect
import json

import pytest
from hypothesis import given, settings, strategies as st

from braidcomb import (
    GenFamily,
    InvalidArgumentError,
    MissingImageError,
    band_gen,
    exponent_sum,
    orbit_gen,
    parse_word,
)
from braidcomb import presentations
from braidcomb.abelian import FGAbelianGroup, h1, relation_matrix
from braidcomb.presentations import (
    MAX_RELATORS,
    MAX_TOWER_GENERATORS,
    Presentation,
    TowerSpec,
    _conjugation_relator,
    action_conjugator,
    artin_presentation,
    element_C,
    element_D,
    element_E,
    element_Theta,
    element_full_twist,
    export_presentation,
    orbit_presentation,
    parse_presentation,
    quotient_by,
)

# Relator inventories pinned by an independent enumeration of the index
# ranges of the three relation families.
ORBIT_RELATOR_COUNTS = {1: 0, 2: 3, 3: 23, 4: 86, 5: 230, 6: 505}


# --- inventories -------------------------------------------------------------


@pytest.mark.parametrize("n", sorted(ORBIT_RELATOR_COUNTS))
def test_orbit_relator_counts(n):
    p = orbit_presentation(n)
    assert len(p.relators) == ORBIT_RELATOR_COUNTS[n]
    assert len(p.generators) == n * n


def test_orbit_relator_count_closed_form():
    # One relator per actor/target generator pair at distinct levels.
    for n in range(1, 7):
        expected = sum(
            (2 * j - 1) * (2 * k - 1)
            for j in range(1, n + 1)
            for k in range(j + 1, n + 1)
        )
        assert len(orbit_presentation(n).relators) == expected


def test_orbit_n1_is_free_of_rank_one():
    p = orbit_presentation(1)
    assert p.generators == (orbit_gen(1, 0),)
    assert p.relators == ()


def test_orbit_generator_order_is_level_major():
    p = orbit_presentation(3)
    assert p.generators[:4] == (
        orbit_gen(1, 0),
        orbit_gen(2, 0),
        orbit_gen(2, 1),
        orbit_gen(2, 2),
    )
    assert p.generators[4:] == tuple(orbit_gen(3, i) for i in range(5))


def test_artin_inventories():
    assert artin_presentation(1).generators == ()
    p2 = artin_presentation(2)
    assert p2.generators == (band_gen(1, 2),)
    assert p2.relators == ()
    p3 = artin_presentation(3)
    assert len(p3.generators) == 3
    assert len(p3.relators) == 2
    # one relator per (actor, target) pair with actor at a lower level
    for n in range(1, 6):
        expected = sum((k - 1) * (k - 1) * (k - 2) // 2 for k in range(3, n + 1))
        assert len(artin_presentation(n).relators) == expected


def _pair_sum(ranks):
    return sum(ranks[j] * ranks[k] for j in range(len(ranks)) for k in range(j + 1, len(ranks)))


def test_tower_counts_match_the_presentations():
    for n in range(1, 7):
        for tower, p in (
            (TowerSpec(GenFamily.ORBIT, n), orbit_presentation(n)),
            (TowerSpec(GenFamily.BAND, n), artin_presentation(n)),
        ):
            assert tower.generator_count() == len(tower.all_generators()) == len(p.generators)
            assert tower.relator_count() == len(p.relators)


@pytest.mark.parametrize("family", [GenFamily.ORBIT, GenFamily.BAND])
def test_relator_count_closed_form_is_the_pair_sum(family):
    # Up to the tallest tower the generator bound allows; nothing is built.
    n = 1
    while True:
        try:
            tower = TowerSpec(family, n)
        except InvalidArgumentError:
            break
        ranks = [2 * j - 1 if family is GenFamily.ORBIT else j - 1 for j in range(1, n + 1)]
        assert [tower.kernel_rank(j) for j in range(1, n + 1)] == ranks
        assert tower.generator_count() == sum(ranks)
        assert tower.relator_count() == _pair_sum(ranks)
        n += 1
    assert n - 1 == (50 if family is GenFamily.ORBIT else 71)


@pytest.mark.parametrize(
    "family, tallest", [(GenFamily.ORBIT, 50), (GenFamily.BAND, 71)], ids=["orbit", "band"]
)
def test_tower_generator_bound(family, tallest):
    assert TowerSpec(family, tallest).generator_count() <= MAX_TOWER_GENERATORS
    for n in (tallest + 1, 10**9):
        with pytest.raises(InvalidArgumentError, match="MAX_TOWER_GENERATORS=2500"):
            TowerSpec(family, n)


@pytest.mark.parametrize(
    "builder, family, tallest",
    [(orbit_presentation, GenFamily.ORBIT, 14), (artin_presentation, GenFamily.BAND, 20)],
    ids=["orbit", "band"],
)
def test_presentation_relator_bound(no_relators_derived, builder, family, tallest):
    assert TowerSpec(family, tallest).relator_count() <= MAX_RELATORS
    assert TowerSpec(family, tallest + 1).relator_count() > MAX_RELATORS
    readers = [lambda p: p.relators, repr, relation_matrix] + [
        lambda p, fmt=fmt: export_presentation(p, fmt) for fmt in ("text", "json", "gap")
    ]
    for n in (tallest + 1, 50):
        # The tower is within its bound, so the builder returns; only
        # deriving the relators is refused, and H1 reads none of them.
        p = builder(n)
        assert h1(p) == FGAbelianGroup(len(p.generators))
        for read in readers:
            with pytest.raises(InvalidArgumentError, match="MAX_RELATORS=20000"):
                read(p)
    with pytest.raises(InvalidArgumentError, match="MAX_TOWER_GENERATORS"):
        builder(10**9)


def test_imports_refuse_more_relators_than_the_bound():
    text = "generators: r(1,0)\n" + "r(1,0)\n" * MAX_RELATORS
    assert len(parse_presentation(text, "text").relators) == MAX_RELATORS
    with pytest.raises(InvalidArgumentError, match="MAX_RELATORS"):
        parse_presentation(text + "r(1,0)\n", "text")

    payload = {"schema_version": 1, "generators": ["r(1,0)"], "tower": None}
    payload["relators"] = [[]] * MAX_RELATORS
    assert len(parse_presentation(json.dumps(payload), "json").relators) == MAX_RELATORS
    payload["relators"].append([])
    with pytest.raises(InvalidArgumentError, match="MAX_RELATORS"):
        parse_presentation(json.dumps(payload), "json")


def test_json_import_refuses_a_tower_past_the_generator_bound():
    payload = json.loads(export_presentation(orbit_presentation(1), "json"))
    payload["tower"]["n"] = 51
    with pytest.raises(InvalidArgumentError, match="MAX_TOWER_GENERATORS"):
        parse_presentation(json.dumps(payload), "json")


def test_invalid_n_rejected():
    for builder in (orbit_presentation, artin_presentation):
        with pytest.raises(InvalidArgumentError):
            builder(0)


# --- tower metadata ----------------------------------------------------------


def test_orbit_tower_ranks():
    tower = orbit_presentation(4).tower
    assert tower is not None
    assert tower.n == 4
    assert [tower.kernel_rank(j) for j in range(1, 5)] == [1, 3, 5, 7]


def test_artin_tower_ranks():
    tower = artin_presentation(4).tower
    assert [tower.kernel_rank(j) for j in range(1, 5)] == [0, 1, 2, 3]
    assert tower.alphabet(3) == (band_gen(1, 3), band_gen(2, 3))


def test_tower_spec_rejects_bad_shapes():
    with pytest.raises(InvalidArgumentError):
        TowerSpec(GenFamily.ORBIT, 0)


def test_presentation_rejects_a_tower_of_the_wrong_height():
    gens = orbit_presentation(2).generators
    for n in (1, 3):
        with pytest.raises(InvalidArgumentError):
            Presentation(gens, (), TowerSpec(GenFamily.ORBIT, n))


# --- distinguished elements --------------------------------------------------


def test_element_D():
    assert element_D(2, 2).is_identity
    assert element_D(1, 3) == parse_word("r(3,1) r(3,2)")
    assert len(element_D(1, 5)) == 4
    with pytest.raises(InvalidArgumentError):
        element_D(0, 2)
    with pytest.raises(InvalidArgumentError):
        element_D(3, 2)


def test_element_C():
    # With j = k-1 the inner run is empty and C collapses to a conjugate.
    assert element_C(3, 2) == parse_word("r(3,0)^-1 r(3,2) r(3,0)")
    assert element_C(2, 1) == parse_word("r(2,0)^-1 r(2,1) r(2,0)")
    assert element_C(3, 1) == parse_word("r(3,0)^-1 r(3,2)^-1 r(3,1) r(3,2) r(3,0)")
    with pytest.raises(InvalidArgumentError):
        element_C(2, 2)


def test_element_E():
    assert element_E(3, 3, 4) == parse_word("r(3,3) r(3,4)")
    assert element_E(3, 4, 4) == parse_word("r(3,4)")
    for bad in [(3, 4, 3), (3, 2, 4), (3, 3, 5)]:
        with pytest.raises(InvalidArgumentError):
            element_E(*bad)


def test_element_Theta():
    assert element_Theta(2) == parse_word("r(1,0) r(2,0)")
    assert len(element_Theta(5)) == 5


def test_element_full_twist():
    assert element_full_twist(1).is_identity
    assert element_full_twist(2) == parse_word("A(1,2)")
    assert element_full_twist(3) == parse_word("A(1,2) A(1,3) A(2,3)")


# --- the action table --------------------------------------------------------


def conj_image(actor, target):
    u = action_conjugator(actor, target)
    t = parse_word(str(target))
    return u * t * u.inverse()


def test_action_lowest_actor_on_level_two():
    # r(1,0) acting on the level-2 alphabet.
    assert conj_image(orbit_gen(1, 0), orbit_gen(2, 0)) == parse_word("r(2,0)")
    assert conj_image(orbit_gen(1, 0), orbit_gen(2, 1)) == element_C(2, 1)
    # l = k+j-1 with j=1: the long right-hand side freely collapses to a
    # single r(2,0)-conjugate once the empty runs are substituted.
    assert conj_image(orbit_gen(1, 0), orbit_gen(2, 2)) == parse_word(
        "r(2,0)^-1 r(2,2) r(2,0)"
    )


def test_action_family_two_spot_values():
    # r(2,1) fixes r(3,0) and sends r(3,1) to its r(3,2)-conjugate.
    assert conj_image(orbit_gen(2, 1), orbit_gen(3, 0)) == parse_word("r(3,0)")
    assert conj_image(orbit_gen(2, 1), orbit_gen(3, 1)) == parse_word(
        "r(3,2)^-1 r(3,1) r(3,2)"
    )
    assert conj_image(orbit_gen(2, 1), orbit_gen(3, 2)) == parse_word(
        "r(3,2)^-1 r(3,1)^-1 r(3,2) r(3,1) r(3,2)"
    )
    assert conj_image(orbit_gen(2, 1), orbit_gen(3, 3)) == parse_word(
        "r(3,3) r(3,4) r(3,3) r(3,4)^-1 r(3,3)^-1"
    )
    assert conj_image(orbit_gen(2, 1), orbit_gen(3, 4)) == parse_word(
        "r(3,3) r(3,4) r(3,3)^-1"
    )


def test_action_family_three_spot_values():
    # r(2,2) is the smallest third-family actor.
    assert conj_image(orbit_gen(2, 2), orbit_gen(3, 0)) == parse_word("r(3,0)")
    assert conj_image(orbit_gen(2, 2), orbit_gen(3, 3)) == parse_word(
        "r(3,2)^-1 r(3,3) r(3,2)"
    )
    assert conj_image(orbit_gen(2, 2), orbit_gen(3, 2)) == parse_word(
        "r(3,2)^-1 r(3,3)^-1 r(3,2) r(3,3) r(3,2)"
    )
    # Top prime letter: the same commutator that dresses the generic spans,
    # wrapped around a C-element conjugate.
    assert conj_image(orbit_gen(2, 2), orbit_gen(3, 4)) == parse_word(
        "r(3,2)^-1 r(3,3)^-1 r(3,2)"
        " r(3,0)^-1 r(3,2)^-1 r(3,1) r(3,2) r(3,0) r(3,3)"
        " r(3,4)"
        " r(3,3)^-1 r(3,0)^-1 r(3,2)^-1 r(3,1)^-1 r(3,2) r(3,0)"
        " r(3,2)^-1 r(3,3) r(3,2)"
    )


def test_band_action_four_cases():
    # strands disjoint -> fixed; i = r, interleaved, i = s -> conjugates
    assert conj_image(band_gen(1, 2), band_gen(3, 4)) == parse_word("A(3,4)")
    assert conj_image(band_gen(2, 3), band_gen(1, 4)) == parse_word("A(1,4)")
    assert conj_image(band_gen(1, 2), band_gen(1, 3)) == parse_word(
        "A(2,3)^-1 A(1,3) A(2,3)"
    )
    assert conj_image(band_gen(1, 3), band_gen(2, 4)) == parse_word(
        "A(3,4)^-1 A(1,4)^-1 A(3,4) A(1,4) A(2,4) A(1,4)^-1 A(3,4)^-1 A(1,4) A(3,4)"
    )
    assert conj_image(band_gen(1, 3), band_gen(3, 4)) == parse_word(
        "A(3,4)^-1 A(1,4)^-1 A(3,4) A(1,4) A(3,4)"
    )


def test_action_rejects_bad_pairs():
    with pytest.raises(InvalidArgumentError):
        action_conjugator(orbit_gen(2, 0), orbit_gen(2, 1))  # same level
    with pytest.raises(InvalidArgumentError):
        action_conjugator(orbit_gen(3, 0), orbit_gen(2, 1))  # wrong way up
    with pytest.raises(InvalidArgumentError):
        action_conjugator(orbit_gen(1, 0), band_gen(1, 2))  # mixed alphabets


def test_relators_abelianize_to_zero():
    # Conjugation relators must vanish under abelianization, generator by
    # generator; this exercises every case of the action table at once.
    for p in (orbit_presentation(4), artin_presentation(4)):
        for relator in p.relators:
            for sym in relator.symbols():
                assert exponent_sum(relator, sym) == 0


def test_relator_for_lowest_pair():
    p = orbit_presentation(2)
    # Enumeration order is (family, j, i, k, l); the first relator is the
    # actor r(1,0) against target r(2,0), which commute.
    assert p.relators[0] == parse_word("r(1,0) r(2,0) r(1,0)^-1 r(2,0)^-1")


# --- quotients ---------------------------------------------------------------


def test_quotient_by_appends_and_preserves():
    base = orbit_presentation(1)
    theta_sq = element_Theta(1) * element_Theta(1)
    q = quotient_by(base, [theta_sq])
    assert q.relators == (parse_word("r(1,0) r(1,0)"),)
    assert q.tower is None
    assert base.relators == ()  # input untouched
    assert quotient_by(base, []).relators == base.relators


def test_quotient_by_rejects_foreign_symbols():
    with pytest.raises(MissingImageError):
        quotient_by(artin_presentation(2), [parse_word("r(1,0)")])


def test_builders_mark_the_tower_relators_and_quotients_keep_the_mark():
    for p in (orbit_presentation(3), artin_presentation(4)):
        assert p._marked == (p.tower, ())
        w = parse_word(str(p.generators[0]) + " " + str(p.generators[0]))
        q = quotient_by(p, [w])
        assert q._marked == (p.tower, (w,)) and q.tower is None
        assert quotient_by(q, [w])._marked == (p.tower, (w, w))
        assert q.relators == p.relators + (w,)
        # The mark is invisible to equality, hashing and repr.
        plain = Presentation(p.generators, p.relators, p.tower)
        assert plain._marked is None
        assert plain == p and hash(plain) == hash(p) and repr(plain) == repr(p)
        assert Presentation(q.generators, q.relators) == q
    assert "_marked" not in inspect.signature(Presentation).parameters


def test_marked_relators_are_built_on_first_read(monkeypatch):
    built = []
    derive = presentations._tower_relators
    monkeypatch.setattr(
        presentations, "_tower_relators", lambda tower: built.append(tower) or derive(tower)
    )
    p = orbit_presentation(3)
    q = quotient_by(p, [element_Theta(3)])
    assert built == []
    assert len(q.relators) == ORBIT_RELATOR_COUNTS[3] + 1
    assert built == [p.tower]
    assert q.relators is q.relators and built == [p.tower]
    with pytest.raises(AttributeError):
        p.no_such_attribute


def test_quotient_by_validates_each_extra():
    p = orbit_presentation(2)
    good = parse_word("r(2,1) r(1,0)")
    with pytest.raises(MissingImageError) as info:
        quotient_by(p, [good, parse_word("r(2,1) r(3,0)")])
    assert info.value.symbol == orbit_gen(3, 0)


def _zero_sum(word):
    totals = {}
    for letter in word.letters:
        totals[letter.symbol] = totals.get(letter.symbol, 0) + letter.exponent
    return not any(totals.values())


@st.composite
def _actor_target(draw):
    """An (actor, target) pair at levels j < k of either tower, up to the
    tallest tower MAX_TOWER_GENERATORS allows."""
    if draw(st.booleans()):
        k = draw(st.integers(2, 50))
        j = draw(st.integers(1, k - 1))
        actor = orbit_gen(j, draw(st.integers(0, 2 * j - 2)))
        return actor, orbit_gen(k, draw(st.integers(0, 2 * k - 2)))
    k = draw(st.integers(3, 71))
    s = draw(st.integers(2, k - 1))
    actor = band_gen(draw(st.integers(1, s - 1)), s)
    return actor, band_gen(draw(st.integers(1, k - 1)), k)


@settings(deadline=None)
@given(_actor_target())
def test_every_conjugation_relator_abelianizes_to_zero(pair):
    # Why h1 may skip the tower's relators: each one has exponent sum zero
    # in every generator.
    assert _zero_sum(_conjugation_relator(*pair))


# --- serialization -----------------------------------------------------------


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_round_trip(fmt):
    for p in (
        orbit_presentation(1),
        orbit_presentation(3),
        artin_presentation(1),
        artin_presentation(4),
        quotient_by(orbit_presentation(2), [element_Theta(2) * element_Theta(2)]),
    ):
        back = parse_presentation(export_presentation(p, fmt), fmt)
        assert back.generators == p.generators
        assert back.relators == p.relators
        assert back._marked is None  # an import is never marked
        if fmt == "json":
            assert back == p  # tower survives json


def test_json_import_rejects_a_tower_of_the_wrong_height():
    payload = json.loads(export_presentation(orbit_presentation(2), "json"))
    payload["tower"]["n"] = 3
    with pytest.raises(InvalidArgumentError):
        parse_presentation(json.dumps(payload), "json")


def test_json_import_names_a_tower_family_of_no_alphabet():
    payload = json.loads(export_presentation(orbit_presentation(2), "json"))
    payload["tower"]["family"] = "p"
    with pytest.raises(InvalidArgumentError, match="unknown tower family 'p'"):
        parse_presentation(json.dumps(payload), "json")


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda d: d["tower"].update(family="q"), id="unknown-family"),
        pytest.param(lambda d: d["tower"].update(n="two"), id="non-integer-n"),
        pytest.param(lambda d: d.pop("generators"), id="missing-generators"),
        pytest.param(lambda d: d["relators"][0].__setitem__(0, ["r(2,0)"]), id="bad-letter"),
    ],
)
def test_json_import_raises_typed_errors(edit):
    payload = json.loads(export_presentation(orbit_presentation(2), "json"))
    edit(payload)
    with pytest.raises(InvalidArgumentError):
        parse_presentation(json.dumps(payload), "json")


def _json(**fields):
    return json.dumps({"schema_version": 1, "generators": [], "relators": [], **fields})


@pytest.mark.parametrize(
    "build, error, bad",
    [
        (lambda: TowerSpec(GenFamily.ORBIT, 2).kernel_rank(0), InvalidArgumentError, "level 0"),
        (lambda: TowerSpec(GenFamily.ORBIT, 2).alphabet(3), InvalidArgumentError, "level 3"),
        (lambda: TowerSpec(GenFamily.ORBIT), TypeError, "'n'"),
        (
            lambda: Presentation((orbit_gen(1, 0), orbit_gen(2, 0), orbit_gen(1, 0)), ()),
            InvalidArgumentError,
            "r(1,0)",
        ),
        (lambda: element_Theta(0), InvalidArgumentError, "got 0"),
        (lambda: element_full_twist(0), InvalidArgumentError, "got 0"),
        (lambda: parse_presentation("r(1,0)\n", "text"), InvalidArgumentError, "'r(1,0)'"),
        (lambda: parse_presentation("", "text"), InvalidArgumentError, "''"),
        (lambda: parse_presentation(_json(generators=[7]), "json"), InvalidArgumentError, "7"),
        (
            lambda: parse_presentation(_json(generators=["r(1,0) r(2,0)"]), "json"),
            InvalidArgumentError,
            "'r(1,0) r(2,0)'",
        ),
        (lambda: parse_presentation('{"schema_version": 1,', "json"), InvalidArgumentError, "char 21"),
        (lambda: parse_presentation("[1]", "json"), InvalidArgumentError, "list"),
        (lambda: parse_presentation(_json(schema_version=2), "json"), InvalidArgumentError, "got 2"),
    ],
    ids=[
        "kernel-rank-0", "alphabet-past-n", "tower-without-n", "duplicate-generator",
        "theta-0", "full-twist-0", "text-without-generators", "text-empty",
        "json-non-string-token", "json-two-letter-token", "json-malformed", "json-not-an-object",
        "json-schema-2",
    ],
)
def test_refusals_are_typed_and_name_the_bad_value(build, error, bad):
    with pytest.raises(error) as refused:
        build()
    assert bad in str(refused.value)


def test_gap_export_of_the_empty_presentation():
    script = export_presentation(Presentation((), ()), "gap")
    assert script == "F := FreeGroup(0);;\nrels := [];;\nG := F / rels;;"


# sha256 of the text exports of G_4 and P_5.  Export bytes and seeded
# relator sampling depend on the relator order, so a reordering shows here.
PINNED_EXPORT_SHA256 = {
    "G4": "48b03e4aecde1cb27fb86418c3a21b466c15543b0007884a3beb51268d55b2f2",
    "P5": "046604c66acae1cc0e20d9c0008dc2b3aff350d049f20ea9bd4eba704fb8f48c",
}


def test_relator_order_is_pinned():
    for name, p in (("G4", orbit_presentation(4)), ("P5", artin_presentation(5))):
        text = export_presentation(p, "text")
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_EXPORT_SHA256[name]


def test_text_export_shape():
    text = export_presentation(orbit_presentation(1), "text")
    assert text == "generators: r(1,0)\n(no relators)"
    text2 = export_presentation(orbit_presentation(2), "text")
    lines = text2.splitlines()
    assert lines[0] == "generators: r(1,0) r(2,0) r(2,1) r(2,2)"
    assert len(lines) == 1 + 3


def test_gap_export_mentions_each_generator():
    script = export_presentation(orbit_presentation(2), "gap")
    assert 'FreeGroup("r_1_0", "r_2_0", "r_2_1", "r_2_2")' in script
    assert script.rstrip().endswith("G := F / rels;;")
    with pytest.raises(InvalidArgumentError):
        parse_presentation(script, "gap")


def test_unknown_format_rejected():
    with pytest.raises(InvalidArgumentError):
        export_presentation(orbit_presentation(1), "xml")


def test_presentation_validates_relator_support():
    with pytest.raises(MissingImageError):
        Presentation((orbit_gen(1, 0),), (parse_word("r(2,0)"),))
