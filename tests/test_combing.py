"""Normal forms: the combing engine, sections, and the centre check."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from braidcomb.combing import (
    CenterReport,
    NormalForm,
    center_check,
    comb,
    conjugation_action,
    is_identity,
    project_qn,
    section_sn,
    section_sprime,
    theta_decompose,
    words_equal,
)
from braidcomb.errors import InvalidArgumentError, WordSizeExceededError
from braidcomb.presentations import (
    artin_presentation,
    element_Theta,
    orbit_presentation,
)
from braidcomb.words import (
    IDENTITY,
    Letter,
    Word,
    band_gen,
    exponent_sum,
    orbit_gen,
    parse_word,
)

G2 = orbit_presentation(2)
G3 = orbit_presentation(3)
G4 = orbit_presentation(4)
P4 = artin_presentation(4)


def gen_word(symbol, exponent=1):
    return Word((Letter(symbol, exponent),))


# --- an independent oracle: pure braids as automorphisms of a free group ---
#
# Bands act faithfully on the free group generated by the strands:
# the half-twist on adjacent strands i, i+1 sends x_i to x_i x_{i+1} x_i^-1
# and x_{i+1} to x_i.  Equality of band words can therefore be decided with
# no reference to the relation tables under test.


def _aut_apply(aut, word):
    out = []
    for v in word:
        image = aut[abs(v) - 1]
        seq = image if v > 0 else tuple(-u for u in reversed(image))
        for u in seq:
            if out and out[-1] == -u:
                out.pop()
            else:
                out.append(u)
    return tuple(out)


def _aut_compose(f, g):
    return [_aut_apply(f, image) for image in g]


def _sigma_aut(i, n, sign):
    aut = [(c,) for c in range(1, n + 1)]
    if sign == 1:
        aut[i - 1] = (i, i + 1, -i)
        aut[i] = (i,)
    else:
        aut[i - 1] = (i + 1,)
        aut[i] = (-(i + 1), i, i + 1)
    return aut


def _band_aut(r, s, n, sign):
    seq = (
        [(q, 1) for q in range(s - 1, r, -1)]
        + [(r, 1), (r, 1)]
        + [(q, -1) for q in range(r + 1, s)]
    )
    if sign == -1:
        seq = [(q, -e) for q, e in reversed(seq)]
    aut = [(c,) for c in range(1, n + 1)]
    for q, e in seq:
        aut = _aut_compose(aut, _sigma_aut(q, n, e))
    return aut


def _band_word_aut(word, n):
    aut = [(c,) for c in range(1, n + 1)]
    for letter in word.letters:
        i, j = letter.symbol.indices
        aut = _aut_compose(aut, _band_aut(i, j, n, letter.exponent))
    return aut


def _all_band_pairs(n):
    bands = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    for r, s in bands:
        for i, k in bands:
            if s < k:
                yield band_gen(r, s), band_gen(i, k)


def test_band_action_matches_strand_automorphisms():
    tower = P4.tower
    for actor, target in _all_band_pairs(4):
        a, t = gen_word(actor), gen_word(target)
        image = conjugation_action(tower, Letter(actor), Letter(target))
        assert _band_word_aut(a * t * a.inverse(), 4) == _band_word_aut(image, 4)


def test_inverse_band_action_matches_strand_automorphisms():
    tower = P4.tower
    for actor, target in _all_band_pairs(4):
        a, t = gen_word(actor), gen_word(target)
        image = conjugation_action(tower, Letter(actor, -1), Letter(target))
        assert _band_word_aut(a.inverse() * t * a, 4) == _band_word_aut(image, 4)


# --- conjugation_action ---


def test_action_handles_signed_targets():
    tower = G3.tower
    plus = conjugation_action(tower, Letter(orbit_gen(1, 0)), Letter(orbit_gen(2, 1)))
    minus = conjugation_action(
        tower, Letter(orbit_gen(1, 0)), Letter(orbit_gen(2, 1), -1)
    )
    assert minus == plus.inverse()


def test_inverse_action_undoes_action_everywhere():
    tower = G4.tower
    for actor in tower.all_generators():
        for target in tower.all_generators():
            if actor.level >= target.level:
                continue
            image = conjugation_action(tower, Letter(actor), Letter(target))
            pulled_back = IDENTITY
            for letter in image.letters:
                pulled_back = pulled_back * conjugation_action(
                    tower, Letter(actor, -1), letter
                )
            assert pulled_back == gen_word(target)


def test_action_rejects_bad_levels():
    tower = G3.tower
    with pytest.raises(InvalidArgumentError):
        conjugation_action(tower, Letter(orbit_gen(2, 1)), Letter(orbit_gen(2, 0)))
    with pytest.raises(InvalidArgumentError):
        conjugation_action(tower, Letter(orbit_gen(3, 1)), Letter(orbit_gen(2, 0)))
    with pytest.raises(InvalidArgumentError):
        conjugation_action(tower, Letter(band_gen(1, 2)), Letter(orbit_gen(3, 0)))


# --- comb basics ---


def test_comb_two_letter_example():
    nf = comb(G2, parse_word("r(1,0) r(2,0)"))
    assert nf.levels == (parse_word("r(2,0)"), parse_word("r(1,0)"))
    assert nf.level_word(2) == parse_word("r(2,0)")
    assert nf.to_word() == parse_word("r(2,0) r(1,0)")


def test_comb_identity():
    nf = comb(G3, IDENTITY)
    assert nf.levels == (IDENTITY, IDENTITY, IDENTITY)
    assert nf.to_word().is_identity


def test_comb_central_conjugation():
    theta = element_Theta(3)
    target = gen_word(orbit_gen(3, 1))
    assert comb(G3, theta * target * theta.inverse()) == comb(G3, target)


def test_comb_leaves_single_level_words_alone():
    w = parse_word("r(2,1) r(2,0)^-1 r(2,1)")
    nf = comb(G3, w)
    assert nf.levels == (IDENTITY, w, IDENTITY)


def test_normal_form_rejects_misplaced_letters():
    with pytest.raises(InvalidArgumentError):
        NormalForm((parse_word("r(1,0)"), parse_word("r(1,0)")))


def test_comb_rejects_towerless_presentations():
    from braidcomb.presentations import quotient_by

    p = quotient_by(G2, [])
    with pytest.raises(InvalidArgumentError):
        comb(p, parse_word("r(1,0)"))


def test_comb_rejects_foreign_letters():
    with pytest.raises(InvalidArgumentError):
        comb(G2, parse_word("r(3,0)"))
    with pytest.raises(InvalidArgumentError):
        comb(G2, parse_word("A(1,2)"))


def test_word_cap_on_input():
    with pytest.raises(WordSizeExceededError) as err:
        comb(G3, element_Theta(3) * element_Theta(3), word_cap=5)
    assert err.value.length == 6
    assert err.value.cap == 5


def test_word_cap_during_combing():
    w = parse_word("r(1,0) r(3,4) r(3,2) r(3,4) r(1,0)^-1")
    with pytest.raises(WordSizeExceededError) as err:
        comb(G3, w, word_cap=8)
    assert err.value.cap == 8
    assert err.value.length > 8
    comb(G3, w)  # default cap is roomy


# --- words_equal / is_identity ---


def test_words_equal_spec_examples():
    theta = element_Theta(2)
    g = gen_word(orbit_gen(2, 1))
    assert words_equal(G2, theta * g, g * theta)
    assert not words_equal(G2, gen_word(orbit_gen(1, 0)) * g, g * gen_word(orbit_gen(1, 0)))


def test_is_identity_on_commutator_with_theta():
    theta = element_Theta(2)
    g = gen_word(orbit_gen(2, 0))
    assert is_identity(G2, theta * g * theta.inverse() * g.inverse())
    assert not is_identity(G2, g)


# --- hypothesis: the defining laws of the normal form ---


def _letters(p):
    return st.builds(
        Letter,
        st.sampled_from(p.generators),
        st.sampled_from((1, -1)),
    )


def _words(p, max_size=8):
    from braidcomb.words import reduce as _reduce

    return st.lists(_letters(p), max_size=max_size).map(_reduce)


@settings(max_examples=60, deadline=None)
@given(
    w=_words(G3),
    relator=st.sampled_from(G3.relators),
    sign=st.sampled_from((1, -1)),
    data=st.data(),
)
def test_relator_insertion_is_invisible(w, relator, sign, data):
    cut = data.draw(st.integers(min_value=0, max_value=len(w)))
    inserted = relator if sign == 1 else relator.inverse()
    left = Word(w.letters[:cut]) if cut else IDENTITY
    right = Word(w.letters[cut:]) if cut < len(w) else IDENTITY
    assert comb(G3, left * inserted * right) == comb(G3, w)


@settings(max_examples=60, deadline=None)
@given(w=_words(G3))
def test_comb_is_idempotent_on_its_output(w):
    nf = comb(G3, w)
    assert comb(G3, nf.to_word()) == nf


@settings(max_examples=60, deadline=None)
@given(u=_words(G3), v=_words(G3))
def test_comb_respects_multiplication(u, v):
    flat = comb(G3, u).to_word() * comb(G3, v).to_word()
    assert words_equal(G3, u * v, flat)


@settings(max_examples=60, deadline=None)
@given(w=_words(P4))
def test_band_tower_combs_too(w):
    nf = comb(P4, w)
    assert words_equal(P4, w, nf.to_word())


# --- projections and sections ---


def test_project_deletes_top_level():
    w = parse_word("r(1,0) r(3,2) r(2,1) r(3,0)^-1")
    assert project_qn(w, 3) == parse_word("r(1,0) r(2,1)")


def test_project_reduces_after_deletion():
    w = parse_word("r(2,1) r(3,0) r(2,1)^-1")
    assert project_qn(w, 3) == IDENTITY


def test_project_validates():
    with pytest.raises(InvalidArgumentError):
        project_qn(parse_word("r(3,0)"), 2)
    with pytest.raises(InvalidArgumentError):
        project_qn(parse_word("r(1,0)"), 1)


def test_sections_validate_levels():
    with pytest.raises(InvalidArgumentError):
        section_sn(parse_word("r(3,0)"), 3)
    with pytest.raises(InvalidArgumentError):
        section_sprime(parse_word("r(3,0)"), 3)


def test_section_sn_is_verbatim():
    w = parse_word("r(2,1) r(1,0)^-1")
    assert section_sn(w, 3) == w
    assert project_qn(section_sn(w, 3), 3) == w


def test_section_sprime_doubles_the_right_generator():
    assert section_sprime(parse_word("r(2,0)"), 3) == parse_word("r(2,0) r(3,0)")
    assert section_sprime(parse_word("r(2,0)^-1"), 3) == parse_word("r(3,0)^-1 r(2,0)^-1")
    assert section_sprime(parse_word("r(2,1)"), 3) == parse_word("r(2,1)")


def test_section_sprime_sends_theta_to_theta():
    assert section_sprime(element_Theta(2), 3) == element_Theta(3)


@settings(max_examples=60, deadline=None)
@given(w=_words(G2))
def test_projection_splits_both_sections(w):
    assert project_qn(section_sn(w, 3), 3) == w
    assert project_qn(section_sprime(w, 3), 3) == w


# --- theta decomposition ---


def test_theta_decompose_examples():
    e, rem = theta_decompose(G3, element_Theta(3) * element_Theta(3))
    assert (e, rem) == (2, IDENTITY)
    e, rem = theta_decompose(G3, gen_word(orbit_gen(3, 1)))
    assert (e, rem) == (0, gen_word(orbit_gen(3, 1)))


def test_theta_decompose_needs_orbit_tower():
    with pytest.raises(InvalidArgumentError):
        theta_decompose(P4, parse_word("A(1,2)"))


@settings(max_examples=60, deadline=None)
@given(w=_words(G3))
def test_theta_decompose_is_a_retraction(w):
    e, rem = theta_decompose(G3, w)
    assert exponent_sum(rem, orbit_gen(1, 0)) == 0
    theta = element_Theta(3)
    power = IDENTITY
    for _ in range(abs(e)):
        power = power * (theta if e > 0 else theta.inverse())
    assert words_equal(G3, power * rem, w)
    again_e, again_rem = theta_decompose(G3, power * rem)
    assert again_e == e
    assert comb(G3, again_rem) == comb(G3, rem)


# --- the centre ---


def test_center_check_n1():
    report = center_check(orbit_presentation(1))
    assert report.ok
    assert report.theta_powers == (orbit_gen(1, 0),)
    assert report.witnesses == ()


def test_center_check_n2_witnesses():
    report = center_check(G2)
    assert isinstance(report, CenterReport)
    assert report.ok
    assert report.theta_commutes
    assert report.commutation_failures == ()
    assert report.theta_powers == ()
    found = dict(report.witnesses)
    assert found[orbit_gen(1, 0)] == orbit_gen(2, 1)
    assert all(h is not None for h in found.values())


def test_center_check_n3():
    report = center_check(G3)
    assert report.ok
    assert len(report.witnesses) == 9


def test_center_check_validates_presentation():
    with pytest.raises(InvalidArgumentError):
        center_check(P4)
