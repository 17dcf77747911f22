"""Fibre group calculus: deltas, tau_hat, boundary images, splitting checks."""

from __future__ import annotations

import hashlib
import json
import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from braidcomb import abelian, combing, fibration
from braidcomb.abelian import FGAbelianGroup, IntMatrix, cokernel, smith_normal_form
from braidcomb.errors import InvalidArgumentError, NoUnitCoordinateError, WordSizeExceededError
from braidcomb.fibration import (
    MAX_SPLIT_N,
    ExactnessReport,
    FibreElement,
    Surface,
    boundary_image,
    boundary_matrix_ab,
    boundary_sum_identity,
    delta_generator,
    exactness_report,
    fibre_elements_equal,
    fibre_presentation,
    iota_sharp_vector,
    nonsplit_witness_s2,
    pi2_basis,
    quotient_check,
    split_ses_check,
    strict_corollary_discrepancy,
    strict_corollary_image,
    tau_hat,
)
from braidcomb.words import IDENTITY, Letter, Word, exponent_sum, orbit_gen, parse_word
from braidcomb.words import reduce as reduce_word

S2 = Surface.S2
RP2 = Surface.RP2

Z = FGAbelianGroup(1)
Z2 = FGAbelianGroup(0, (2,))
Z3 = FGAbelianGroup(0, (3,))
Z_PLUS_Z2 = FGAbelianGroup(1, (2,))


# --- surfaces, elements, bases --------------------------------------------------


def test_surface_constants():
    assert S2.n0 == 3 and RP2.n0 == 2
    assert Surface("s2") is S2 and Surface("rp2") is RP2


def test_fibre_element_validation():
    with pytest.raises(InvalidArgumentError):
        FibreElement(S2, 3, IDENTITY, (0,))  # wrong vector length
    with pytest.raises(InvalidArgumentError):
        FibreElement(S2, 3, parse_word("r(1,0)"), (0, 0))  # wrong alphabet
    with pytest.raises(InvalidArgumentError):
        FibreElement(S2, 3, parse_word("A(1,3)"), (0, 0))  # level too high
    with pytest.raises(InvalidArgumentError):
        FibreElement(RP2, 1, IDENTITY, ())  # below n0
    for z_part in ((0.5, "x"), (1, 2.0), (0, None)):  # not ints
        with pytest.raises(InvalidArgumentError, match="expected int z_part exponents"):
            FibreElement(S2, 3, IDENTITY, z_part)


def test_fibre_element_algebra():
    a = FibreElement(RP2, 3, parse_word("r(2,1)"), (1, 0))
    b = FibreElement(RP2, 3, parse_word("r(2,1)^-1 r(1,0)"), (0, -2))
    assert (a * b).r_part == parse_word("r(1,0)")
    assert (a * b).z_part == (1, -2)
    assert (a * a.inverse()).is_identity
    with pytest.raises(InvalidArgumentError):
        a * FibreElement(RP2, 4, IDENTITY, (0, 0, 0))


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: split_ses_check(FGAbelianGroup(1), 1, (1,)), "n = 1"),
        (lambda: split_ses_check(FGAbelianGroup(1), 3, (1, 1)), "length 2"),
    ],
    ids=["split-n-1", "split-short-vector"],
)
def test_refusals_are_typed_and_name_the_bad_value(build, bad):
    with pytest.raises(InvalidArgumentError) as refused:
        build()
    assert bad in str(refused.value)


@pytest.mark.parametrize("other", [parse_word("r(2,1)"), 2], ids=["word", "int"])
def test_a_fibre_element_times_another_type_is_a_type_error(other):
    a = FibreElement(RP2, 3, parse_word("r(2,1)"), (1, 0))
    with pytest.raises(TypeError, match="unsupported operand"):
        a * other
    with pytest.raises(TypeError, match="unsupported operand"):
        other * a


@st.composite
def _fibre_elements(draw):
    """(surface, n) and a few elements of its fibre group."""
    surface = draw(st.sampled_from((S2, RP2)))
    n = draw(st.integers(surface.n0, 5))
    gens = fibre_presentation(surface, n).generators
    letters = st.builds(Letter, st.sampled_from(gens), st.sampled_from((1, -1)))
    elements = st.builds(
        lambda raw, z: FibreElement(surface, n, reduce_word(raw), tuple(z)),
        st.lists(letters, max_size=8),
        st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1),
    )
    return draw(st.lists(elements, min_size=1, max_size=4))


def _rebuilt(e: FibreElement) -> FibreElement:
    """e through the checking constructors of FibreElement and Word."""
    return FibreElement(e.surface, e.n, Word(e.r_part.letters), e.z_part)


@settings(deadline=None)
@given(_fibre_elements())
def test_trusted_products_and_inverses_equal_their_checked_rebuild(elements):
    built = elements[0]
    for e in elements[1:]:
        built = built * e.inverse() * e * e
        assert _rebuilt(built) == built
    inverse = built.inverse()
    assert _rebuilt(inverse) == inverse
    assert (built * inverse).is_identity


def test_a_foreign_letter_still_raises_in_the_constructor():
    a = FibreElement(S2, 4, parse_word("A(1,2) A(2,3)"), (1, 0, 0))
    assert (a * a.inverse()).is_identity
    for foreign in ("r(1,0)", "A(1,4)", "A(2,3) A(3,4)"):
        with pytest.raises(InvalidArgumentError, match="outside the fibre alphabet"):
            FibreElement(S2, 4, parse_word(foreign), (0, 0, 0))
    with pytest.raises(InvalidArgumentError, match="outside the fibre alphabet"):
        FibreElement(RP2, 3, parse_word("r(3,0)"), (0, 0))


def test_fibre_elements_equal_uses_group_equality():
    # Theta_2 is central in the level-2 group, so conjugating by it fixes
    # every element even though the words differ letter by letter.
    theta = parse_word("r(1,0) r(2,0)")
    conjugated = theta * parse_word("r(2,1)") * theta.inverse()
    a = FibreElement(RP2, 3, conjugated, (0, 5))
    b = FibreElement(RP2, 3, parse_word("r(2,1)"), (0, 5))
    assert fibre_elements_equal(a, b)
    assert not fibre_elements_equal(a, FibreElement(RP2, 3, parse_word("r(2,1)"), (1, 5)))
    with pytest.raises(InvalidArgumentError):
        fibre_elements_equal(a, FibreElement(RP2, 4, IDENTITY, (0, 0, 0)))


def _fibre_word_pairs(surface, n, rng):
    """Pairs of braid parts over the fibre alphabet of (surface, n): a word
    with itself, with a fibre relator inserted into it, and two words of
    one length that differ in their last letter."""
    p = fibre_presentation(surface, n)
    letters = [Letter(g, e) for g in p.generators for e in (1, -1)]
    for _ in range(6):
        u = reduce_word([rng.choice(letters) for _ in range(rng.randrange(1, 12))])
        at = rng.randrange(len(u) + 1)
        relator = rng.choice(p.relators)
        yield u, u
        yield u, reduce_word(u.letters[:at] + relator.letters + u.letters[at:])
        last = u.letters[-1]
        g, h = rng.sample([x for x in letters if x != Letter(last.symbol, -last.exponent)], 2)
        yield u * Word((g,)), u * Word((h,))
    twist = tau_hat(surface, n).r_part
    yield twist * twist, twist * twist


@pytest.mark.parametrize(
    "surface, n", [(S2, 4), (S2, 5), (S2, 6), (RP2, 3), (RP2, 4), (RP2, 5)]
)
def test_fibre_elements_equal_agrees_with_words_equal(surface, n):
    # Identical words skip the comb; the answer must be the comb's anyway.
    rng = random.Random(n)
    zero = (0,) * (n - 1)
    tower = fibration._fibre_tower(surface, n)
    kinds = set()
    for u, v in _fibre_word_pairs(surface, n, rng):
        expected = combing.words_equal(tower, u, v)
        a, b = FibreElement(surface, n, u, zero), FibreElement(surface, n, v, zero)
        assert fibre_elements_equal(a, b) is expected, (u, v)
        kinds.add((u == v, expected))
    assert kinds == {(True, True), (False, True), (False, False)}


def test_only_different_words_are_combed(monkeypatch):
    counts = {"comb": 0}
    _counting(monkeypatch, combing, "comb", counts)
    for surface, n in ((S2, 7), (RP2, 6)):
        assert boundary_sum_identity(surface, n).ok
    assert counts["comb"] == 0
    theta = parse_word("r(1,0) r(2,0)")
    a = FibreElement(RP2, 3, theta * parse_word("r(2,1)") * theta.inverse(), (0, 0))
    b = FibreElement(RP2, 3, parse_word("r(2,1)"), (0, 0))
    assert fibre_elements_equal(a, b)
    assert counts["comb"] == 2


def test_an_identical_pair_past_the_cap_is_refused_as_an_input_word():
    # Past the cap, the pair is combed and refused as words_equal refuses
    # it; at the cap it is decided without a comb, whose intermediate
    # words would pass the cap.
    w = tau_hat(S2, 6).r_part
    cap = len(w) - 1
    with pytest.raises(WordSizeExceededError) as combed:
        combing.words_equal(fibration._fibre_tower(S2, 6), w, w, cap)
    a = FibreElement(S2, 6, w, (0,) * 5)
    with pytest.raises(WordSizeExceededError) as refused:
        fibre_elements_equal(a, a, cap)
    assert refused.value.length == combed.value.length == len(w)
    assert str(refused.value) == str(combed.value) == f"input word of length {len(w)} exceeds the cap of {cap}"
    assert fibre_elements_equal(a, a, len(w))


def test_pi2_basis_labels():
    assert pi2_basis(S2, 3) == ("x0", "z0", "-z0")
    assert pi2_basis(S2, 5) == ("x0", "x1", "x2", "z0", "-z0")
    assert pi2_basis(RP2, 2) == ("x0", "z0")
    assert pi2_basis(RP2, 4) == ("x0", "x1", "x2", "z0")
    assert type(pi2_basis(S2, 4)) is tuple
    for surface in (S2, RP2):
        for n in range(surface.n0, 7):
            assert len(pi2_basis(surface, n)) == n
    assert "z0" in pi2_basis(RP2, 2)
    assert "-z0" not in pi2_basis(RP2, 2)
    with pytest.raises(InvalidArgumentError):
        pi2_basis(S2, 2)


# --- distinguished elements -----------------------------------------------------


def test_delta_generator_pins():
    d = delta_generator(RP2, 2, 0)
    assert d.r_part.is_identity and d.z_part == (1,)
    assert delta_generator(S2, 3, 1).z_part == (0, 1)
    with pytest.raises(InvalidArgumentError):
        delta_generator(RP2, 2, 1)
    with pytest.raises(InvalidArgumentError):
        delta_generator(S2, 3, -1)


def test_tau_hat_pins():
    assert tau_hat(RP2, 2).r_part == parse_word("r(1,0)^-1")
    assert tau_hat(RP2, 2).z_part == (0,)
    assert tau_hat(S2, 3).r_part == parse_word("A(1,2)")
    assert tau_hat(RP2, 4).r_part == parse_word("r(3,0)^-1 r(2,0)^-1 r(1,0)^-1")
    with pytest.raises(InvalidArgumentError):
        tau_hat(S2, 2)


def test_boundary_image_pins():
    img = boundary_image(RP2, 2, "z0")
    assert img.r_part == parse_word("r(1,0)^-2") and img.z_part == (-1,)

    img = boundary_image(S2, 3, "x0")
    assert img.r_part.is_identity and img.z_part == (1, 0)

    img = boundary_image(S2, 3, "-z0")
    assert img.r_part == parse_word("A(1,2)^-2") and img.z_part == (1, 1)

    # On the sphere z0 is an honest delta, in the last loop slot.
    assert boundary_image(S2, 4, "z0") == delta_generator(S2, 4, 2)

    with pytest.raises(InvalidArgumentError):
        boundary_image(S2, 3, "x1")
    with pytest.raises(InvalidArgumentError):
        boundary_image(RP2, 2, "-z0")


def test_strict_corollary_diagnostic():
    # The terser closed form drops the z0-slot delta over the sphere and
    # agrees on the nose over the projective plane.
    for n in (3, 4, 5):
        gap = strict_corollary_discrepancy(S2, n)
        assert gap == delta_generator(S2, n, n - 2)
        terse = strict_corollary_image(S2, n)
        full = boundary_image(S2, n, "-z0")
        assert terse.r_part == full.r_part
        assert terse.z_part == full.z_part[:-1] + (0,)
    for n in (2, 3, 4):
        assert strict_corollary_discrepancy(RP2, n).is_identity
        assert strict_corollary_image(RP2, n) == boundary_image(RP2, n, "z0")


def test_boundary_sum_identity_both_surfaces():
    for surface in (S2, RP2):
        for n in range(surface.n0, 6):
            report = boundary_sum_identity(surface, n)
            assert report.agree, (surface, n)
            assert report.signed_sum.z_part == (0,) * (n - 1)
            assert report.tau_hat_squared.z_part == (0,) * (n - 1)


# --- abelianized boundary -------------------------------------------------------


def test_boundary_matrix_pinned_shapes():
    m = boundary_matrix_ab(S2, 3)
    assert m.to_rows() == [[1, 0, 1], [0, 1, 1], [0, 0, -2]]
    assert smith_normal_form(m).d == (1, 1, 2)

    m = boundary_matrix_ab(RP2, 2)
    assert smith_normal_form(m).d == (1, 2)
    assert (m.rows, m.cols) == (2, 2)


@pytest.mark.parametrize("surface", (S2, RP2), ids=lambda s: s.value)
def test_boundary_matrix_matches_per_generator_exponent_sums(surface):
    for n in range(surface.n0, 10):
        gens = fibre_presentation(surface, n).generators
        columns = []
        for label in pi2_basis(surface, n):
            img = boundary_image(surface, n, label)
            columns.append(list(img.z_part) + [exponent_sum(img.r_part, g) for g in gens])
        expected = IntMatrix.from_columns(n - 1 + len(gens), columns)
        assert boundary_matrix_ab(surface, n) == expected


# (surface, n, what) -> sha256 of the boundary data for n = n0..12 and the
# sphere's matrix at n = 72: "matrix" hashes json.dumps of
# boundary_matrix_ab(surface, n).to_rows(), "images" the lines
# "label -> image" of every pi_2 basis label joined by newlines.  Recorded
# before boundary images were built once per (surface, n); a change to the
# boundary calculus that alters one entry or one printed letter shows here.
PINNED_BOUNDARY_SHA256 = {
    ('s2', 3, 'matrix'): '7573f87858db61a344dedaf108a897e8f27ad10748bc5d4ae1c637f564fc8449',
    ('s2', 3, 'images'): '3b6812be87862bca8ab25c799c8a47ae93e5b8f1ca7b61db7edbb9e253f0ce6d',
    ('s2', 4, 'matrix'): '07c147c5b969247c7c2f146b9581b39abeb740acfc873629a8670a3e58adc741',
    ('s2', 4, 'images'): 'd7266c36b9ea8c2d11fbdbe5b1c8f2e7c1b244a2fc4ba651459dbcc64730b9e3',
    ('s2', 5, 'matrix'): 'ed20840a32e7f7173d867b8657f33a76ec54504a6c3728c3be4f76351ef6edb3',
    ('s2', 5, 'images'): '509b6e0b359937b8a0489fcf91f6f1efa9820b9cb058cdfebeaad33b98bfa455',
    ('s2', 6, 'matrix'): '9bd564ccda8355f22cab584472e37a7982e5152cb76c2ccbc045375f12dec072',
    ('s2', 6, 'images'): '93f0e68bd664e075c9a8811b74a81e520bc6fc2bbc53bbce8d44cd597f9e61d5',
    ('s2', 7, 'matrix'): '99ea0111d15b022d2dfeb21fcdfc7f35b0c70746735c1c191290e0b5b53dfe31',
    ('s2', 7, 'images'): '1e8d500be621bf883508da031879a788c6c3525d7614714227bf076e572e0f8b',
    ('s2', 8, 'matrix'): 'a09f853f434aebb3e551966ad5322d272c037525343e751dfda6d2babc9d0026',
    ('s2', 8, 'images'): '96afb45375d171fb3aded80dc6870a8c48e55648e67cf57eade0d6e4585508c2',
    ('s2', 9, 'matrix'): '4dd2a9a46e5ee163f64094d56a3adaa71769706ba612623726fcfee9aa742de1',
    ('s2', 9, 'images'): '9fa5e9e8d2503e901b8d5167cf7c329c5a6cf1e2ccc4e0f3ed54f1033b8b3dab',
    ('s2', 10, 'matrix'): '30e39b41dbf42a32c7af82c4c6ea1d543c7e9bfb91da3f946efeb9c145f70718',
    ('s2', 10, 'images'): '0823ec5eda6472974e5f6271509b3b2ef9ca73fa32673398f1ce7875c207b973',
    ('s2', 11, 'matrix'): 'a90d642b343f79df895ebac6af6ad3058ac5e127ca4efce5bab5c415bf904c46',
    ('s2', 11, 'images'): '43df32bb9340676d1bb7da796f65503bf5f89d05a97b52ca43ea57bdf527387b',
    ('s2', 12, 'matrix'): 'ff6e0e3127c96b94c6fb10a56a4fa18a9836ce481c5e9a06e49a2fcfb69630d2',
    ('s2', 12, 'images'): 'e2fa7be724d0895893ec83437dbd2a9d4c06c8701433780f3615e5af7f92cd19',
    ('rp2', 2, 'matrix'): 'a4b75b0f59739c2a8c10e9e2f7adf371ce7e7173176f0079d267d37bed72a4d5',
    ('rp2', 2, 'images'): '68669eb663d791df3b6c5069347c159ccaf4a7c9e1be8df2141abe57dfde1a9f',
    ('rp2', 3, 'matrix'): '78503ec70891fa7517a097944d3f996ff47ee36be527d77a964dfd756973234f',
    ('rp2', 3, 'images'): '0c605624fb568379a6ec41939abc71be73c7c92d50ff30ee5f476ed6587c1c87',
    ('rp2', 4, 'matrix'): 'c2d6f09858027c9518fec755a1f30f9091cd50f584bf575a2f8b9da30a67f18d',
    ('rp2', 4, 'images'): '126e5cd67f01526f6512cb7ac6cabf6365594b2ed33a2ce837d0189e7afaba23',
    ('rp2', 5, 'matrix'): '360a6fff70fa892b57f727755e9c058874e2ca7c186143ee6aefc191e94faf98',
    ('rp2', 5, 'images'): '1d85d33e9c440b4c37c80a6b47efad4d0abec53317d135e1a72c166f2db11dd9',
    ('rp2', 6, 'matrix'): 'df6a4294575c829a3b84c5b58f8b636316320cd4fdc3448d44920ccb92acdce3',
    ('rp2', 6, 'images'): '66f1b1c2087cd39bd5381acf0090080432d31b0c33101e358a2aa4235672b0d2',
    ('rp2', 7, 'matrix'): 'c9800faab5e577c28b1a5f06b4c1b02f279d40c4a0c297a6a22b949fb2780623',
    ('rp2', 7, 'images'): '8273e767ff388ca0e5b5c5f4063f8fccc83cb3a70d32e38583d748025c7c29bd',
    ('rp2', 8, 'matrix'): '1021a47d2ab436ef0884e4a8d8f9a60980c144e5b0469b0f2c19f0e40a3a3f67',
    ('rp2', 8, 'images'): '97d6a23e4f25c2d7cc9371241db8f5f9d3503d6679ce26c4dd0298a8a64d9a91',
    ('rp2', 9, 'matrix'): 'f35b74eedb49f7ef918f45a3c6204f738a05043e818cc1d62e2e35d289c96da8',
    ('rp2', 9, 'images'): 'fea4e90876fd0eef5fa2ef868b23b98d4f560e326f59facd2ede971a099a9c13',
    ('rp2', 10, 'matrix'): 'cdce21e7d507877592148695edca5ebac6151f40cde1cf71369851dd64433246',
    ('rp2', 10, 'images'): '8cd29a17c97b7af0fe7e8d0fd4fdcbbc76962ce3d1f0f63f05ae21b2a77307b4',
    ('rp2', 11, 'matrix'): 'a46d23149e317bb8ab3f3c20b97e928d54c634ff0df82f64e6492fabe636163c',
    ('rp2', 11, 'images'): 'e94b0543e413632f6dab3543c1a63f28b77713726b748cccfbd57f4f80aadbfb',
    ('rp2', 12, 'matrix'): '890fa81e106262247f305ee0707ca6abadc8f9f6752d039fd344ff672ce82da9',
    ('rp2', 12, 'images'): '5dcc1844c480ce0db72527607ba51e7db2e63a6d65e5ab9db361013eeef069a5',
    ('s2', 72, 'matrix'): 'cfb95409d2cfa1c0be85654084817de44b4e656fa5ebd304924e837cdce84efa',
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_boundary_data_is_pinned():
    seen = {}
    for surface in (S2, RP2):
        for n in range(surface.n0, 13):
            seen[surface.value, n, "matrix"] = _sha256(json.dumps(boundary_matrix_ab(surface, n).to_rows()))
            seen[surface.value, n, "images"] = _sha256(
                "\n".join(f"{label} -> {boundary_image(surface, n, label)}" for label in pi2_basis(surface, n))
            )
    seen["s2", 72, "matrix"] = _sha256(json.dumps(boundary_matrix_ab(S2, 72).to_rows()))
    assert seen == PINNED_BOUNDARY_SHA256


def test_boundary_matrix_injectivity_and_saturation():
    for surface in (S2, RP2):
        for n in range(surface.n0, 6):
            report = exactness_report(surface, n)
            assert report.matrix_rank == n
            assert report.injective
            assert report.z_factor_saturated
            assert report.ok


def test_quotient_check_pins():
    for surface, n in ((S2, 3), (RP2, 2)):
        report = quotient_check(surface, n)
        assert report.agree
        assert report.from_cokernel == Z2

    for n, expected in ((3, FGAbelianGroup(3, (2,))), (8, FGAbelianGroup(48, (2,)))):
        report = quotient_check(RP2, n)
        assert report.agree
        assert report.from_cokernel == expected


def test_quotient_check_agreement_up_to_five():
    for surface in (S2, RP2):
        for n in range(surface.n0, 6):
            assert quotient_check(surface, n).ok, (surface, n)


def _counting(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "call, surface, n",
    [
        (quotient_check, S2, 6),
        (quotient_check, RP2, 5),
        (exactness_report, S2, 7),
        (nonsplit_witness_s2, S2, 6),
        (boundary_sum_identity, S2, 6),
        (boundary_sum_identity, RP2, 5),
    ],
    ids=lambda x: getattr(x, "__name__", getattr(x, "value", x)),
)
def test_boundary_checks_recompute_their_answers_on_every_call(monkeypatch, call, surface, n):
    # Only tower constants are cached: a second call on the same (surface, n)
    # runs as many Smith reductions, combs and fibre equality tests as the
    # first, which built them.  Every Smith reduction, public or internal,
    # enters through _smith; boundary_sum_identity combs nothing, since its
    # product is tau_hat squared letter for letter, but tests it again.
    counts = {"_smith": 0, "comb": 0, "fibre_elements_equal": 0}
    _counting(monkeypatch, abelian, "_smith", counts)
    _counting(monkeypatch, combing, "comb", counts)
    _counting(monkeypatch, fibration, "fibre_elements_equal", counts)
    fibration._boundary_images.cache_clear()

    def run():
        before = dict(counts)
        report = call(n) if call is nonsplit_witness_s2 else call(surface, n)
        assert report.ok
        return {k: counts[k] - before[k] for k in counts}

    first = run()
    assert fibration._boundary_images.cache_info().currsize == 1
    assert sum(first.values()) > 0
    assert run() == first


def test_boundary_images_are_built_once_per_surface_and_n(monkeypatch):
    # The abelianized boundary columns are tower constants too: the first
    # build makes one exponent line per image, and no later call makes any.
    counts = {"_exponent_line": 0}
    _counting(monkeypatch, fibration, "_exponent_line", counts)
    fibration._boundary_images.cache_clear()
    for surface, n in ((S2, 5), (RP2, 4)):
        counts["_exponent_line"] = 0
        for label in pi2_basis(surface, n):
            boundary_image(surface, n, label)
        assert counts["_exponent_line"] == n
        boundary_matrix_ab(surface, n)
        quotient_check(surface, n)
        exactness_report(surface, n)
        if surface is S2:
            nonsplit_witness_s2(n)
        boundary_sum_identity(surface, n)
        strict_corollary_discrepancy(surface, n)
        assert counts["_exponent_line"] == n
    info = fibration._boundary_images.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert info.maxsize == fibration._BOUNDARY_ENTRIES
    assert boundary_image(S2, 5, "-z0") is boundary_image(S2, 5, "-z0")


# --- diagonal and anti-diagonal sequences ----------------------------------------


def test_iota_sharp_vector():
    assert iota_sharp_vector(S2, 2, 2) == (1, -1)
    assert iota_sharp_vector(S2, 4, 3) == (1, 1, 1, 1)
    assert iota_sharp_vector(RP2, 2, 5) == (1, 1)
    assert iota_sharp_vector(RP2, 3, 2) == (1, 1, 1)
    with pytest.raises(InvalidArgumentError):
        iota_sharp_vector(S2, 3, 1)
    with pytest.raises(InvalidArgumentError):
        iota_sharp_vector(RP2, 1, 3)
    with pytest.raises(InvalidArgumentError):
        iota_sharp_vector(S2, 4, 2)  # no class to push for n >= 3


def test_split_ses_check_examples():
    report = split_ses_check(Z, 3, (1, 1, 1))
    assert report.ok
    assert report.quotient == FGAbelianGroup(2)
    assert report.section_index == 0

    report = split_ses_check(Z_PLUS_Z2, 2, (1, -1))
    assert report.ok
    assert report.quotient == Z_PLUS_Z2

    with pytest.raises(NoUnitCoordinateError):
        split_ses_check(Z, 2, (2, 2))
    with pytest.raises(InvalidArgumentError):
        split_ses_check(Z, 3, (1, 1))


@pytest.mark.parametrize("surface", [S2, RP2], ids=["s2", "rp2"])
def test_the_sparse_reports_match_the_dense_boundary_matrix(surface):
    # The reports read the boundary columns as sparse lines; the public
    # dense matrix, through the public Smith form and cokernel, must agree.
    for n in range(surface.n0, 13):
        m = boundary_matrix_ab(surface, n)
        rank = smith_normal_form(m).rank
        z_form = smith_normal_form(IntMatrix(n - 1, n, m.entries[: (n - 1) * n]))
        saturated = z_form.rank == n - 1 and all(d == 1 for d in z_form.d)
        expected = ExactnessReport(surface, n, rank, rank == n, saturated)
        assert exactness_report(surface, n) == expected
        assert quotient_check(surface, n).from_cokernel == cokernel(m)
        if surface is S2:
            assert nonsplit_witness_s2(n).quotient_h1 == cokernel(m)


def _dense_split_quotient(coeff, n, vec):
    free, torsion = coeff.free_rank, coeff.torsion
    gsize = free + len(torsion)
    columns = []
    for c in range(n):
        for t, d in enumerate(torsion):
            col = [0] * (n * gsize)
            col[c * gsize + free + t] = d
            columns.append(col)
    for a in range(gsize):
        col = [0] * (n * gsize)
        for c in range(n):
            col[c * gsize + a] = vec[c]
        columns.append(col)
    return cokernel(IntMatrix.from_columns(n * gsize, columns))


@pytest.mark.parametrize("coeff", [Z, Z2, Z_PLUS_Z2, Z3], ids=str)
def test_the_split_quotient_matches_the_dense_relation_matrix(coeff):
    # The four coefficient groups of `verify --suite split`.
    for n in (2, 3, 5, 8):
        for vec in ((1,) * n, (-1,) + (2,) * (n - 1), (0,) * (n - 1) + (1,)):
            assert split_ses_check(coeff, n, vec).quotient == _dense_split_quotient(coeff, n, vec)


def test_split_ses_check_refuses_a_non_integer_vector():
    # (1.9, 0.5) was once read as (1, 0) and reported a split.
    with pytest.raises(InvalidArgumentError, match="got 1.9 at index 0"):
        split_ses_check(Z, 2, (1.9, 0.5))
    with pytest.raises(InvalidArgumentError, match="got '1' at index 1"):
        split_ses_check(Z, 2, (1, "1"))


def test_split_ses_check_unit_not_first():
    report = split_ses_check(Z2, 3, (2, -1, 0))
    assert report.section_index == 1
    assert report.ok is (report.quotient == report.expected)


_coeffs = st.sampled_from(
    [Z, Z2, Z3, Z_PLUS_Z2, FGAbelianGroup(2), FGAbelianGroup(0, (2, 4)), FGAbelianGroup(1, (3,))]
)


@settings(deadline=None)
@given(
    _coeffs,
    st.integers(2, 4),
    st.data(),
)
def test_split_ses_check_any_unit_vector(coeff, n, data):
    vector = data.draw(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(
            lambda v: any(c in (1, -1) for c in v)
        )
    )
    report = split_ses_check(coeff, n, vector)
    assert report.section_identity
    assert report.quotient == report.expected


@pytest.mark.parametrize("n", range(2, 8))
def test_split_expected_group_is_the_chained_direct_sum(n):
    for coeff in (Z, Z2, Z3, Z_PLUS_Z2, FGAbelianGroup(0, (2, 4)), FGAbelianGroup(1, (3, 6))):
        chained = reduce(FGAbelianGroup.direct_sum, [coeff] * (n - 1))
        assert split_ses_check(coeff, n, (1,) * n).expected == chained


def test_diagonal_sequences_refuse_n_past_the_bound():
    def unread():
        raise AssertionError("the vector was read")
        yield

    assert split_ses_check(Z_PLUS_Z2, MAX_SPLIT_N, (1,) * MAX_SPLIT_N).ok
    assert iota_sharp_vector(RP2, MAX_SPLIT_N, 2) == (1,) * MAX_SPLIT_N
    for n in (MAX_SPLIT_N + 1, 10**12):
        with pytest.raises(InvalidArgumentError, match="MAX_SPLIT_N=200"):
            split_ses_check(Z, n, unread())
    with pytest.raises(InvalidArgumentError, match="MAX_SPLIT_N=200"):
        iota_sharp_vector(RP2, MAX_SPLIT_N + 1, 2)


def test_split_check_refuses_a_relation_matrix_past_the_cell_bound():
    # A = Z^(10^6) once walked a million generators of length a million.
    with pytest.raises(InvalidArgumentError, match="MAX_MATRIX_CELLS=8000000"):
        split_ses_check(FGAbelianGroup(10**6), 2, (1, 1))


@pytest.mark.parametrize("surface, tallest", [(S2, 72), (RP2, 51)], ids=["s2", "rp2"])
def test_fibre_calculus_stops_at_the_tower_bound(surface, tallest):
    assert len(pi2_basis(surface, tallest)) == tallest
    for n in (tallest + 1, 10**9):
        for call in (
            lambda: pi2_basis(surface, n),
            lambda: FibreElement.identity(surface, n),
            lambda: boundary_image(surface, n, "x0"),
            lambda: boundary_matrix_ab(surface, n),
            lambda: exactness_report(surface, n),
            lambda: quotient_check(surface, n),
            lambda: boundary_sum_identity(surface, n),
        ):
            with pytest.raises(InvalidArgumentError, match="MAX_TOWER_GENERATORS=2500"):
                call()


def test_nonsplit_witness_at_the_tower_bound(no_relators_derived):
    report = nonsplit_witness_s2(72)
    assert report.ok
    assert report.middle_h1 == FGAbelianGroup(2485 + 71)
    assert report.quotient_h1 == FGAbelianGroup(2484, (2,))


def test_nonsplit_witness():
    report = nonsplit_witness_s2(3)
    assert report.ok
    assert report.middle_h1 == FGAbelianGroup(3)
    assert report.quotient_h1 == Z2

    report = nonsplit_witness_s2(4)
    assert report.ok
    assert report.middle_h1 == FGAbelianGroup(6)
    assert report.quotient_h1 == FGAbelianGroup(2, (2,))

    assert nonsplit_witness_s2(5).ok

    with pytest.raises(InvalidArgumentError):
        nonsplit_witness_s2(2)


def test_fibre_presentation_matches_surface():
    assert all(g.family.value == "A" for g in fibre_presentation(S2, 3).generators)
    assert all(g.family.value == "r" for g in fibre_presentation(RP2, 3).generators)
    with pytest.raises(InvalidArgumentError):
        fibre_presentation(S2, 1)


def test_boundary_and_equality_read_only_the_tower(monkeypatch, no_relators_built):
    fibre_presentation.cache_clear()
    cases = ((S2, 4), (RP2, 3))

    def results():
        out = []
        for surface, n in cases:
            img = boundary_image(surface, n, pi2_basis(surface, n)[0])
            assert fibre_elements_equal(img, img * FibreElement.identity(surface, n))
            out.append((boundary_matrix_ab(surface, n), boundary_sum_identity(surface, n)))
        return out

    tower_only = results()
    monkeypatch.undo()
    assert tower_only == results()
