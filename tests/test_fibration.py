"""Fibre group calculus: deltas, tau_hat, boundary images, splitting checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from braidcomb.abelian import FGAbelianGroup, IntMatrix, smith_normal_form
from braidcomb.errors import InvalidArgumentError, NoUnitCoordinateError
from braidcomb.fibration import (
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
    upsilon_images,
)
from braidcomb.words import IDENTITY, exponent_sum, orbit_gen, parse_word

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


def test_fibre_element_algebra():
    a = FibreElement(RP2, 3, parse_word("r(2,1)"), (1, 0))
    b = FibreElement(RP2, 3, parse_word("r(2,1)^-1 r(1,0)"), (0, -2))
    assert (a * b).r_part == parse_word("r(1,0)")
    assert (a * b).z_part == (1, -2)
    assert (a * a.inverse()).is_identity
    with pytest.raises(InvalidArgumentError):
        a * FibreElement(RP2, 4, IDENTITY, (0, 0, 0))


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


# --- the extra-point embedding ---------------------------------------------------


def test_upsilon_images_pins():
    images = upsilon_images(3)
    assert images[orbit_gen(2, 1)] == parse_word("A(1,2)")
    assert images[orbit_gen(2, 0)] == parse_word("p(2) A(1,2) p(2)")
    assert images[orbit_gen(2, 2)] == parse_word("p(2) A(1,2) p(2)^-1")
    assert images[orbit_gen(1, 0)] == parse_word("p(1)^2")
    assert images[orbit_gen(3, 0)] == parse_word("p(3) A(1,3) A(2,3) p(3)")
    assert images[orbit_gen(3, 4)] == parse_word("p(3) A(2,3) p(3)^-1")


def test_upsilon_images_total_and_level_homogeneous():
    for n in range(1, 5):
        images = upsilon_images(n)
        assert len(images) == n * n
        for source, word in images.items():
            assert all(letter.symbol.level == source.level for letter in word)


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
