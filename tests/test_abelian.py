"""Integer matrix layer: SNF with transforms, cokernels, H1 of presentations."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors

from braidcomb import InvalidArgumentError, MissingImageError, orbit_gen, parse_word, surface_gen
from braidcomb.abelian import (
    FGAbelianGroup,
    IntMatrix,
    SmithForm,
    cokernel,
    h1,
    has_torsion,
    hom_on_h1,
    relation_matrix,
    smith_normal_form,
)
from braidcomb.presentations import (
    Presentation,
    artin_presentation,
    element_Theta,
    orbit_presentation,
    quotient_by,
)
from braidcomb.words import Letter, exponent_sum, reduce


def M(rows):
    return IntMatrix.from_rows(rows)


# --- IntMatrix basics ---------------------------------------------------------


def test_matrix_shape_validation():
    with pytest.raises(InvalidArgumentError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(InvalidArgumentError):
        M([[1, 2], [3]])


def test_matmul_and_transpose():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a @ b == M([[2, 1], [4, 3]])
    assert a.transpose() == M([[1, 3], [2, 4]])
    with pytest.raises(InvalidArgumentError):
        a @ M([[1, 2, 3]])


# Mostly zeros, as in the relation matrices and Smith transforms.
_sparse_entries = st.sampled_from([0] * 19 + list(range(-9, 10)))


def _sparse_matrix(rows, cols):
    return st.lists(_sparse_entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda entries: IntMatrix(rows, cols, tuple(entries))
    )


_matmul_pairs = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda shape: st.tuples(_sparse_matrix(shape[0], shape[1]), _sparse_matrix(shape[1], shape[2]))
)


def _sympy(m):
    return Matrix(m.rows, m.cols, list(m.entries))


@settings(deadline=None)
@given(_matmul_pairs)
@example((IntMatrix.zeros(0, 3), M([[1, 0], [0, 0], [2, -1]])))
@example((M([[1, 2, 0], [0, 0, 3]]), IntMatrix.zeros(3, 0)))
@example((IntMatrix.zeros(2, 0), IntMatrix.zeros(0, 3)))
@example((M([[2**70, 0, -3], [0, 2**65 + 1, 0]]), M([[0, 2**64 + 7], [-(2**66), 0], [5, 1]])))
def test_matmul_is_exact(pair):
    a, b = pair
    product = a @ b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert _sympy(product) == _sympy(a) * _sympy(b)


def test_from_columns_keeps_empty_shapes():
    assert IntMatrix.from_columns(2, [[1, 3], [2, 4]]) == M([[1, 2], [3, 4]])
    assert IntMatrix.from_columns(3, []) == IntMatrix.zeros(3, 0)
    assert IntMatrix.from_columns(0, [[], []]) == IntMatrix.zeros(0, 2)
    with pytest.raises(InvalidArgumentError):
        IntMatrix.from_columns(2, [[1, 2], [3]])


def test_rectangular_diagonal():
    assert IntMatrix.diagonal((2, 6), 2, 3) == M([[2, 0, 0], [0, 6, 0]])
    assert IntMatrix.diagonal((5,), 3, 2) == M([[5, 0], [0, 0], [0, 0]])
    assert IntMatrix.diagonal((), 2, 2) == IntMatrix.zeros(2, 2)
    with pytest.raises(InvalidArgumentError):
        IntMatrix.diagonal((1, 2), 3, 1)


# --- Smith normal form ---------------------------------------------------------


def test_snf_identity():
    assert smith_normal_form(IntMatrix.identity(3)).d == (1, 1, 1)


def test_snf_pinned_boundary_example():
    form = smith_normal_form(M([[1, 0, 1], [0, 1, 1], [0, 0, -2]]))
    assert form.d == (1, 1, 2)


def test_snf_zero_matrix():
    form = smith_normal_form(IntMatrix.zeros(3, 4))
    assert form.d == ()
    assert form.rank == 0


def test_snf_divisibility_forcing():
    # gcd/lcm folding: diag(4, 6) is not in divisibility order.
    assert smith_normal_form(M([[4, 0], [0, 6]])).d == (2, 12)
    assert smith_normal_form(M([[2, 4], [6, 8]])).d == (2, 4)


def test_snf_empty_shapes():
    assert smith_normal_form(IntMatrix(0, 0, ())).d == ()
    assert smith_normal_form(IntMatrix.zeros(0, 3)).d == ()
    assert smith_normal_form(IntMatrix.zeros(3, 0)).d == ()


def test_snf_multiply_back_check_is_live(monkeypatch):
    # Transforms that start as 2*I instead of I give U @ m @ V = 4 * diag(d),
    # which only the multiply-back check can notice.
    monkeypatch.setattr(
        IntMatrix, "identity", classmethod(lambda cls, n: cls.diagonal((2,) * n, n, n))
    )
    with pytest.raises(AssertionError):
        smith_normal_form(M([[2]]))


def test_smithform_rejects_broken_chain():
    with pytest.raises(InvalidArgumentError):
        SmithForm((3, 2), 2, IntMatrix.identity(2), IntMatrix.identity(2))


_small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(deadline=None)
@given(_small_matrices)
def test_snf_agrees_with_reference_and_is_unimodular(rows):
    m = M(rows)
    form = smith_normal_form(m)
    reference = [abs(x) for x in invariant_factors(Matrix(rows)) if x != 0]
    assert list(form.d) == reference
    assert abs(Matrix(form.U.to_rows()).det()) == 1
    assert abs(Matrix(form.V.to_rows()).det()) == 1


@settings(deadline=None)
@given(_small_matrices, st.randoms())
def test_snf_is_permutation_invariant(rows, rng):
    base = smith_normal_form(M(rows)).d
    shuffled = list(rows)
    rng.shuffle(shuffled)
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    permuted = [[row[c] for c in cols] for row in shuffled]
    assert smith_normal_form(M(permuted)).d == base


# --- cokernels -----------------------------------------------------------------


def test_cokernel_examples():
    assert cokernel(M([[2]])) == FGAbelianGroup(0, (2,))
    assert cokernel(M([[1, 0, 1], [0, 1, 1], [0, 0, -2]])) == FGAbelianGroup(0, (2,))
    assert cokernel(IntMatrix.zeros(0, 4)) == FGAbelianGroup(0)
    assert cokernel(IntMatrix.zeros(3, 0)) == FGAbelianGroup(3)
    assert cokernel(IntMatrix.zeros(2, 2)) == FGAbelianGroup(2)


def _reference_cokernel(rows):
    factors = [abs(x) for x in invariant_factors(Matrix(rows)) if x != 0]
    return FGAbelianGroup(len(rows) - len(factors), tuple(d for d in factors if d > 1))


@settings(deadline=None)
@given(_small_matrices, st.integers(0, 3), st.randoms())
def test_cokernel_ignores_zero_and_repeated_columns(rows, zero_columns, rng):
    columns = [list(col) for col in zip(*rows)]
    extra = [[0] * len(rows)] * zero_columns + [
        rng.choice(columns) for _ in range(rng.randint(1, 4))
    ]
    rng.shuffle(extra)
    padded = IntMatrix.from_columns(len(rows), columns + extra)
    expected = _reference_cokernel(rows)
    assert cokernel(M(rows)) == expected
    assert cokernel(padded) == expected


def test_has_torsion():
    assert has_torsion(FGAbelianGroup(0, (2,)))
    assert not has_torsion(FGAbelianGroup(5))


# --- FGAbelianGroup ------------------------------------------------------------


def test_group_validation():
    with pytest.raises(InvalidArgumentError):
        FGAbelianGroup(-1)
    with pytest.raises(InvalidArgumentError):
        FGAbelianGroup(0, (1,))
    with pytest.raises(InvalidArgumentError):
        FGAbelianGroup(0, (3, 2))


def test_direct_sum_recanonicalizes():
    a = FGAbelianGroup(1, (2,))
    b = FGAbelianGroup(0, (3,))
    assert a.direct_sum(b) == FGAbelianGroup(1, (6,))
    two = FGAbelianGroup(0, (2,))
    assert two.direct_sum(two) == FGAbelianGroup(0, (2, 2))
    assert FGAbelianGroup(2).direct_sum(FGAbelianGroup(3)) == FGAbelianGroup(5)
    assert FGAbelianGroup(0).direct_sum(FGAbelianGroup(0)) == FGAbelianGroup(0)


def test_group_printing():
    assert str(FGAbelianGroup(0)) == "0"
    assert str(FGAbelianGroup(2)) == "Z^2"
    assert str(FGAbelianGroup(0, (2, 4))) == "Z/2 x Z/4"
    assert str(FGAbelianGroup(3, (2,))) == "Z^3 x Z/2"


# --- presentations to homology ---------------------------------------------------


def test_relation_matrix_of_conjugation_presentations_is_zero():
    for p in (orbit_presentation(3), artin_presentation(4)):
        assert relation_matrix(p).is_zero()


def test_relation_matrix_of_theta_quotient():
    theta_sq = element_Theta(2) * element_Theta(2)
    q = quotient_by(orbit_presentation(2), [theta_sq])
    m = relation_matrix(q)
    assert m.rows == 4 and m.cols == 4
    assert m.row(3) == (2, 2, 0, 0)  # ordered (r(1,0), r(2,0), r(2,1), r(2,2))


def _seeded_word(gens, seed, length):
    rng = random.Random(seed)
    return reduce(Letter(rng.choice(gens), rng.choice((1, -1))) for _ in range(length))


def test_relation_matrix_matches_per_pair_exponent_sums():
    g3 = orbit_presentation(3)
    w = _seeded_word(g3.generators, seed=4, length=12)
    assert any(exponent_sum(w, g) for g in g3.generators)
    for p in (orbit_presentation(4), artin_presentation(5), quotient_by(g3, [w])):
        m = relation_matrix(p)
        assert (m.rows, m.cols) == (len(p.relators), len(p.generators))
        assert m.entries == tuple(
            exponent_sum(relator, g) for relator in p.relators for g in p.generators
        )


def test_relation_matrix_of_empty_presentation():
    m = relation_matrix(Presentation((), ()))
    assert (m.rows, m.cols) == (0, 0)


def test_h1_values():
    assert h1(orbit_presentation(3)) == FGAbelianGroup(9)
    assert h1(artin_presentation(3)) == FGAbelianGroup(3)
    for n in (1, 2, 3, 4, 8):
        theta_sq = element_Theta(n) * element_Theta(n)
        q = quotient_by(orbit_presentation(n), [theta_sq])
        assert h1(q) == FGAbelianGroup(n * n - 1, (2,))


def test_hom_on_h1_identity_and_projection():
    p2 = orbit_presentation(2)
    identity_images = {g: parse_word(str(g)) for g in p2.generators}
    assert hom_on_h1(identity_images, p2, p2) == IntMatrix.identity(4)

    p1 = orbit_presentation(1)
    to_level_one = {
        orbit_gen(1, 0): parse_word("r(1,0)"),
        orbit_gen(2, 0): parse_word("1"),
        orbit_gen(2, 1): parse_word("1"),
        orbit_gen(2, 2): parse_word("1"),
    }
    assert hom_on_h1(to_level_one, p2, p1) == M([[1, 0, 0, 0]])


def test_hom_on_h1_missing_image():
    p2 = orbit_presentation(2)
    with pytest.raises(MissingImageError):
        hom_on_h1({}, p2, p2)
    with pytest.raises(MissingImageError):
        hom_on_h1(
            {g: parse_word("A(1,2)") for g in p2.generators},
            p2,
            p2,
        )


# --- exponent vectors against per-generator sums ------------------------------

_G3 = orbit_presentation(3).generators
_P4 = artin_presentation(4).generators
_FOREIGN = surface_gen(1)  # in neither alphabet


def _words_over(alphabet, max_letters=10):
    letters = st.tuples(st.sampled_from(alphabet), st.sampled_from((1, -1)))
    return st.lists(letters, max_size=max_letters).map(
        lambda pairs: reduce(Letter(sym, e) for sym, e in pairs)
    )


def _foreign_in(words, generators):
    """The first letter's symbol, in reading order, outside the generators."""
    symbols = (letter.symbol for w in words for letter in w.letters)
    return next((sym for sym in symbols if sym not in generators), None)


def _reference_rows(words, generators):
    return [[exponent_sum(w, g) for g in generators] for w in words]


def _reference_h1(rows, width):
    if not rows:
        return FGAbelianGroup(width)
    matrix = Matrix(len(rows), width, [x for row in rows for x in row])
    factors = [abs(x) for x in invariant_factors(matrix) if x != 0]
    return FGAbelianGroup(width - len(factors), tuple(d for d in factors if d > 1))


@st.composite
def _presented(draw):
    """Generators of G_3 or P_4 and a few words over them, the foreign
    letter allowed in some draws."""
    gens = draw(st.sampled_from((_G3, _P4)))
    alphabet = gens + (_FOREIGN,) if draw(st.booleans()) else gens
    return gens, draw(st.lists(_words_over(alphabet), max_size=6))


@settings(deadline=None)
@given(_presented())
def test_relation_matrix_and_h1_match_per_generator_sums(case):
    gens, words = case
    p = SimpleNamespace(generators=gens, relators=tuple(words))
    foreign = _foreign_in(words, gens)
    if foreign is not None:
        for f in (relation_matrix, h1):
            with pytest.raises(MissingImageError) as info:
                f(p)
            assert info.value.symbol == foreign
        return
    rows = _reference_rows(words, gens)
    m = relation_matrix(p)
    assert (m.rows, m.cols) == (len(words), len(gens))
    assert m.entries == tuple(x for row in rows for x in row)
    assert h1(p) == _reference_h1(rows, len(gens))


@st.composite
def _homomorphisms(draw):
    """Images of the source generators over the target's, the foreign
    letter allowed in some draws and up to two images left out."""
    source, target = draw(st.sampled_from(((_G3, _P4), (_P4, _G3), (_G3, _G3))))
    alphabet = target + (_FOREIGN,) if draw(st.booleans()) else target
    images = {g: draw(_words_over(alphabet)) for g in source}
    for g in draw(st.lists(st.sampled_from(source), max_size=2)):
        images.pop(g, None)
    return source, target, images


def _reference_hom(images, source, target):
    """The induced matrix, or the symbol that the first source generator
    without a usable image names."""
    columns = []
    for g in source:
        if g not in images:
            return g
        foreign = _foreign_in([images[g]], target)
        if foreign is not None:
            return foreign
        columns.append(_reference_rows([images[g]], target)[0])
    return IntMatrix.from_columns(len(target), columns)


@settings(deadline=None)
@given(_homomorphisms())
def test_hom_on_h1_matches_per_generator_sums(case):
    source, target, images = case
    expected = _reference_hom(images, source, target)
    groups = SimpleNamespace(generators=source), SimpleNamespace(generators=target)
    if isinstance(expected, IntMatrix):
        assert hom_on_h1(images, *groups) == expected
    else:
        with pytest.raises(MissingImageError) as info:
            hom_on_h1(images, *groups)
        assert info.value.symbol == expected
