"""Integer matrix layer: SNF with transforms, cokernels, H1 of presentations."""

from __future__ import annotations

import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors

from braidcomb import InvalidArgumentError, MissingImageError, abelian, orbit_gen
from braidcomb.abelian import (
    MAX_MATRIX_CELLS,
    FGAbelianGroup,
    IntMatrix,
    SmithForm,
    cokernel,
    h1,
    has_torsion,
    relation_matrix,
    smith_normal_form,
)
from braidcomb.presentations import (
    MAX_RELATORS,
    Presentation,
    TowerSpec,
    artin_presentation,
    element_Theta,
    export_presentation,
    orbit_presentation,
    parse_presentation,
    quotient_by,
)
from braidcomb.words import IDENTITY, GenFamily, Letter, Word, exponent_sum, reduce


def M(rows):
    return IntMatrix.from_rows(rows)


# --- IntMatrix basics ---------------------------------------------------------


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: IntMatrix(-1, 0, ()), "-1 x 0"),
        (lambda: SmithForm((1,), 2, IntMatrix.identity(2), IntMatrix.identity(2)), "rank 2"),
        (lambda: SmithForm((0,), 1, IntMatrix.identity(1), IntMatrix.identity(1)), "(0,)"),
    ],
    ids=["negative-rows", "rank-not-len-d", "zero-factor"],
)
def test_refusals_are_typed_and_name_the_bad_value(build, bad):
    with pytest.raises(InvalidArgumentError) as refused:
        build()
    assert bad in str(refused.value)


def test_matrix_shape_validation():
    with pytest.raises(InvalidArgumentError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(InvalidArgumentError):
        M([[1, 2], [3]])


# Entries are never converted: a float or a string was once truncated or
# carried as is into Smith reduction.


def test_from_rows_refuses_non_integer_entries():
    with pytest.raises(InvalidArgumentError, match="got 1.7 at index 0"):
        M([[1.7, 2], [0, "3"]])
    with pytest.raises(InvalidArgumentError, match="got '3' at index 3"):
        M([[1, 2], [0, "3"]])


def test_int_matrix_refuses_a_float_entry_before_smith_reduction():
    with pytest.raises(InvalidArgumentError, match="got 2.5 at index 0"):
        IntMatrix(1, 1, (2.5,))
    with pytest.raises(InvalidArgumentError, match="matrix dimensions"):
        IntMatrix(1.0, 1, (2,))


def test_from_columns_and_diagonal_refuse_non_integer_entries():
    with pytest.raises(InvalidArgumentError, match="got 0.5 at index 1"):
        IntMatrix.from_columns(2, [[1, 0.5]])
    with pytest.raises(InvalidArgumentError, match="got 2.0 at index 0"):
        IntMatrix.diagonal((2.0,), 1, 1)


def test_matmul_and_transpose():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a @ b == M([[2, 1], [4, 3]])
    assert IntMatrix.from_columns(2, a.to_rows()) == M([[1, 3], [2, 4]])
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
@example((IntMatrix.diagonal((), 0, 3), M([[1, 0], [0, 0], [2, -1]])))
@example((M([[1, 2, 0], [0, 0, 3]]), IntMatrix.diagonal((), 3, 0)))
@example((IntMatrix.diagonal((), 2, 0), IntMatrix.diagonal((), 0, 3)))
@example((M([[2**70, 0, -3], [0, 2**65 + 1, 0]]), M([[0, 2**64 + 7], [-(2**66), 0], [5, 1]])))
def test_matmul_is_exact(pair):
    a, b = pair
    product = a @ b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert _sympy(product) == _sympy(a) * _sympy(b)


def test_from_columns_keeps_empty_shapes():
    assert IntMatrix.from_columns(2, [[1, 3], [2, 4]]) == M([[1, 2], [3, 4]])
    assert IntMatrix.from_columns(3, []) == IntMatrix.diagonal((), 3, 0)
    assert IntMatrix.from_columns(0, [[], []]) == IntMatrix.diagonal((), 0, 2)
    with pytest.raises(InvalidArgumentError):
        IntMatrix.from_columns(2, [[1, 2], [3]])


def test_rectangular_diagonal():
    assert IntMatrix.diagonal((2, 6), 2, 3) == M([[2, 0, 0], [0, 6, 0]])
    assert IntMatrix.diagonal((5,), 3, 2) == M([[5, 0], [0, 0], [0, 0]])
    assert IntMatrix.diagonal((), 2, 2) == M([[0, 0], [0, 0]])
    with pytest.raises(InvalidArgumentError):
        IntMatrix.diagonal((1, 2), 3, 1)


class _Unread:
    """A sequence of the given length whose entries must not be read."""

    def __init__(self, length):
        self.length = length

    def __len__(self):
        return self.length

    def __getitem__(self, index):
        raise AssertionError("an entry was read")

    def __iter__(self):
        raise AssertionError("an entry was read")


def test_matrices_past_the_cell_bound_are_refused_before_they_are_built():
    side = 3_000  # side * side = 9 million cells

    def past():
        return pytest.raises(InvalidArgumentError, match=f"MAX_MATRIX_CELLS={MAX_MATRIX_CELLS}")

    with past():
        IntMatrix.identity(side)
    with past():
        IntMatrix.identity(10**9)
    with past():
        IntMatrix.diagonal((), side, side)
    with past():
        IntMatrix.from_rows([_Unread(side)] * side)
    with past():
        IntMatrix.from_columns(side, [_Unread(side)] * side)
    with past():
        IntMatrix(side, 1, (1,) * side) @ IntMatrix(1, side, (1,) * side)
    tower = TowerSpec(GenFamily.ORBIT, 45)  # 2,025 generators
    with past():
        relation_matrix(SimpleNamespace(generators=tower.all_generators(), relators=(IDENTITY,) * 4_000))
    # Smith reduction of a tall column works; only its dense U is past the bound.
    form = smith_normal_form(IntMatrix(side, 1, (2,) * side))
    assert form.d == (2,) and form.V == M([[1]])
    with past():
        form.U


def test_the_cell_bound_covers_the_matrices_built_from_the_tallest_towers():
    # boundary_matrix_ab(S2, 72) and the dense U of its Smith form.
    rows = 71 + TowerSpec(GenFamily.BAND, 71).generator_count()
    assert (rows, rows * 72) == (2_556, 184_032)
    assert rows * rows <= MAX_MATRIX_CELLS
    # The same over the projective plane, at n = 51.
    rows = 50 + TowerSpec(GenFamily.ORBIT, 50).generator_count()
    assert rows * rows <= MAX_MATRIX_CELLS
    # The relation matrix of the tallest tower of each family within MAX_RELATORS.
    for family, tallest in ((GenFamily.ORBIT, 14), (GenFamily.BAND, 20)):
        tower = TowerSpec(family, tallest)
        assert TowerSpec(family, tallest + 1).relator_count() > MAX_RELATORS
        assert tower.relator_count() * tower.generator_count() <= MAX_MATRIX_CELLS


def test_h1_reads_no_relator_past_the_column_that_passes_the_cell_bound():
    gens = TowerSpec(GenFamily.ORBIT, 50).all_generators()
    width = len(gens)  # 2,500: 3,200 distinct columns fill MAX_MATRIX_CELLS
    last = MAX_MATRIX_CELLS // width + 1

    def relators():
        # Distinct two-letter words: r_i r_(i+1), then r_i r_(i+2).
        for i in range(last):
            yield Word((Letter(gens[i % width]), Letter(gens[(i + 1 + i // width) % width])))
        raise AssertionError(f"a relator was read past the {last}th")

    with pytest.raises(InvalidArgumentError, match=f"a {last} x {width} matrix"):
        h1(SimpleNamespace(generators=gens, relators=relators()))


def test_a_presentation_and_its_quotients_share_one_column_map():
    for p in (orbit_presentation(3), artin_presentation(4)):
        assert p._columns == {g: c for c, g in enumerate(p.generators)}
        w = Word((Letter(p.generators[0]),) * 2)
        q = quotient_by(p, [w])
        plain = Presentation(p.generators, p.relators)
        for quotient in (q, quotient_by(q, [w]), quotient_by(p, [])):
            assert quotient._columns is p._columns
        assert quotient_by(plain, [w])._columns is plain._columns == p._columns
        assert h1(q) == h1(Presentation(q.generators, q.relators))
    r10, r20 = orbit_gen(1, 0), orbit_gen(2, 0)
    with pytest.raises(InvalidArgumentError, match=r"^duplicate generator r\(1,0\)$"):
        Presentation((r10, r20, r10), ())
    foreign = Word((Letter(r20),))
    for build in (
        lambda: Presentation((r10,), (foreign,)),
        lambda: quotient_by(orbit_presentation(1), [foreign]),
    ):
        with pytest.raises(MissingImageError) as info:
            build()
        assert info.value.symbol == r20


# --- Smith normal form ---------------------------------------------------------


def test_snf_identity():
    assert smith_normal_form(IntMatrix.identity(3)).d == (1, 1, 1)


def test_snf_pinned_boundary_example():
    form = smith_normal_form(M([[1, 0, 1], [0, 1, 1], [0, 0, -2]]))
    assert form.d == (1, 1, 2)


def test_snf_zero_matrix():
    form = smith_normal_form(IntMatrix.diagonal((), 3, 4))
    assert form.d == ()
    assert form.rank == 0


def test_snf_divisibility_forcing():
    # gcd/lcm folding: diag(4, 6) is not in divisibility order.
    assert smith_normal_form(M([[4, 0], [0, 6]])).d == (2, 12)
    assert smith_normal_form(M([[2, 4], [6, 8]])).d == (2, 4)


def test_snf_empty_shapes():
    assert smith_normal_form(IntMatrix(0, 0, ())).d == ()
    assert smith_normal_form(IntMatrix.diagonal((), 0, 3)).d == ()
    assert smith_normal_form(IntMatrix.diagonal((), 3, 0)).d == ()


def test_snf_multiply_back_check_is_live(monkeypatch):
    # Sparse transforms that start as 2*I instead of I give U @ m @ V =
    # 4 * diag(d), which only the multiply-back check can notice: on a
    # dense matrix, through the final gcd pass, and on a cokernel's columns.
    monkeypatch.setattr(abelian, "_unit_lines", lambda n: [{i: 2} for i in range(n)])
    for m in (M([[2]]), M([[4, 0], [0, 6]])):
        with pytest.raises(AssertionError, match="multiply-back"):
            smith_normal_form(m)
    with pytest.raises(AssertionError, match="multiply-back"):
        cokernel(IntMatrix.from_columns(3, [(2, 0, -4)]))


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


def test_snf_builds_transforms_on_first_read(monkeypatch):
    built = []
    dense = abelian._dense
    monkeypatch.setattr(abelian, "_dense", lambda *args: built.append(args[0]) or dense(*args))
    form = smith_normal_form(M([[2, 4, 0], [0, 6, 3]]))
    assert built == []
    assert form.U is form.U and built == [2]
    assert form.V is form.V and built == [2, 3]
    assert form.U @ M([[2, 4, 0], [0, 6, 3]]) @ form.V == IntMatrix.diagonal(form.d, 2, 3)


# --- cokernels -----------------------------------------------------------------


def test_cokernel_examples():
    assert cokernel(M([[2]])) == FGAbelianGroup(0, (2,))
    assert cokernel(M([[1, 0, 1], [0, 1, 1], [0, 0, -2]])) == FGAbelianGroup(0, (2,))
    assert cokernel(IntMatrix.diagonal((), 0, 4)) == FGAbelianGroup(0)
    assert cokernel(IntMatrix.diagonal((), 3, 0)) == FGAbelianGroup(3)
    assert cokernel(IntMatrix.diagonal((), 2, 2)) == FGAbelianGroup(2)


def _reference_cokernel(rows):
    # sympy's Integer is not an int, and FGAbelianGroup converts nothing.
    factors = [abs(int(x)) for x in invariant_factors(Matrix(rows)) if x != 0]
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


def test_group_refuses_a_non_integer_rank_or_factor():
    with pytest.raises(InvalidArgumentError, match="free rank, got 1.5"):
        FGAbelianGroup(1.5)
    with pytest.raises(InvalidArgumentError, match="free rank, got 2.0"):
        FGAbelianGroup(2.0)
    with pytest.raises(InvalidArgumentError, match="torsion factors, got 2.0 at index 1"):
        FGAbelianGroup(0, (2, 2.0))


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
        assert not any(relation_matrix(p).entries)


def test_h1_of_a_quotient_of_a_hand_built_presentation_reads_every_relator():
    # A presentation built by hand is unmarked, so its quotient stores the
    # extras after its own relators: Z^2 / (4, 0), (6, 0), (0, 3) is Z/2 + Z/3.
    r10, r20 = orbit_gen(1, 0), orbit_gen(2, 0)
    p = Presentation((r10, r20), (reduce([Letter(r10)] * 4),))
    extra = (reduce([Letter(r10)] * 6), reduce([Letter(r20)] * 3))
    q = quotient_by(p, extra)
    assert p._marked is None and q._marked is None and q.tower is None
    assert q.relators == p.relators + extra
    assert h1(q) == FGAbelianGroup(0, (6,))


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


# --- h1 skips the tower's relators -------------------------------------------


def _extras(gens, seed):
    """Seeded extra relators: one word, its square, and a pair with a
    common factor, so that free, torsion and mixed cokernels all occur."""
    w = _seeded_word(gens, seed, 7)
    v = _seeded_word(gens, seed + 1, 5)
    return [[w], [w * w], [w * w, v * v * v * v, v * w * w]]


@pytest.mark.parametrize(
    "build,n",
    [(orbit_presentation, n) for n in range(1, 9)]
    + [(artin_presentation, n) for n in range(1, 13)],
)
def test_marked_h1_matches_reading_every_relator(build, n):
    base = build(n)
    assert base._marked == (base.tower, ())
    cases = [base]
    if base.generators:  # P_1 has none to draw from
        cases += [quotient_by(base, extra) for extra in _extras(base.generators, n)]
    for p in cases:
        unmarked = Presentation(p.generators, p.relators)
        assert unmarked._marked is None
        assert h1(p) == h1(unmarked)


def test_imported_tower_relators_are_read():
    # An import is never marked: a doctored tower relator still counts.
    payload = json.loads(export_presentation(orbit_presentation(2), "json"))
    payload["relators"][0] = [["r(1,0)", 1], ["r(1,0)", 1]]
    doctored = parse_presentation(json.dumps(payload), "json")
    assert doctored.tower == orbit_presentation(2).tower
    assert h1(doctored) == FGAbelianGroup(3, (2,))
    back = parse_presentation(export_presentation(orbit_presentation(3), "json"), "json")
    assert back == orbit_presentation(3) and back._marked is None
    assert h1(back) == h1(orbit_presentation(3))


# --- exponent vectors against per-generator sums ------------------------------

_G3 = orbit_presentation(3).generators
_P4 = artin_presentation(4).generators
_FOREIGN = orbit_gen(9, 0)  # in neither alphabet


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
    factors = [abs(int(x)) for x in invariant_factors(matrix) if x != 0]
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
