"""The sparse Smith reduction against the dense algorithm it replaced.

dense_invariant_factors is that algorithm, kept here as a reference with
its transform bookkeeping left out: pivot on the smallest non-zero entry,
clear its row and column by euclidean steps on dense lists, and fold any
row the pivot does not divide back into the pivot row.  Both must give the
same invariant factors on the boundary matrices and on tall sparse random
matrices, through smith_normal_form on a matrix and through cokernel,
which hands Smith reduction the transpose of its kept columns.
"""

from __future__ import annotations

import random

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors

from braidcomb.abelian import FGAbelianGroup, IntMatrix, cokernel, smith_normal_form
from braidcomb.fibration import Surface, boundary_matrix_ab


def dense_invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    rows, cols = m.rows, m.cols
    a = m.to_rows()

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]

    def row_sub(i: int, j: int, q: int) -> None:  # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def col_sub(i: int, j: int, q: int) -> None:  # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]

    t = 0
    while True:
        pivot = None
        for r in range(t, rows):
            for c in range(t, cols):
                val = a[r][c]
                if val and (pivot is None or abs(val) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (r, c)
        if pivot is None:
            break
        a[t], a[pivot[0]] = a[pivot[0]], a[t]
        swap_cols(t, pivot[1])
        while True:
            moved = False
            for r in range(t + 1, rows):
                if a[r][t]:
                    row_sub(r, t, a[r][t] // a[t][t])
                    if a[r][t]:
                        a[t], a[r] = a[r], a[t]
                        moved = True
            for c in range(t + 1, cols):
                if a[t][c]:
                    col_sub(c, t, a[t][c] // a[t][t])
                    if a[t][c]:
                        swap_cols(t, c)
                        moved = True
            if moved:
                continue
            offender = next(
                (
                    r
                    for r in range(t + 1, rows)
                    for c in range(t + 1, cols)
                    if a[r][c] % a[t][t] != 0
                ),
                None,
            )
            if offender is None:
                break
            row_sub(t, offender, -1)
        t += 1
    return tuple(abs(a[i][i]) for i in range(t))


def _reference_cokernel(m: IntMatrix) -> FGAbelianGroup:
    d = dense_invariant_factors(m)
    return FGAbelianGroup(m.rows - len(d), tuple(x for x in d if x > 1))


def _check(m: IntMatrix) -> None:
    d = dense_invariant_factors(m)
    form = smith_normal_form(m)
    assert form.d == d
    assert form.rank == len(d)
    assert cokernel(m) == _reference_cokernel(m)


@pytest.mark.parametrize("surface", list(Surface))
def test_boundary_matrices_match_dense_reference(surface):
    for n in range(max(3, surface.n0), 21):
        _check(boundary_matrix_ab(surface, n))


# Each matrix drives one branch of the reduction: row 0 empties while
# column 0 is cleared and must leave the rows still to pivot; the pivot
# seat moves down its column and back before a row empties; the pivot seat
# moves along its row.
@pytest.mark.parametrize(
    "rows",
    [[[2, 4], [1, 2]], [[5], [3]], [[5, 3]]],
    ids=["row-empties", "pivot-moves-down-its-column", "pivot-moves-along-its-row"],
)
def test_reduction_branches_match_dense_reference(rows):
    m = IntMatrix.from_rows(rows)
    form = smith_normal_form(m)
    assert form.d == dense_invariant_factors(m)
    assert form.U @ m @ form.V == IntMatrix.diagonal(form.d, m.rows, m.cols)


def _tall_sparse(rng: random.Random) -> IntMatrix:
    rows = rng.randint(20, 160)
    cols = rng.randint(1, 8)
    density = rng.choice((0.03, 0.1, 0.3))
    values = [x for x in range(-6, 7) if x]
    entries = [rng.choice(values) if rng.random() < density else 0 for _ in range(rows * cols)]
    return IntMatrix(rows, cols, tuple(entries))


def test_tall_sparse_random_matrices_match_dense_reference():
    rng = random.Random(20011)
    for _ in range(60):
        _check(_tall_sparse(rng))


def _sympy_invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    factors = invariant_factors(Matrix(m.rows, m.cols, list(m.entries)))
    return tuple(abs(x) for x in factors if x)


def test_scaled_and_wide_matrices_match_sympy():
    # Entries that share factors force euclidean pivot moves and the final
    # gcd pass; the transposes run the wide shape.  The dense reference's
    # entries can explode on these (see below), so sympy checks them.
    rng = random.Random(79)
    for _ in range(40):
        m = _tall_sparse(rng)
        scaled = IntMatrix(m.rows, m.cols, tuple(x * rng.choice((2, 3, 6)) for x in m.entries))
        for case in (scaled, IntMatrix.from_columns(scaled.cols, scaled.to_rows())):
            assert smith_normal_form(case).d == _sympy_invariant_factors(case)
            assert cokernel(case).torsion == tuple(
                x for x in _sympy_invariant_factors(case) if x > 1
            )


# An 8 x 25 matrix with entries of at most 36 on which the dense algorithm
# never finishes: its column steps run before the pivot column is clear, so
# entries of the rows still below the pivot grow with every step, and after
# six pivots they have thousands of digits.
EXPLODING_8x25 = [
    [0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, -24, -24, -30, -6, 0, 12, 0, 0, 0, 0, 0, 0],
    [0, -9, 12, 36, 6, 0, 0, 6, -10, 0, 24, 3, 0, 0, 0, 0, 0, 0, 24, 0, 4, 0, 0, 0, 0],
    [0, 0, 0, -6, 0, 2, 0, 0, 0, 36, 0, 0, 12, -6, 0, 0, -12, 0, 0, 0, 12, 0, 0, 0, 0],
    [0, 12, 6, -12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -8, 0, 0, 6, 0, 0, 0, 0, 10, 0],
    [0, 0, -15, 0, -9, 0, 0, 0, 36, 36, 0, 30, 0, 0, 0, 0, 0, 3, 0, 0, 0, 8, 0, -15, 0],
    [3, 0, -18, 0, 4, 24, 0, 0, 0, -6, 0, 0, 30, 6, 0, 15, 0, 0, 0, 0, 0, 0, -12, 0, 0],
    [0, 8, 6, 0, 0, 0, 12, 15, 0, 0, 0, 0, 0, 0, -12, -18, -2, -3, 0, 0, 0, 0, -6, 0, 0],
    [0, 0, 0, 0, 0, 2, 0, 0, 0, -4, 0, 0, 0, 9, 4, 2, 0, 0, 0, 0, 0, 2, 0, 2, 0],
]


def test_matrix_that_explodes_the_dense_algorithm():
    for m in (
        IntMatrix.from_rows(EXPLODING_8x25),
        IntMatrix.from_columns(25, EXPLODING_8x25),
    ):
        form = smith_normal_form(m)
        assert form.d == (1, 1, 1, 1, 1, 2, 2, 2) == _sympy_invariant_factors(m)
        assert form.U @ m @ form.V == IntMatrix.diagonal(form.d, m.rows, m.cols)
        assert max(abs(x).bit_length() for x in form.U.entries + form.V.entries) < 64
