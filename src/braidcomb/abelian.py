"""Exact integer linear algebra: Smith normal form, abelianizations, and
finitely generated abelian group values.

Everything here runs on Python's arbitrary-precision integers by design —
Smith reduction can blow up intermediate entries far past machine range even
for modest matrices (Kannan–Bachem, SIAM J. Comput. 8(4), 1979).  The
benchmark's homology workload times this layer, but exactness comes first:
smith_normal_form re-multiplies its transforms against the input before
returning, so a wrong answer cannot escape silently.

Costs follow the non-zero entries: matrix products skip zeros, so that
multiply-back check costs time in proportion to the non-zeros of U, m and
V, and cokernel drops zero and repeated columns, which span nothing new,
before it reduces.  Words become exponent vectors in one pass each, every
letter read once against a generator index built once; h1 hands those
vectors straight to the cokernel and builds no relation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InvalidArgumentError, MissingImageError
from .words import GeneratorSymbol, Word

__all__ = [
    "IntMatrix",
    "SmithForm",
    "FGAbelianGroup",
    "smith_normal_form",
    "relation_matrix",
    "h1",
    "hom_on_h1",
    "cokernel",
    "has_torsion",
]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise InvalidArgumentError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise InvalidArgumentError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise InvalidArgumentError("ragged rows")
        return cls(rows, cols, tuple(int(x) for row in data for x in row))

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        """The rows x len(columns) matrix with the given columns; rows is
        explicit so that an empty column list still has a height."""
        if any(len(col) != rows for col in columns):
            raise InvalidArgumentError(f"every column needs {rows} entries")
        return cls(
            rows,
            len(columns),
            tuple(int(col[r]) for r in range(rows) for col in columns),
        )

    @classmethod
    def diagonal(cls, d: Sequence[int], rows: int, cols: int) -> "IntMatrix":
        """The rows x cols matrix with d down its main diagonal, zero elsewhere."""
        if len(d) > min(rows, cols):
            raise InvalidArgumentError(
                f"{len(d)} diagonal entries do not fit a {rows}x{cols} matrix"
            )
        entries = [0] * (rows * cols)
        for i, val in enumerate(d):
            entries[i * cols + i] = int(val)
        return cls(rows, cols, tuple(entries))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.diagonal((1,) * n, n, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def row(self, r: int) -> tuple[int, ...]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(r)) for r in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_columns(self.cols, self.to_rows())

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InvalidArgumentError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # Row r of the product is the sum of x * (row k of other) over the
        # non-zero x = self[r, k]; only other's non-zeros are ever touched.
        sparse_rows = [
            [(c, y) for c, y in enumerate(other.row(k)) if y] for k in range(other.rows)
        ]
        out: list[int] = []
        for r in range(self.rows):
            acc = [0] * other.cols
            for x, sparse in zip(self.row(r), sparse_rows):
                if x:
                    for c, y in sparse:
                        acc[c] += x * y
            out.extend(acc)
        return IntMatrix(self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors d (positive, each dividing the next) together with
    unimodular transforms U, V satisfying U @ M @ V = diag(d)."""

    d: tuple[int, ...]
    rank: int
    U: IntMatrix
    V: IntMatrix

    def __post_init__(self) -> None:
        if self.rank != len(self.d):
            raise InvalidArgumentError("rank must equal the number of invariant factors")
        for a, b in zip(self.d, self.d[1:]):
            if a <= 0 or b % a != 0:
                raise InvalidArgumentError(f"broken divisibility chain {self.d}")
        if self.d and self.d[-1] <= 0:
            raise InvalidArgumentError(f"invariant factors must be positive: {self.d}")


@dataclass(frozen=True)
class FGAbelianGroup:
    """A finitely generated abelian group Z^free_rank + sum of Z/d_i, with
    the torsion factors in canonical divisibility order."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise InvalidArgumentError("free rank must be non-negative")
        for a in self.torsion:
            if a <= 1:
                raise InvalidArgumentError(f"torsion factors must exceed 1: {self.torsion}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise InvalidArgumentError(f"torsion not in divisibility order: {self.torsion}")

    def direct_sum(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        """Direct sum, re-canonicalized into a single divisibility chain."""
        merged = self.torsion + other.torsion
        k = len(merged)
        chain = cokernel(IntMatrix.diagonal(merged, k, k)).torsion
        return FGAbelianGroup(self.free_rank + other.free_rank, chain)

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def has_torsion(g: FGAbelianGroup) -> bool:
    return bool(g.torsion)


# --- Smith normal form -------------------------------------------------------


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Diagonalize m over Z with tracked unimodular row/column transforms.

    Pivoting picks the smallest nonzero entry by absolute value, which keeps
    coefficient growth tolerable at the matrix sizes that arise here.  The
    result is verified by multiplying U @ m @ V back together before
    returning, on exactly the m given; the products skip zeros, so the check
    costs time in proportion to the non-zeros of U, m and V.
    """
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_sub(i: int, j: int, q: int) -> None:  # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i: int, j: int, q: int) -> None:  # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    # At each step t: move the smallest nonzero entry to (t,t), clear its row
    # and column by euclidean steps (swapping any smaller remainder into the
    # pivot seat), and finally insist the pivot divide the whole remaining
    # submatrix — folding an offending row into row t otherwise, which shrinks
    # the pivot on the next pass.  Pivots therefore divide all later pivots,
    # so the diagonal comes out already in divisibility order.
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
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            moved = False
            for r in range(t + 1, rows):
                if a[r][t]:
                    row_sub(r, t, a[r][t] // a[t][t])
                    if a[r][t]:  # the euclidean remainder becomes the pivot
                        swap_rows(t, r)
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
            row_sub(t, offender, -1)  # row t += row offender
        t += 1
    rank = t

    for i in range(rank):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    form = SmithForm(
        d=tuple(a[i][i] for i in range(rank)),
        rank=rank,
        U=IntMatrix.from_rows(u),
        V=IntMatrix.from_rows(v),
    )
    if form.U @ m @ form.V != IntMatrix.diagonal(form.d, rows, cols):
        raise AssertionError("smith reduction failed its multiply-back verification")
    return form


# --- presentations to matrices ------------------------------------------------


def _exponent_vectors(
    words: Iterable[Word], generators: Sequence[GeneratorSymbol]
) -> Iterator[tuple[int, ...]]:
    """The exponent vector of each word over the ordered generators, read
    in one pass per word.  A letter outside generators raises
    MissingImageError naming its symbol."""
    column = {g: c for c, g in enumerate(generators)}
    for word in words:
        vector = [0] * len(column)
        for letter in word.letters:
            try:
                vector[column[letter.symbol]] += letter.exponent
            except KeyError:
                raise MissingImageError(letter.symbol) from None
        yield tuple(vector)


def relation_matrix(p) -> IntMatrix:
    """Abelianized relator matrix: one row per relator, one column per
    generator (in the presentation's generator order)."""
    rows = _exponent_vectors(p.relators, p.generators)
    entries = tuple(x for row in rows for x in row)
    return IntMatrix(len(p.relators), len(p.generators), entries)


def _cokernel_of_columns(rows: int, columns: Iterable[tuple[int, ...]]) -> FGAbelianGroup:
    """Z^rows modulo the span of the given columns.

    Zero columns and repeats of an earlier column add nothing to the span,
    so they are dropped before any matrix is built; the Smith reduction and
    its multiply-back check then run on the columns that are left.
    """
    kept = [col for col in dict.fromkeys(columns) if any(col)]
    if not kept:
        return FGAbelianGroup(rows)
    form = smith_normal_form(IntMatrix.from_columns(rows, kept))
    torsion = tuple(d for d in form.d if d > 1)
    return FGAbelianGroup(rows - form.rank, torsion)


def cokernel(m: IntMatrix) -> FGAbelianGroup:
    """Z^rows modulo the column space of m."""
    return _cokernel_of_columns(m.rows, (m.entries[c :: m.cols] for c in range(m.cols)))


def h1(p) -> FGAbelianGroup:
    """First homology (abelianization) of a presented group: Z^generators
    modulo the span of the relators' exponent vectors."""
    return _cokernel_of_columns(len(p.generators), _exponent_vectors(p.relators, p.generators))


def hom_on_h1(
    images: Mapping[GeneratorSymbol, Word], source, target
) -> IntMatrix:
    """Matrix of the induced map H1(source) -> H1(target) on generator
    classes: one column per source generator, one row per target generator.
    The first source generator without an image, or with a letter outside
    the target, raises MissingImageError naming that generator or letter."""

    def images_in_order() -> Iterator[Word]:
        for g in source.generators:
            if g not in images:
                raise MissingImageError(g)
            yield images[g]

    columns = list(_exponent_vectors(images_in_order(), target.generators))
    return IntMatrix.from_columns(len(target.generators), columns)
