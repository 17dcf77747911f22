"""Exact integer linear algebra: Smith normal form, abelianizations, and
finitely generated abelian group values.

Everything here runs on Python's arbitrary-precision integers by design —
Smith reduction can blow up intermediate entries far past machine range even
for modest matrices (Kannan–Bachem, SIAM J. Comput. 8(4), 1979).  The
benchmark's homology workload times this layer, but exactness comes first:
every Smith reduction re-multiplies its transforms against its input
before returning, so a wrong answer cannot escape silently.

Sparse lines are the currency: a line is one row or column of a matrix as
a {index: non-zero int} dict, and costs follow the non-zero entries.  A
word becomes its exponent line in one pass, every letter read once against
the {generator: column} map that a Presentation carries; any other object
with generators gets a map built for the call.  h1, the cokernels and the
fibration reports reach Smith reduction through _cokernel_of_lines, which
drops zero and repeated lines and hands the rest, the rows of the
transpose, to _smith, the one entry to Smith reduction.  Dense IntMatrix
values exist only at the API edge: relation_matrix and boundary_matrix_ab
build one, smith_normal_form and cokernel read one, and smith_normal_form
alone builds a SmithForm, whose U and V are built when first read.

Smith reduction keeps the working matrix and U as sparse rows, pivots on
the smallest non-zero entry (a unit ends the search), and leaves the
divisibility of the diagonal to one final pass of 2x2 gcd moves between
diagonal entries (Kannan-Bachem; on sparse integer Smith forms see Dumas,
Saunders and Villard, J. Symbolic Comput. 32, 2001).  V starts as an
implicit identity: it holds a column only once a column move or a gcd move
touches it, and every other column k is e_k.  There is no column index:
the rows that meet a pivot's column are found among the rows not yet
pivots, the only rows a later move can change, by a scan that costs less
than the fill-in of the moves it precedes.  The multiply-back check
U A V = diag(d) runs on the same sparse lines, with V's implicit columns
at their post-pivot positions, so it costs the entries the reduction
touched, not the width.

Every dense matrix is checked against MAX_MATRIX_CELLS before its entries
are built, and a cokernel checks each line it keeps as the row of a dense
transpose, so it refuses at the same line a dense matrix would.  h1 skips
the conjugation relators of a tower that presentations marks, whose
exponent lines are zero.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from typing import Callable, Iterable, Sequence

from .errors import InvalidArgumentError, MissingImageError
from .words import GeneratorSymbol, Word, _frozen, _set

__all__ = [
    "MAX_MATRIX_CELLS",
    "IntMatrix",
    "SmithForm",
    "FGAbelianGroup",
    "smith_normal_form",
    "relation_matrix",
    "h1",
    "cokernel",
    "has_torsion",
]


# The most cells (rows * cols) of a matrix this module builds, checked
# before its entries are allocated, and of the transpose whose rows a
# cokernel keeps.  No report builds a dense matrix; the largest a caller
# can have built from a tower within its bounds is the 2,556 x 2,556 U of
# smith_normal_form(boundary_matrix_ab(S2, 72)), 6.5 million cells, built
# only when read.  The relation matrix of G_14, the tallest orbit tower
# within MAX_RELATORS, has 17,381 x 196 = 3.4 million.  8 million cells
# hold 64 MB of pointers.
MAX_MATRIX_CELLS = 8_000_000


def _check_cells(rows: int, cols: int) -> None:
    """Refuse a rows x cols matrix past MAX_MATRIX_CELLS before it is built."""
    if rows * cols > MAX_MATRIX_CELLS:
        raise InvalidArgumentError(
            f"a {rows} x {cols} matrix has {rows * cols} cells, "
            f"past the bound MAX_MATRIX_CELLS={MAX_MATRIX_CELLS}"
        )


def _require_integers(what: str, values: Sequence) -> None:
    """Refuse, naming the first, any value that is not an int.

    A sum of ints is an int.  A float, Fraction, Decimal or foreign number
    anywhere makes the sum another type, and a string or None makes it
    raise TypeError, so one pass in C decides: on a 2-core Xeon VM a
    28-entry z_part costs about 0.5 us.  Only a dense IntMatrix pays it
    per cell: the 3.4 million entries of relation_matrix of G_14, the
    largest a caller can build from a tower, take about 18 ms.
    """
    try:
        ok = type(sum(values)) is int
    except TypeError:
        ok = False
    if not ok:
        i, bad = next((i, x) for i, x in enumerate(values) if not isinstance(x, int))
        raise InvalidArgumentError(f"expected int {what}, got {bad!r} at index {i}")


@_frozen
class IntMatrix:
    """Immutable integer matrix, entries row-major.  Every entry and both
    dimensions must be ints: nothing is converted, so a float or a string
    is refused rather than truncated or carried into Smith reduction."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    # Written out, not _frozen's generic one: a homology pass builds more
    # IntMatrix and FGAbelianGroup values than any other.
    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if not (isinstance(rows, int) and isinstance(cols, int)):
            raise InvalidArgumentError(f"expected int matrix dimensions, got {rows!r} x {cols!r}")
        if rows < 0 or cols < 0:
            raise InvalidArgumentError(f"negative matrix dimension in {rows} x {cols}")
        entries = tuple(entries)  # a tuple argument is returned as it is
        if len(entries) != rows * cols:
            raise InvalidArgumentError(f"expected {rows * cols} entries, got {len(entries)}")
        _require_integers("matrix entries", entries)
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise InvalidArgumentError("ragged rows")
        _check_cells(rows, cols)
        return cls(rows, cols, tuple([x for row in data for x in row]))

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        """The rows x len(columns) matrix with the given columns; rows is
        explicit so that an empty column list still has a height."""
        if any(len(col) != rows for col in columns):
            raise InvalidArgumentError(f"every column needs {rows} entries")
        _check_cells(rows, len(columns))
        return cls(
            rows,
            len(columns),
            tuple([col[r] for r in range(rows) for col in columns]),
        )

    @classmethod
    def diagonal(cls, d: Sequence[int], rows: int, cols: int) -> "IntMatrix":
        """The rows x cols matrix with d down its main diagonal, zero elsewhere."""
        if len(d) > min(rows, cols):
            raise InvalidArgumentError(
                f"{len(d)} diagonal entries do not fit a {rows}x{cols} matrix"
            )
        _check_cells(rows, cols)
        entries = [0] * (rows * cols)
        for i, val in enumerate(d):
            entries[i * cols + i] = val
        return cls(rows, cols, tuple(entries))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _check_cells(n, n)  # before the n ones of the diagonal
        return cls.diagonal((1,) * n, n, n)

    def row(self, r: int) -> tuple[int, ...]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(r)) for r in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InvalidArgumentError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        _check_cells(self.rows, other.cols)
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


class SmithForm:
    """Invariant factors d (positive, each dividing the next) together with
    unimodular transforms U, V satisfying U @ M @ V = diag(d).

    U and V are IntMatrix values, or zero-argument functions that build one.
    smith_normal_form passes functions, so the rows x rows cells of U, and
    V's implicit columns, are only built for a caller that reads them; the
    first read keeps the matrix.
    """

    __slots__ = ("d", "rank", "_U", "_V")

    def __init__(
        self,
        d: tuple[int, ...],
        rank: int,
        U: IntMatrix | Callable[[], IntMatrix],
        V: IntMatrix | Callable[[], IntMatrix],
    ) -> None:
        d = tuple(d)
        if rank != len(d):
            raise InvalidArgumentError(f"rank {rank} is not the number of invariant factors {d}")
        for a, b in zip(d, d[1:]):
            if a <= 0 or b % a != 0:
                raise InvalidArgumentError(f"broken divisibility chain {d}")
        if d and d[-1] <= 0:
            raise InvalidArgumentError(f"invariant factors must be positive: {d}")
        self.d = d
        self.rank = rank
        self._U = U
        self._V = V

    @property
    def U(self) -> IntMatrix:
        if not isinstance(self._U, IntMatrix):
            self._U = self._U()
        return self._U

    @property
    def V(self) -> IntMatrix:
        if not isinstance(self._V, IntMatrix):
            self._V = self._V()
        return self._V

    def __repr__(self) -> str:
        return f"SmithForm(d={self.d}, rank={self.rank})"


@_frozen
class FGAbelianGroup:
    """A finitely generated abelian group Z^free_rank + sum of Z/d_i, with
    the torsion factors in canonical divisibility order.  The rank and the
    factors must be ints; nothing is converted."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()) -> None:
        if not isinstance(free_rank, int):
            raise InvalidArgumentError(f"expected int free rank, got {free_rank!r}")
        torsion = tuple(torsion)  # a tuple argument is returned as it is
        _require_integers("torsion factors", torsion)
        if free_rank < 0:
            raise InvalidArgumentError("free rank must be non-negative")
        for a in torsion:
            if a <= 1:
                raise InvalidArgumentError(f"torsion factors must exceed 1: {torsion}")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise InvalidArgumentError(f"torsion not in divisibility order: {torsion}")
        _set(self, "free_rank", free_rank)
        _set(self, "torsion", torsion)

    def direct_sum(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        """Direct sum, re-canonicalized into a single divisibility chain."""
        merged = self.torsion + other.torsion
        chain = _cokernel_of_lines(len(merged), [{i: d} for i, d in enumerate(merged)]).torsion
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

# A sparse line is one row or one column of a matrix, as a dict from
# position to its non-zero value.


def _unit_lines(n: int) -> list[dict[int, int]]:
    """The rows of the n x n identity."""
    return [{i: 1} for i in range(n)]


def _add_multiple(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """dst += q * src for sparse lines and q != 0; cancelled entries go."""
    for k, y in src.items():
        x = dst.get(k, 0) + q * y
        if x:
            dst[k] = x
        else:
            del dst[k]


def _combine(x: int, p: dict[int, int], y: int, q: dict[int, int]) -> dict[int, int]:
    """The sparse line x * p + y * q."""
    out = {k: x * val for k, val in p.items()} if x else {}
    if y:
        _add_multiple(out, q, y)
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s * a + t * b, for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _dense(rows: int, cols: int, lines: Iterable[dict[int, int]], by_rows: bool) -> IntMatrix:
    """The rows x cols matrix whose rows (by_rows) or columns are the
    sparse lines, checked against MAX_MATRIX_CELLS before a line is read."""
    _check_cells(rows, cols)
    entries = [0] * (rows * cols)
    for t, line in enumerate(lines):
        for k, x in line.items():
            entries[t * cols + k if by_rows else k * cols + t] = x
    return IntMatrix(rows, cols, tuple(entries))


def _dense_v(width: int, pivot_cols: list[int], v: dict[int, dict[int, int]]) -> IntMatrix:
    """V from the columns the reduction touched, as _reduce returns them:
    pivot columns first, in chain order, then the rest in index order,
    every column k that v does not hold being e_k."""
    taken = set(pivot_cols)
    order = pivot_cols + [k for k in range(width) if k not in taken]
    return _dense(width, width, (v.get(k, {k: 1}) for k in order), False)


def _reduce(
    lines: list[dict[int, int]], width: int
) -> tuple[list[int], list[dict[int, int]], list[int], dict[int, dict[int, int]]]:
    """Smith reduction of the len(lines) x width matrix A with these rows.

    Returns (d, rows of U, pivot columns, columns of V) with U @ A @ V =
    diag(d) and d a positive divisibility chain.  V starts as an implicit
    identity: it holds a column only once a move touches it, and every
    column k it does not hold is e_k.  V's columns sit pivots first, in
    chain order, then the rest in index order.  Only non-zero entries are
    stored or visited, and lines is left as it was.

    There is no column index: the rows that meet the pivot column are
    found among the active rows, those neither pivots nor empty.  That is
    exact because a finished pivot's row and column are zero off the pivot
    and no later move touches them, and an empty row stays empty.
    """
    height = len(lines)
    a = [dict(line) for line in lines]
    u = _unit_lines(height)
    v: dict[int, dict[int, int]] = {}
    # Rows not yet pivots, in order; a row leaves as soon as it empties.
    active = dict.fromkeys(i for i, row in enumerate(a) if row)
    pivots: list[tuple[int, int]] = []
    while active:
        # The smallest non-zero entry is the pivot; a unit ends the search.
        best = 0
        for i in active:
            for k, x in a[i].items():
                if not best or abs(x) < best:
                    r, c, best = i, k, abs(x)
                    if best == 1:
                        break
            if best == 1:
                break
        # Clear column c, then row r, by euclidean steps; a non-zero
        # remainder is smaller than the pivot and takes its seat.
        while True:
            pivot_row = a[r]
            p = pivot_row[c]
            rest = []
            for i in [i for i in active if i != r and c in a[i]]:
                row = a[i]
                q = row[c] // p
                if q:  # row i -= q * row r
                    _add_multiple(row, pivot_row, -q)
                    _add_multiple(u[i], u[r], -q)
                if not row:
                    del active[i]
                elif c in row:
                    rest.append(i)
            if rest:
                r = min(rest, key=lambda i: abs(a[i][c]))
                continue
            for k in [k for k in pivot_row if k != c]:
                q = pivot_row[k] // p
                if q:  # column k -= q * column c, which is zero off row r
                    x = pivot_row[k] - q * p
                    if x:
                        pivot_row[k] = x
                    else:
                        del pivot_row[k]
                    _add_multiple(v.setdefault(k, {k: 1}), v.get(c, {c: 1}), -q)
            rest = [k for k in pivot_row if k != c]
            if rest:
                c = min(rest, key=lambda k: abs(pivot_row[k]))
                continue
            break
        pivots.append((r, c))
        del active[r]

    d = []
    for r, c in pivots:
        if a[r][c] < 0:
            u[r] = {k: -x for k, x in u[r].items()}
        d.append(abs(a[r][c]))
    # Kannan-Bachem: a 2x2 gcd move turns diag(x, y) into diag(g, xy/g),
    # g = gcd(x, y) = s x + t y, by the unimodular row move
    # [[s, t], [-y/g, x/g]] and column move [[1, -t y/g], [1, s x/g]].
    # After the pass over j, d[i] divides every later entry, and later
    # moves only replace entries by gcds and lcms of multiples of d[i].
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            x, y = d[i], d[j]
            if y % x:
                g, s, t = _xgcd(x, y)
                (ri, ci), (rj, cj) = pivots[i], pivots[j]
                u[ri], u[rj] = (
                    _combine(s, u[ri], t, u[rj]),
                    _combine(-y // g, u[ri], x // g, u[rj]),
                )
                vi, vj = v.get(ci, {ci: 1}), v.get(cj, {cj: 1})
                v[ci], v[cj] = (
                    _combine(1, vi, 1, vj),
                    _combine(-t * y // g, vi, s * x // g, vj),
                )
                d[i], d[j] = g, x // g * y

    # Pivot rows move to the front, in chain order, followed by the rest.
    pivot_rows = [r for r, _ in pivots]
    taken = set(pivot_rows)
    u_rows = [u[r] for r in pivot_rows] + [u[i] for i in range(height) if i not in taken]
    return d, u_rows, [c for _, c in pivots], v


def _multiplies_back(
    lines: list[dict[int, int]],
    u_rows: list[dict[int, int]],
    pivot_cols: list[int],
    v: dict[int, dict[int, int]],
    d: list[int],
) -> bool:
    """Whether U @ A @ V = diag(d) for A with the given rows, U with the
    given rows and V as _reduce returns it.

    Computed on the non-zero entries alone.  V's rows are built from the
    columns v holds, and the 1 of an implicit column k joins row k of V
    only where the product meets that row; the position of a column that
    is not a pivot, rank plus the number of non-pivot columns before it,
    comes from a bisect over the sorted pivot columns.  So the check costs
    the entries of U, of the rows of A that U reads and of the touched
    columns, never the width.
    """
    rank = len(pivot_cols)
    seat = {c: t for t, c in enumerate(pivot_cols)}
    order = sorted(pivot_cols)

    def place(k: int) -> int:
        t = seat.get(k)
        return rank + k - bisect_left(order, k) if t is None else t

    v_rows: dict[int, dict[int, int]] = {}
    for k, col in v.items():
        t = place(k)
        for j, x in col.items():
            row = v_rows.get(j)
            if row is None:
                v_rows[j] = {t: x}
            else:
                row[t] = x
    for j, row in v_rows.items():
        if j not in v:
            row[place(j)] = 1
    for t, u_row in enumerate(u_rows):
        ua: dict[int, int] = {}
        for k, x in u_row.items():
            _add_multiple(ua, lines[k], x)
        uav: dict[int, int] = {}
        for k, x in ua.items():
            row = v_rows.get(k)
            if row is None:  # no touched column meets row k of V
                row = v_rows[k] = {} if k in v else {place(k): 1}
            _add_multiple(uav, row, x)
        if uav != ({t: d[t]} if t < rank else {}):
            return False
    return True


def _smith(
    lines: list[dict[int, int]], width: int
) -> tuple[list[int], list[dict[int, int]], list[int], dict[int, dict[int, int]]]:
    """_reduce of the len(lines) x width matrix with these sparse rows,
    for smith_normal_form and every cokernel alike, checked by
    multiplying back before it returns."""
    d, u_rows, pivot_cols, v = _reduce(lines, width)
    if not _multiplies_back(lines, u_rows, pivot_cols, v, d):
        raise AssertionError("smith reduction failed its multiply-back verification")
    return d, u_rows, pivot_cols, v


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Diagonalize m over Z with tracked unimodular row/column transforms.

    m's rows become sparse lines once; the working matrix and U are kept
    as sparse rows, V as the sparse columns a move has touched, and each
    move visits only non-zero entries.  Each pivot is the smallest
    non-zero entry left, found by a search that stops at the first unit;
    clearing its row and column by euclidean steps moves the pivot seat to
    any smaller remainder.  A final pass of 2x2 gcd moves between
    diagonal entries makes the diagonal a divisibility chain.

    The result is verified by multiplying U @ m @ V back together before
    returning, on exactly the m given and on the non-zero entries alone.
    U and V become IntMatrix values only when first read.
    """
    lines = [{k: x for k, x in enumerate(m.row(i)) if x} for i in range(m.rows)]
    d, u_rows, pivot_cols, v = _smith(lines, m.cols)
    U = partial(_dense, m.rows, m.rows, u_rows, True)
    V = partial(_dense_v, m.cols, pivot_cols, v)
    return SmithForm(tuple(d), len(d), U, V)


# --- presentations to matrices ------------------------------------------------


def _columns(p) -> dict[GeneratorSymbol, int]:
    """The {generator: column} map of p's generators: the one a
    Presentation carries, or, for any other object with generators, one
    built for this call."""
    column = getattr(p, "_columns", None)
    return {g: c for c, g in enumerate(p.generators)} if column is None else column


def _exponent_line(word: Word, column: dict[GeneratorSymbol, int]) -> dict[int, int]:
    """The exponent sums of word as a sparse line over the generators that
    column numbers, read in one pass over its letters.  A letter outside
    them raises MissingImageError naming its symbol."""
    line: dict[int, int] = {}
    for letter in word.letters:
        try:
            c = column[letter.symbol]
        except KeyError:
            raise MissingImageError(letter.symbol) from None
        line[c] = line.get(c, 0) + letter.exponent
    return {c: x for c, x in line.items() if x}


def relation_matrix(p) -> IntMatrix:
    """Abelianized relator matrix: one row per relator, one column per
    generator (in the presentation's generator order)."""
    column = _columns(p)
    lines = (_exponent_line(word, column) for word in p.relators)
    return _dense(len(p.relators), len(p.generators), lines, True)


def _cokernel_of_lines(rows: int, lines: Iterable[dict[int, int]]) -> FGAbelianGroup:
    """Z^rows modulo the span of the given sparse lines.

    Zero lines and repeats of an earlier line add nothing to the span, so
    they are dropped, a line being keyed on its items.  The lines kept are
    the rows of the transpose, whose invariant factors are the same, and
    go to Smith reduction and its multiply-back check as they are.  Each
    line kept is checked against MAX_MATRIX_CELLS as it is kept, so no
    line is read past the one that passes the bound.
    """
    kept: dict[frozenset[tuple[int, int]], dict[int, int]] = {}
    for line in lines:
        if line:
            key = frozenset(line.items())
            if key not in kept:
                _check_cells(len(kept) + 1, rows)
                kept[key] = line
    if not kept:
        return FGAbelianGroup(rows)
    d = _smith(list(kept.values()), rows)[0]
    return FGAbelianGroup(rows - len(d), tuple([x for x in d if x > 1]))


def cokernel(m: IntMatrix) -> FGAbelianGroup:
    """Z^rows modulo the column space of m."""
    columns = (m.entries[c :: m.cols] for c in range(m.cols))
    return _cokernel_of_lines(m.rows, ({r: x for r, x in enumerate(col) if x} for col in columns))


def h1(p) -> FGAbelianGroup:
    """First homology (abelianization) of a presented group: Z^generators
    modulo the span of the relators' exponent lines.

    A presentation that presentations marks (a built tower, or a quotient
    of one) is read through its extras alone: its tower's conjugation
    relators have zero exponent lines, so they are neither built nor
    read, and H1 costs the letters of the extras.  Any other presentation,
    an imported one among them, has every relator read.
    """
    marked = getattr(p, "_marked", None)
    relators = p.relators if marked is None else marked[1]
    column = _columns(p)
    return _cokernel_of_lines(len(p.generators), (_exponent_line(w, column) for w in relators))
