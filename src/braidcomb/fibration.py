"""Fibre calculus for configuration spaces sitting inside product spaces.

Including the configuration space of n points on a closed surface M into
the n-fold product M^n is not a fibration, but its homotopy fibre I_n is a
tractable space: its fundamental group is a direct product R_{n-1} x Z^{n-1},
where the braid-like factor R is the pure braid group one point down when M
is the sphere and the level-(n-1) orbit group when M is the projective
plane.  This module models elements of that fibre group, the distinguished
classes delta_i and tau_hat living in it, and the boundary homomorphism
sending a basis of pi_2 of the product into it — first at word level, then
abelianized to an integer matrix whose Smith form drives the downstream
checks: exactness, quotient identifications, and the splitting (or
provable non-splitting) of the induced short exact sequences.

Braid-part equalities are always decided through the combing engine; the
Z^{n-1} factor is handled exactly as integer vectors.

The boundary map's tower constants are built once per (surface, n):
tau_hat squared, the image of every pi_2 basis label and their
abelianized columns as sparse lines, held for the _BOUNDARY_ENTRIES most
recently used (surface, n).  No caller changes them, so every caller
shares them.  Nothing that answers a question is cached: every call of
the checks below builds its quotient presentation again, takes cokernels
of the cached columns (no check builds a dense matrix) by Smith reduction
with its multiply-back check, and combs again.  Products and inverses
of fibre elements skip re-checking their letters, which their factors
already passed; the constructor checks every letter it is given.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .abelian import (
    FGAbelianGroup,
    IntMatrix,
    _cokernel_of_lines,
    _dense,
    _exponent_line,
    _require_integers,
    h1,
    has_torsion,
)
from .combing import words_equal
from .errors import InvalidArgumentError, NoUnitCoordinateError
from .presentations import (
    Presentation,
    TowerSpec,
    artin_presentation,
    element_Theta,
    element_full_twist,
    orbit_presentation,
    quotient_by,
)
from .words import DEFAULT_WORD_CAP, IDENTITY, GenFamily, Word, _frozen, _trusted

__all__ = [
    "Surface",
    "FibreElement",
    "ExactnessReport",
    "QuotientReport",
    "SplitReport",
    "NonSplitReport",
    "BoundarySumReport",
    "fibre_presentation",
    "fibre_elements_equal",
    "pi2_basis",
    "delta_generator",
    "tau_hat",
    "boundary_image",
    "strict_corollary_image",
    "strict_corollary_discrepancy",
    "boundary_matrix_ab",
    "exactness_report",
    "quotient_check",
    "iota_sharp_vector",
    "split_ses_check",
    "nonsplit_witness_s2",
    "boundary_sum_identity",
]


class Surface(enum.Enum):
    """Which closed surface the configuration points live on.

    ``n0`` is the smallest number of points at which the fibre calculus
    below is stated: three on the sphere, two on the projective plane.
    """

    S2 = "s2"
    RP2 = "rp2"

    @property
    def n0(self) -> int:
        return 3 if self is Surface.S2 else 2

    @property
    def fibre_family(self) -> GenFamily:
        """Alphabet of the braid-like fibre factor: bands for the sphere,
        orbit generators for the projective plane."""
        return GenFamily.BAND if self is Surface.S2 else GenFamily.ORBIT


@lru_cache(maxsize=None)
def _fibre_tower(surface: Surface, n: int) -> TowerSpec:
    """The tower of R_{n-1}: all that combing reads; no relator is built.

    Every entry point of the fibre calculus calls this first, as its one
    check of n: n is at least n0 and R_{n-1} is within
    MAX_TOWER_GENERATORS, before anything of size n is built.  Only valid
    n are cached, so the cache stays within the bound.
    """
    if n < surface.n0:
        raise InvalidArgumentError(
            f"the fibre calculus over {surface.value} starts at n = {surface.n0}, got n = {n}"
        )
    try:
        return TowerSpec(surface.fibre_family, n - 1)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(
            f"the fibre factor R_{n - 1} over {surface.value} at n = {n} is too tall: {exc}"
        ) from None


@lru_cache(maxsize=None)
def fibre_presentation(surface: Surface, n: int) -> Presentation:
    """Presentation of the braid-like factor R_{n-1} of the fibre group."""
    _fibre_tower(surface, n)
    if surface is Surface.S2:
        return artin_presentation(n - 1)
    return orbit_presentation(n - 1)


@_frozen
class FibreElement:
    """An element of the fibre group R_{n-1} x Z^{n-1}.

    ``r_part`` is a word over the braid-like factor's alphabet for
    ``(surface, n)`` and ``z_part`` lists the exponents of the n-1
    commuting loop generators.  The product structure is direct: words
    concatenate, vectors add, and the two halves never interact.
    """

    surface: Surface
    n: int
    r_part: Word
    z_part: tuple[int, ...]

    def __post_init__(self) -> None:
        _fibre_tower(self.surface, self.n)
        if len(self.z_part) != self.n - 1:
            raise InvalidArgumentError(
                f"z_part must have length {self.n - 1}, got {len(self.z_part)}"
            )
        _require_integers("z_part exponents", self.z_part)
        family = self.surface.fibre_family
        for letter in self.r_part:
            sym = letter.symbol
            if sym.family is not family or sym.level > self.n - 1:
                raise InvalidArgumentError(
                    f"generator {sym} is outside the fibre alphabet "
                    f"for ({self.surface.value}, n={self.n})"
                )

    @classmethod
    def identity(cls, surface: Surface, n: int) -> "FibreElement":
        _fibre_tower(surface, n)  # before the z_part of length n - 1 is built
        return cls(surface, n, IDENTITY, (0,) * (n - 1))

    @property
    def is_identity(self) -> bool:
        """Freely-reduced identity test; see fibre_elements_equal for the
        group-level question."""
        return self.r_part.is_identity and not any(self.z_part)

    # A product or inverse of checked elements is built unchecked: its
    # letters are letters of the factors and its z_part keeps their length.

    def __mul__(self, other: "FibreElement") -> "FibreElement":
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.surface, self.n) != (other.surface, other.n):
            raise InvalidArgumentError(
                "cannot multiply fibre elements attached to different (surface, n)"
            )
        return _trusted(
            FibreElement,
            surface=self.surface,
            n=self.n,
            r_part=self.r_part * other.r_part,
            z_part=tuple([a + b for a, b in zip(self.z_part, other.z_part)]),
        )

    def inverse(self) -> "FibreElement":
        return _trusted(
            FibreElement,
            surface=self.surface,
            n=self.n,
            r_part=self.r_part.inverse(),
            z_part=tuple([-a for a in self.z_part]),
        )

    def __str__(self) -> str:
        return f"({self.r_part}; {','.join(str(a) for a in self.z_part)})"


def fibre_elements_equal(
    a: FibreElement, b: FibreElement, word_cap: int = DEFAULT_WORD_CAP
) -> bool:
    """Group equality in the fibre: z-vectors on the nose, braid parts
    through the combing engine.

    Two braid parts that are the same reduced word within word_cap are
    equal without a comb; a longer one is combed, and refused as an input
    word past the cap."""
    if (a.surface, a.n) != (b.surface, b.n):
        raise InvalidArgumentError("elements live in different fibre groups")
    if a.z_part != b.z_part:
        return False
    if len(a.r_part) <= word_cap and a.r_part == b.r_part:
        return True
    return words_equal(_fibre_tower(a.surface, a.n), a.r_part, b.r_part, word_cap)


def pi2_basis(surface: Surface, n: int) -> tuple[str, ...]:
    """Ordered labels for a basis of pi_2 of the n-fold product.

    Sphere: one label per movable basepoint, ``x0`` .. ``x{n-3}``, then
    ``z0`` and its antipode ``-z0``.  Projective plane: ``x0`` .. ``x{n-2}``
    and the single ``z0``.  Always exactly n labels.
    """
    _fibre_tower(surface, n)
    if surface is Surface.S2:
        return tuple([f"x{i}" for i in range(n - 2)]) + ("z0", "-z0")
    return tuple([f"x{i}" for i in range(n - 1)]) + ("z0",)


def delta_generator(surface: Surface, n: int, i: int) -> FibreElement:
    """The loop class around the i-th sphere factor: trivial braid part,
    i-th unit vector in the Z^{n-1} factor."""
    _fibre_tower(surface, n)
    if not 0 <= i <= n - 2:
        raise InvalidArgumentError(
            f"delta index must satisfy 0 <= i <= {n - 2}, got {i}"
        )
    return FibreElement(
        surface, n, IDENTITY, tuple([1 if t == i else 0 for t in range(n - 1)])
    )


def tau_hat(surface: Surface, n: int) -> FibreElement:
    """The fibre class of spinning every point once around the base sphere.

    On the sphere side it is the full twist on n-1 strands; on the
    projective plane it is the inverse of the central element Theta_{n-1}.
    Either way the Z^{n-1} coordinates vanish.
    """
    _fibre_tower(surface, n)
    if surface is Surface.S2:
        word = element_full_twist(n - 1)
    else:
        word = element_Theta(n - 1).inverse()
    return FibreElement(surface, n, word, (0,) * (n - 1))


# The most (surface, n) whose boundary data _boundary_images holds at once.
# Within the tower bound the largest entry is (s2, 72): the full twist on 71
# strands squared and inverse squared (4,970 letters each), 72 vectors of 71
# ints and 72 sparse columns, the last of 2,556 entries: 1.78 MB by
# tracemalloc on a first call, 0.09 MB of it the columns; 16 such entries
# would hold 29 MB.
_BOUNDARY_ENTRIES = 16


class _Boundary(NamedTuple):
    """The tower constants of the boundary map at one (surface, n)."""

    labels: tuple[str, ...]  # pi2_basis(surface, n)
    tau_hat_squared: FibreElement
    images: tuple[FibreElement, ...]  # one per label, in label order
    lines: tuple[dict[int, int], ...]  # boundary_matrix_ab's columns, sparse; only read
    rows: int  # its row count: n - 1 loop slots, then R_{n-1}'s generators


@lru_cache(maxsize=_BOUNDARY_ENTRIES)
def _boundary_images(surface: Surface, n: int) -> _Boundary:
    """tau_hat squared, built once, and the image of every pi_2 basis
    label (see boundary_image) at one (surface, n), with each image's
    abelianized column (its z_part, then the exponent line of its r_part
    past the n-1 loop slots): the first n-1 labels map to the delta
    generators in slot order, the final label to the image that carries
    tau_hat squared.  No caller changes the values, so every caller shares
    them."""
    labels = pi2_basis(surface, n)
    half = tau_hat(surface, n)
    squared = half * half
    ones = FibreElement(surface, n, IDENTITY, (1,) * (n - 1))  # the sum of all deltas
    final = squared * ones.inverse() if surface is Surface.RP2 else ones * squared.inverse()
    images = (*[delta_generator(surface, n, i) for i in range(n - 1)], final)
    columns = {g: c for c, g in enumerate(_fibre_tower(surface, n).all_generators())}
    lines = []
    for img in images:
        line = {t: x for t, x in enumerate(img.z_part) if x}
        for c, x in _exponent_line(img.r_part, columns).items():
            line[n - 1 + c] = x
        lines.append(line)
    return _Boundary(labels, squared, images, tuple(lines), n - 1 + len(columns))


def boundary_image(surface: Surface, n: int, basis_label: str) -> FibreElement:
    """Image of one pi_2 basis class under the boundary map into the fibre.

    Every ``x`` label maps to its delta generator, and on the sphere so
    does ``z0`` (slot n-2).  The final label carries the square of tau_hat:
    over the projective plane ``z0`` maps to tau_hat^2 minus the sum of all
    deltas, i.e. (Theta_{n-1}^{-2}, (-1,...,-1)); over the sphere ``-z0``
    maps to the sum of all deltas minus tau_hat^2, i.e. (inverse square of
    the full twist, (1,...,1)).
    """
    data = _boundary_images(surface, n)
    if basis_label not in data.labels:
        raise InvalidArgumentError(
            f"unknown basis label {basis_label!r} for ({surface.value}, n={n})"
        )
    return data.images[data.labels.index(basis_label)]


def strict_corollary_image(surface: Surface, n: int) -> FibreElement:
    """The final basis label's image under the terser tabulated closed form.

    There are two closed forms for where the last pi_2 label goes: the one
    forced by the squared-twist identity (used by :func:`boundary_image`)
    and a shorter tabulation that, over the sphere, omits the delta term in
    the ``z0`` slot.  This returns the shorter form so front ends can
    report the difference instead of silently picking a side; over the
    projective plane the two coincide.
    """
    final = _boundary_images(surface, n).images[-1]
    if surface is Surface.RP2:
        return final
    return final * delta_generator(surface, n, n - 2).inverse()


def strict_corollary_discrepancy(surface: Surface, n: int) -> FibreElement:
    """boundary_image(final label) divided by the terser closed form.

    Identity over the projective plane; the delta generator in the ``z0``
    slot over the sphere.
    """
    final = _boundary_images(surface, n).images[-1]
    return final * strict_corollary_image(surface, n).inverse()


# --- abelianized boundary -----------------------------------------------------


def boundary_matrix_ab(surface: Surface, n: int) -> IntMatrix:
    """Matrix of the boundary map on H1.

    Columns follow the pi_2 basis order.  Rows list the n-1 loop slots
    first, then the abelianized classes of the braid factor's generators in
    presentation order.  The layout is a fixed convention of this package;
    only Smith-form invariants and cokernels are contractual.  The checks
    below read the same columns as sparse lines and never build this.
    """
    data = _boundary_images(surface, n)
    return _dense(data.rows, n, data.lines, False)


@_frozen
class ExactnessReport:
    """Abelianized exactness facts for one (surface, n)."""

    surface: Surface
    n: int
    matrix_rank: int
    injective: bool
    z_factor_saturated: bool

    @property
    def ok(self) -> bool:
        return self.injective and self.z_factor_saturated


def exactness_report(surface: Surface, n: int) -> ExactnessReport:
    """Rank and saturation checks on the abelianized boundary matrix.

    ``injective`` asks for full column rank n (no pi_2 class dies on H1);
    ``z_factor_saturated`` asks that the loop-slot rows of the image span
    Z^{n-1} with trivial cokernel, so the braid factor alone carries the
    quotient.

    Both are read from cokernels of the n boundary columns as sparse
    lines: the rank is the row count less the free rank of the matrix's
    cokernel, and saturation is a trivial cokernel of the columns cut to
    the loop slots.  No dense matrix is built.
    """
    data = _boundary_images(surface, n)
    rank = data.rows - _cokernel_of_lines(data.rows, data.lines).free_rank
    loops = ({t: x for t, x in line.items() if t < n - 1} for line in data.lines)
    saturated = _cokernel_of_lines(n - 1, loops) == FGAbelianGroup(0)
    return ExactnessReport(surface, n, rank, rank == n, saturated)


@_frozen
class QuotientReport:
    """H1 of the configuration quotient computed along two routes."""

    surface: Surface
    n: int
    from_cokernel: FGAbelianGroup
    from_presentation: FGAbelianGroup

    @property
    def agree(self) -> bool:
        return self.from_cokernel == self.from_presentation

    @property
    def ok(self) -> bool:
        return self.agree


def quotient_check(surface: Surface, n: int) -> QuotientReport:
    """Compares H1 of the quotient group two independent ways.

    Route (a): cokernel of :func:`boundary_matrix_ab`, read from its
    columns as sparse lines.  Route (b): H1 of
    the braid factor's presentation with the braid part of tau_hat squared
    adjoined as a relator — the full twist squared for the sphere, Theta
    to the minus two for the projective plane (a relator and its inverse
    give the same H1).  The two must agree as canonical FGAbelianGroup
    values.
    """
    data = _boundary_images(surface, n)
    side_a = _cokernel_of_lines(data.rows, data.lines)
    squared = data.tau_hat_squared
    side_b = h1(quotient_by(fibre_presentation(surface, n), [squared.r_part]))
    return QuotientReport(surface, n, side_a, side_b)


# --- diagonal sequences -------------------------------------------------------

# The most points the diagonal sequences are checked at.  The quotient of
# A^n is the Smith reduction of a matrix with about n * rank(A) rows and
# columns, so the cost grows faster than n**2: `verify --suite split` at
# n = 200 takes 0.3 s on a 2-core Xeon VM.
MAX_SPLIT_N = 200


def iota_sharp_vector(surface: Surface, n: int, k: int) -> tuple[int, ...]:
    """Coordinate vector of the inclusion-induced map on the k-th homotopy
    group of the n-fold product.

    The two-point sphere at k = 2 is anti-diagonal, (1, -1); every other
    case in range is the all-ones diagonal.  The sphere at k = 2 with more
    than two points carries no class to map, so that request is rejected
    rather than answered.  n is at most MAX_SPLIT_N, the bound of the
    splitting check the vector feeds.
    """
    if k < 2:
        raise InvalidArgumentError(f"iota_sharp_vector needs k >= 2, got k = {k}")
    if n < 2:
        raise InvalidArgumentError(f"iota_sharp_vector needs n >= 2, got n = {n}")
    _check_split_n(n)
    if surface is Surface.S2 and k == 2:
        if n == 2:
            return (1, -1)
        raise InvalidArgumentError(
            "over the sphere at k = 2 only n = 2 carries a class; "
            "use the boundary calculus for larger n"
        )
    return (1,) * n


def _check_split_n(n: int) -> None:
    """Refuses n past MAX_SPLIT_N before a vector of length n is built."""
    if n > MAX_SPLIT_N:
        raise InvalidArgumentError(
            f"the diagonal sequences at n = {n} are past the bound MAX_SPLIT_N={MAX_SPLIT_N}"
        )


@_frozen
class SplitReport:
    """Outcome of the coordinate-vector splitting check."""

    coeff: FGAbelianGroup
    n: int
    vector: tuple[int, ...]
    section_index: int
    section_identity: bool
    quotient: FGAbelianGroup
    expected: FGAbelianGroup

    @property
    def ok(self) -> bool:
        return self.section_identity and self.quotient == self.expected


def split_ses_check(
    coeff: FGAbelianGroup, n: int, vector: Sequence[int]
) -> SplitReport:
    """Verifies that 1 -> A -> A^n -> A^{n-1} -> 1 splits along a vector.

    The left map is Theta(v) = (vector_0 * v, ..., vector_{n-1} * v).  With
    a unit coordinate at index i, the section h = g o pi_i (g inverting
    multiplication by vector_i) satisfies h o Theta = id on all of A, since
    vector_i * vector_i = 1, so section_identity holds by construction.
    The quotient A^n / im Theta is presented by integer relations and must
    equal A^{n-1} as a canonical FGAbelianGroup.  A vector with no +1/-1
    entry raises NoUnitCoordinateError: the argument needs a unit somewhere
    and promises nothing without one.  n past MAX_SPLIT_N is refused before
    the vector is read, and a relation matrix past MAX_MATRIX_CELLS at the
    first relation past the bound, which the cokernel builds one by one.
    """
    if n < 2:
        raise InvalidArgumentError(f"split_ses_check needs n >= 2, got n = {n}")
    _check_split_n(n)
    vec = tuple(vector)
    _require_integers("vector coordinates", vec)
    if len(vec) != n:
        raise InvalidArgumentError(
            f"vector length {len(vec)} does not match n = {n}"
        )
    unit_at = next((t for t, c in enumerate(vec) if c in (1, -1)), None)
    if unit_at is None:
        raise NoUnitCoordinateError(
            f"no +1/-1 coordinate in {vec}; the sequence need not split"
        )

    free, torsion = coeff.free_rank, coeff.torsion
    gsize = free + len(torsion)
    # Present A^n / im Theta: ambient Z^{n*gsize}, relations, as sparse
    # columns, the torsion orders in every copy plus one Theta image per
    # generator of A: distinct and non-zero, so the cokernel keeps them all.
    columns = chain(
        ({c * gsize + free + t: d} for c in range(n) for t, d in enumerate(torsion)),
        ({c * gsize + a: x for c, x in enumerate(vec) if x} for a in range(gsize)),
    )
    quotient = _cokernel_of_lines(n * gsize, columns)
    # n - 1 copies of a divisibility chain, sorted, are again one.
    expected = FGAbelianGroup(free * (n - 1), tuple(sorted(torsion * (n - 1))))
    # g inverts multiplication by the unit u, as u * u = 1, so h(Theta(v)) =
    # u * u * v = v for every v in A: the section is the identity unchecked.
    return SplitReport(coeff, n, vec, unit_at, True, quotient, expected)


@_frozen
class NonSplitReport:
    """Torsion obstruction to splitting the sphere's k = 2 sequence."""

    n: int
    middle_h1: FGAbelianGroup
    quotient_h1: FGAbelianGroup
    middle_torsion_free: bool
    quotient_has_two_torsion: bool

    @property
    def ok(self) -> bool:
        return self.middle_torsion_free and self.quotient_has_two_torsion


def nonsplit_witness_s2(n: int) -> NonSplitReport:
    """Why the k = 2 sequence over the sphere admits no section for n >= 3.

    A splitting would embed the quotient in the middle term, so torsion in
    the quotient's H1 alongside a torsion-free middle H1 is a contradiction
    witness.  The middle term abelianizes to H1 of the pure braid factor
    plus a free Z^{n-1}; the quotient's H1 is the cokernel of the
    abelianized boundary matrix and keeps a Z/2 factor.
    """
    if n < 3:
        raise InvalidArgumentError(
            f"the non-splitting witness needs n >= 3, got n = {n}"
        )
    middle = h1(fibre_presentation(Surface.S2, n)).direct_sum(FGAbelianGroup(n - 1))
    data = _boundary_images(Surface.S2, n)
    quot = _cokernel_of_lines(data.rows, data.lines)
    return NonSplitReport(
        n, middle, quot, not has_torsion(middle), 2 in quot.torsion
    )


# --- word-level identities ----------------------------------------------------


@_frozen
class BoundarySumReport:
    """The signed sum of all boundary images against tau_hat squared."""

    surface: Surface
    n: int
    signed_sum: FibreElement
    tau_hat_squared: FibreElement
    agree: bool

    @property
    def ok(self) -> bool:
        return self.agree


def boundary_sum_identity(
    surface: Surface, n: int, word_cap: int = DEFAULT_WORD_CAP
) -> BoundarySumReport:
    """Collapses the signed sum of boundary images to tau_hat squared.

    Signs are all positive except over the sphere, where the ``-z0`` image
    enters inverted.  Z-coordinates must cancel to zero exactly; the braid
    parts are compared by fibre_elements_equal, which needs no comb when
    the product is tau_hat squared letter for letter.
    """
    data = _boundary_images(surface, n)
    total = FibreElement.identity(surface, n)
    for label, img in zip(data.labels, data.images):
        total = total * (img.inverse() if label == "-z0" else img)
    squared = data.tau_hat_squared
    agree = fibre_elements_equal(total, squared, word_cap)
    return BoundarySumReport(surface, n, total, squared, agree)
