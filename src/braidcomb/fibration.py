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
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce

from .abelian import (
    FGAbelianGroup,
    IntMatrix,
    _exponent_vectors,
    cokernel,
    h1,
    has_torsion,
    smith_normal_form,
)
from .combing import DEFAULT_WORD_CAP, words_equal
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
from .words import (
    IDENTITY,
    GenFamily,
    GeneratorSymbol,
    Letter,
    Word,
    band_gen,
    orbit_gen,
    surface_gen,
)


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


def _require_n(surface: Surface, n: int) -> None:
    if n < surface.n0:
        raise InvalidArgumentError(
            f"the fibre calculus over {surface.value} starts at n = {surface.n0}, got n = {n}"
        )


@lru_cache(maxsize=None)
def fibre_presentation(surface: Surface, n: int) -> Presentation:
    """Presentation of the braid-like factor R_{n-1} of the fibre group."""
    _require_n(surface, n)
    if surface is Surface.S2:
        return artin_presentation(n - 1)
    return orbit_presentation(n - 1)


@lru_cache(maxsize=None)
def _fibre_tower(surface: Surface, n: int) -> TowerSpec:
    """The tower of R_{n-1}: all that combing reads; no relator is built."""
    _require_n(surface, n)
    return TowerSpec(surface.fibre_family, n - 1)


@dataclass(frozen=True)
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
        _require_n(self.surface, self.n)
        if len(self.z_part) != self.n - 1:
            raise InvalidArgumentError(
                f"z_part must have length {self.n - 1}, got {len(self.z_part)}"
            )
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
        return cls(surface, n, IDENTITY, (0,) * (n - 1))

    @property
    def is_identity(self) -> bool:
        """Freely-reduced identity test; see fibre_elements_equal for the
        group-level question."""
        return self.r_part.is_identity and not any(self.z_part)

    def __mul__(self, other: "FibreElement") -> "FibreElement":
        if (self.surface, self.n) != (other.surface, other.n):
            raise InvalidArgumentError(
                "cannot multiply fibre elements attached to different (surface, n)"
            )
        return FibreElement(
            self.surface,
            self.n,
            self.r_part * other.r_part,
            tuple(a + b for a, b in zip(self.z_part, other.z_part)),
        )

    def inverse(self) -> "FibreElement":
        return FibreElement(
            self.surface,
            self.n,
            self.r_part.inverse(),
            tuple(-a for a in self.z_part),
        )

    def __str__(self) -> str:
        return f"({self.r_part}; {','.join(str(a) for a in self.z_part)})"


def fibre_elements_equal(
    a: FibreElement, b: FibreElement, word_cap: int = DEFAULT_WORD_CAP
) -> bool:
    """Group equality in the fibre: z-vectors on the nose, braid parts
    through the combing engine."""
    if (a.surface, a.n) != (b.surface, b.n):
        raise InvalidArgumentError("elements live in different fibre groups")
    if a.z_part != b.z_part:
        return False
    return words_equal(_fibre_tower(a.surface, a.n), a.r_part, b.r_part, word_cap)


def pi2_basis(surface: Surface, n: int) -> tuple[str, ...]:
    """Ordered labels for a basis of pi_2 of the n-fold product.

    Sphere: one label per movable basepoint, ``x0`` .. ``x{n-3}``, then
    ``z0`` and its antipode ``-z0``.  Projective plane: ``x0`` .. ``x{n-2}``
    and the single ``z0``.  Always exactly n labels.
    """
    _require_n(surface, n)
    if surface is Surface.S2:
        return tuple(f"x{i}" for i in range(n - 2)) + ("z0", "-z0")
    return tuple(f"x{i}" for i in range(n - 1)) + ("z0",)


def delta_generator(surface: Surface, n: int, i: int) -> FibreElement:
    """The loop class around the i-th sphere factor: trivial braid part,
    i-th unit vector in the Z^{n-1} factor."""
    _require_n(surface, n)
    if not 0 <= i <= n - 2:
        raise InvalidArgumentError(
            f"delta index must satisfy 0 <= i <= {n - 2}, got {i}"
        )
    return FibreElement(
        surface, n, IDENTITY, tuple(1 if t == i else 0 for t in range(n - 1))
    )


def tau_hat(surface: Surface, n: int) -> FibreElement:
    """The fibre class of spinning every point once around the base sphere.

    On the sphere side it is the full twist on n-1 strands; on the
    projective plane it is the inverse of the central element Theta_{n-1}.
    Either way the Z^{n-1} coordinates vanish.
    """
    _require_n(surface, n)
    if surface is Surface.S2:
        word = element_full_twist(n - 1)
    else:
        word = element_Theta(n - 1).inverse()
    return FibreElement(surface, n, word, (0,) * (n - 1))


def _tau_hat_squared(surface: Surface, n: int) -> FibreElement:
    half = tau_hat(surface, n)
    return half * half


def _delta_sum(surface: Surface, n: int) -> FibreElement:
    """The sum of all delta generators: trivial braid part, all-ones vector."""
    return FibreElement(surface, n, IDENTITY, (1,) * (n - 1))


def boundary_image(surface: Surface, n: int, basis_label: str) -> FibreElement:
    """Image of one pi_2 basis class under the boundary map into the fibre.

    Every ``x`` label maps to its delta generator, and on the sphere so
    does ``z0`` (slot n-2).  The final label carries the square of tau_hat:
    over the projective plane ``z0`` maps to tau_hat^2 minus the sum of all
    deltas, i.e. (Theta_{n-1}^{-2}, (-1,...,-1)); over the sphere ``-z0``
    maps to the sum of all deltas minus tau_hat^2, i.e. (inverse square of
    the full twist, (1,...,1)).
    """
    basis = pi2_basis(surface, n)
    if basis_label not in basis:
        raise InvalidArgumentError(
            f"unknown basis label {basis_label!r} for ({surface.value}, n={n})"
        )
    if surface is Surface.RP2:
        if basis_label == "z0":
            return _tau_hat_squared(surface, n) * _delta_sum(surface, n).inverse()
        return delta_generator(surface, n, basis.index(basis_label))
    if basis_label == "-z0":
        return _delta_sum(surface, n) * _tau_hat_squared(surface, n).inverse()
    if basis_label == "z0":
        return delta_generator(surface, n, n - 2)
    return delta_generator(surface, n, basis.index(basis_label))


def strict_corollary_image(surface: Surface, n: int) -> FibreElement:
    """The final basis label's image under the terser tabulated closed form.

    There are two closed forms for where the last pi_2 label goes: the one
    forced by the squared-twist identity (used by :func:`boundary_image`)
    and a shorter tabulation that, over the sphere, omits the delta term in
    the ``z0`` slot.  This returns the shorter form so front ends can
    report the difference instead of silently picking a side; over the
    projective plane the two coincide.
    """
    _require_n(surface, n)
    if surface is Surface.RP2:
        return boundary_image(surface, n, "z0")
    return boundary_image(surface, n, "-z0") * delta_generator(surface, n, n - 2).inverse()


def strict_corollary_discrepancy(surface: Surface, n: int) -> FibreElement:
    """boundary_image(final label) divided by the terser closed form.

    Identity over the projective plane; the delta generator in the ``z0``
    slot over the sphere.
    """
    final = pi2_basis(surface, n)[-1]
    return boundary_image(surface, n, final) * strict_corollary_image(surface, n).inverse()


# --- abelianized boundary -----------------------------------------------------


def boundary_matrix_ab(surface: Surface, n: int) -> IntMatrix:
    """Matrix of the boundary map on H1.

    Columns follow the pi_2 basis order.  Rows list the n-1 loop slots
    first, then the abelianized classes of the braid factor's generators in
    presentation order.  The layout is a fixed convention of this package;
    only Smith-form invariants and cokernels are contractual.
    """
    gens = _fibre_tower(surface, n).all_generators()
    images = [boundary_image(surface, n, label) for label in pi2_basis(surface, n)]
    braid_parts = _exponent_vectors((img.r_part for img in images), gens)
    columns = [img.z_part + part for img, part in zip(images, braid_parts)]
    return IntMatrix.from_columns(n - 1 + len(gens), columns)


@dataclass(frozen=True)
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
    """
    m = boundary_matrix_ab(surface, n)
    sf = smith_normal_form(m)
    z_block = IntMatrix.from_rows(m.to_rows()[: n - 1])
    z_sf = smith_normal_form(z_block)
    saturated = z_sf.rank == n - 1 and all(d == 1 for d in z_sf.d)
    return ExactnessReport(surface, n, sf.rank, sf.rank == n, saturated)


@dataclass(frozen=True)
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

    Route (a): cokernel of :func:`boundary_matrix_ab`.  Route (b): H1 of
    the braid factor's presentation with the braid part of tau_hat squared
    adjoined as a relator — the full twist squared for the sphere, Theta
    to the minus two for the projective plane (a relator and its inverse
    give the same H1).  The two must agree as canonical FGAbelianGroup
    values.
    """
    side_a = cokernel(boundary_matrix_ab(surface, n))
    side_b = h1(
        quotient_by(fibre_presentation(surface, n), [_tau_hat_squared(surface, n).r_part])
    )
    return QuotientReport(surface, n, side_a, side_b)


# --- diagonal sequences -------------------------------------------------------


def iota_sharp_vector(surface: Surface, n: int, k: int) -> tuple[int, ...]:
    """Coordinate vector of the inclusion-induced map on the k-th homotopy
    group of the n-fold product.

    The two-point sphere at k = 2 is anti-diagonal, (1, -1); every other
    case in range is the all-ones diagonal.  The sphere at k = 2 with more
    than two points carries no class to map, so that request is rejected
    rather than answered.
    """
    if k < 2:
        raise InvalidArgumentError(f"iota_sharp_vector needs k >= 2, got k = {k}")
    if n < 2:
        raise InvalidArgumentError(f"iota_sharp_vector needs n >= 2, got n = {n}")
    if surface is Surface.S2 and k == 2:
        if n == 2:
            return (1, -1)
        raise InvalidArgumentError(
            "over the sphere at k = 2 only n = 2 carries a class; "
            "use the boundary calculus for larger n"
        )
    return (1,) * n


@dataclass(frozen=True)
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
    multiplication by vector_i) satisfies h o Theta = id, checked here
    exactly on every generator of A, coordinate by coordinate with torsion
    reduced.  The quotient A^n / im Theta is then presented by integer
    relations and must equal A^{n-1} as a canonical FGAbelianGroup.  A
    vector with no +1/-1 entry raises NoUnitCoordinateError: the argument
    needs a unit somewhere and promises nothing without one.
    """
    vec = tuple(int(c) for c in vector)
    if n < 2:
        raise InvalidArgumentError(f"split_ses_check needs n >= 2, got n = {n}")
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

    def normalize(block: list[int]) -> tuple[int, ...]:
        out = list(block)
        for t, d in enumerate(torsion):
            out[free + t] %= d
        return tuple(out)

    u = vec[unit_at]
    section_ok = True
    for a in range(gsize):
        e_a = [1 if t == a else 0 for t in range(gsize)]
        theta_block_i = [vec[unit_at] * x for x in e_a]  # pi_i of Theta(e_a)
        h_of_theta = normalize([u * x for x in theta_block_i])
        if h_of_theta != normalize(e_a):
            section_ok = False
            break

    # Present A^n / im Theta: ambient Z^{n*gsize}, relations the torsion
    # orders in every copy plus one Theta image per generator of A.
    columns: list[list[int]] = []
    total = n * gsize
    for c in range(n):
        for t, d in enumerate(torsion):
            col = [0] * total
            col[c * gsize + free + t] = d
            columns.append(col)
    for a in range(gsize):
        col = [0] * total
        for c in range(n):
            col[c * gsize + a] = vec[c]
        columns.append(col)
    quotient = cokernel(IntMatrix.from_columns(total, columns))
    expected = reduce(FGAbelianGroup.direct_sum, [coeff] * (n - 1))
    return SplitReport(coeff, n, vec, unit_at, section_ok, quotient, expected)


@dataclass(frozen=True)
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
    quot = cokernel(boundary_matrix_ab(Surface.S2, n))
    return NonSplitReport(
        n, middle, quot, not has_torsion(middle), 2 in quot.torsion
    )


# --- word-level identities ----------------------------------------------------


@dataclass(frozen=True)
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
    parts are compared by combing.
    """
    total = FibreElement.identity(surface, n)
    for label in pi2_basis(surface, n):
        img = boundary_image(surface, n, label)
        if surface is Surface.S2 and label == "-z0":
            img = img.inverse()
        total = total * img
    squared = _tau_hat_squared(surface, n)
    agree = fibre_elements_equal(total, squared, word_cap)
    return BoundarySumReport(surface, n, total, squared, agree)


# --- the map into one more point on the projective plane -----------------------


def _single(symbol: GeneratorSymbol, exponent: int = 1) -> Word:
    return Word((Letter(symbol, exponent),))


def upsilon_images(n: int) -> dict[GeneratorSymbol, Word]:
    """Generator images of the embedding into the (n+1)-point projective
    plane group, written over bands A(i,j) and point loops p(j).

    For r(j,i): the plain band A(i,j) when 0 < i < j; the loop-conjugated
    band p(j) A(i-j+1,j) p(j)^-1 when j <= i <= 2j-2; and at i = 0 the
    sandwich p(j) A(1,j) ... A(j-1,j) p(j), which degenerates to p(1)^2 at
    level one.  Images are returned for all n^2 generators; no relation
    checking happens here because the target presentation is out of scope.
    """
    if n < 1:
        raise InvalidArgumentError(f"upsilon_images needs n >= 1, got n = {n}")
    images: dict[GeneratorSymbol, Word] = {}
    for j in range(1, n + 1):
        loop = _single(surface_gen(j))
        band_run = IDENTITY
        for t in range(1, j):
            band_run = band_run * _single(band_gen(t, j))
        for i in range(0, 2 * j - 1):
            if i == 0:
                image = loop * band_run * loop
            elif i < j:
                image = _single(band_gen(i, j))
            else:
                image = loop * _single(band_gen(i - j + 1, j)) * loop.inverse()
            images[orbit_gen(j, i)] = image
    return images
