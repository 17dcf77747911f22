"""Presentations of the orbit-configuration braid tower and of the pure
braid group, plus their distinguished elements and quotients.

The orbit group on ``n`` points has the ``n**2`` generators ``r(j,i)`` and
one relator per (actor, target) pair of generators at distinct levels: a
level-``j`` letter conjugates each level-``k`` letter (``j < k``) to an
explicit word ``u * r(k,l) * u**-1`` in the level-``k`` alphabet alone.
Because every right-hand side is basis-conjugating, each relation is stored
here as just the conjugator ``u`` (see :func:`action_conjugator`); the
relator emitted into the presentation is then

    a * t * a**-1 * (u * t * u**-1)**-1     (freely reduced).

The same storage scheme covers the classical pure braid presentation on the
band generators ``A(i,j)``, whose action rules have four cases instead of
the orbit family's sixteen.

Everything in this module is a pure function of its arguments.  The
combing engine calls none of the builders: it reads only the tower and
replays action_conjugator when pushing letters down it.

Two sizes are bounded before anything is allocated: a tower holds at most
MAX_TOWER_GENERATORS generators, and a presentation built or imported here
at most MAX_RELATORS relators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidArgumentError, MissingImageError
from .words import (
    IDENTITY,
    GenFamily,
    GeneratorSymbol,
    Letter,
    Word,
    band_gen,
    format_word,
    orbit_gen,
    parse_word,
    reduce,
)

__all__ = [
    "MAX_TOWER_GENERATORS",
    "MAX_RELATORS",
    "TowerSpec",
    "Presentation",
    "orbit_presentation",
    "artin_presentation",
    "quotient_by",
    "element_D",
    "element_C",
    "element_E",
    "element_Theta",
    "element_full_twist",
    "action_conjugator",
    "export_presentation",
    "parse_presentation",
]


# --- tower bookkeeping -------------------------------------------------------

# The most generators a tower may have: n**2 for the orbit family, so
# n <= 50, and n(n-1)/2 for the band family, so n <= 71.
MAX_TOWER_GENERATORS = 2_500
# The most relators a presentation may have when it is built or imported:
# G_n up to n = 14 (17,381 relators), P_n up to n = 20 (16,815).
MAX_RELATORS = 20_000


@dataclass(frozen=True)
class TowerSpec:
    """The iterated-semidirect-product shape of a group's generating set.

    A tower is its generator family and its height ``n``; everything else
    is derived from those two fields.  Level j (1 <= j <= n) owns the
    family's generators whose ``level`` property equals j, and the kernel
    at stage j is free on exactly that alphabet (rank 2j-1 for the orbit
    tower, j-1 for the pure braid tower).
    """

    family: GenFamily
    n: int

    def __post_init__(self) -> None:
        if self.family is GenFamily.SURFACE:
            raise InvalidArgumentError("towers are built over the orbit or band alphabets")
        if self.n < 1:
            raise InvalidArgumentError(f"a tower needs at least one level, got n={self.n}")
        if self.generator_count() > MAX_TOWER_GENERATORS:
            raise InvalidArgumentError(
                f"a tower of height n={self.n} has {self.generator_count()} generators, "
                f"past the bound MAX_TOWER_GENERATORS={MAX_TOWER_GENERATORS}"
            )

    def kernel_rank(self, j: int) -> int:
        """Rank of the free kernel adjoined at stage j."""
        if not 1 <= j <= self.n:
            raise InvalidArgumentError(f"no level {j} in a tower of height {self.n}")
        return 2 * j - 1 if self.family is GenFamily.ORBIT else j - 1

    def generator_count(self) -> int:
        """n**2 for the orbit tower, n(n-1)/2 for the band tower."""
        n = self.n
        return n * n if self.family is GenFamily.ORBIT else n * (n - 1) // 2

    def relator_count(self) -> int:
        """The number of relators of the tower's presentation, one per
        (actor, target) pair at levels j < k: the sum over j < k of
        rank(j) * rank(k), that is (sum of ranks)**2 minus the sum of
        squared ranks, halved.  Nothing is built."""
        n = self.n
        if self.family is GenFamily.ORBIT:  # ranks 1, 3, ..., 2n-1
            squares = n * (2 * n - 1) * (2 * n + 1) // 3
        else:  # ranks 0, 1, ..., n-1
            squares = (n - 1) * n * (2 * n - 1) // 6
        return (self.generator_count() ** 2 - squares) // 2

    def alphabet(self, j: int) -> tuple[GeneratorSymbol, ...]:
        if not 1 <= j <= self.n:
            raise InvalidArgumentError(f"no level {j} in a tower of height {self.n}")
        if self.family is GenFamily.ORBIT:
            return tuple(orbit_gen(j, i) for i in range(2 * j - 1))
        return tuple(band_gen(i, j) for i in range(1, j))

    def all_generators(self) -> tuple[GeneratorSymbol, ...]:
        return tuple(sym for j in range(1, self.n + 1) for sym in self.alphabet(j))


# --- presentations -----------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """Generators, relators (each relator r asserts r = identity), and an
    optional tower ``(family, n)`` describing the semidirect decomposition.

    A tower must derive exactly the generators, in the same order."""

    generators: tuple[GeneratorSymbol, ...]
    relators: tuple[Word, ...]
    tower: TowerSpec | None = None

    def __post_init__(self) -> None:
        known = set(self.generators)
        if len(known) != len(self.generators):
            raise InvalidArgumentError("duplicate generator")
        for relator in self.relators:
            for sym in relator.symbols():
                if sym not in known:
                    raise MissingImageError(sym)
        if self.tower is not None and self.tower.all_generators() != self.generators:
            raise InvalidArgumentError("tower alphabets must exhaust the generators in order")


def orbit_presentation(n: int) -> Presentation:
    """The orbit braid group on n points: n**2 generators r(j,i) and one
    conjugation relator per ordered pair of levels j < k."""
    tower = _presentable_tower(GenFamily.ORBIT, n)
    gens = tower.all_generators()
    # Relators run (family, j, i, k, l)-lexicographically: family (I) has
    # actors r(j,0), family (II) actors r(j,i) with 1 <= i < j, family (III)
    # actors r(j,i) with j <= i <= 2j-2.
    actors = (
        [g for g in gens if g.indices[1] == 0]
        + [g for g in gens if 0 < g.indices[1] < g.level]
        + [g for g in gens if g.indices[1] >= g.level]
    )
    return _tower_presentation(tower, actors)


def artin_presentation(n: int) -> Presentation:
    """The pure braid group on n strands, presented on the bands A(i,j)."""
    tower = _presentable_tower(GenFamily.BAND, n)
    return _tower_presentation(tower, tower.all_generators())


def _presentable_tower(family: GenFamily, n: int) -> TowerSpec:
    """The tower, once its relator count, in closed form, is within bounds."""
    tower = TowerSpec(family, n)
    _check_relator_count(tower.relator_count(), f"the presentation of height n={n}")
    return tower


def _tower_presentation(
    tower: TowerSpec, actors: Sequence[GeneratorSymbol]
) -> Presentation:
    """One conjugation relator per (actor, target) with the target at a
    higher level, actors in the given order, targets level by level."""
    relators = tuple(
        _conjugation_relator(actor, target)
        for actor in actors
        for k in range(actor.level + 1, tower.n + 1)
        for target in tower.alphabet(k)
    )
    return Presentation(tower.all_generators(), relators, tower)


def _check_relator_count(count: int, what: str) -> None:
    if count > MAX_RELATORS:
        raise InvalidArgumentError(
            f"{what} has {count} relators, past the bound MAX_RELATORS={MAX_RELATORS}"
        )


def quotient_by(p: Presentation, extra: Iterable[Word]) -> Presentation:
    """p with extra relators imposed; the tower is dropped (quotients are
    presentations only, not combable groups)."""
    return Presentation(p.generators, p.relators + tuple(extra), tower=None)


def _conjugation_relator(actor: GeneratorSymbol, target: GeneratorSymbol) -> Word:
    u = action_conjugator(actor, target).letters
    a, t = Letter(actor), Letter(target)
    return reduce((a, t, a.inverse(), *u, t.inverse(), *(x.inverse() for x in reversed(u))))


# --- distinguished elements --------------------------------------------------


def _g(symbol: GeneratorSymbol) -> Word:
    return Word((Letter(symbol),))


def _gi(symbol: GeneratorSymbol) -> Word:
    return Word((Letter(symbol, -1),))


def element_D(j: int, k: int) -> Word:
    """D(j,k) = r(k,j) r(k,j+1) ... r(k,k-1); empty when j = k."""
    if not 1 <= j <= k:
        raise InvalidArgumentError(f"element_D needs 1 <= j <= k, got j={j}, k={k}")
    return Word(tuple(Letter(orbit_gen(k, m)) for m in range(j, k)))


def element_C(k: int, j: int) -> Word:
    """C(k,j) = r(k,0)^-1 D(j+1,k)^-1 r(k,j) D(j+1,k) r(k,0)."""
    if not 1 <= j < k:
        raise InvalidArgumentError(f"element_C needs 1 <= j < k, got k={k}, j={j}")
    d = element_D(j + 1, k)
    return _gi(orbit_gen(k, 0)) * d.inverse() * _g(orbit_gen(k, j)) * d * _g(orbit_gen(k, 0))


def element_E(k: int, m: int, q: int) -> Word:
    """E(k,m,q) = r(k,m) r(k,m+1) ... r(k,q) for k <= m <= q <= 2k-2."""
    if not k <= m <= q <= 2 * k - 2:
        raise InvalidArgumentError(
            f"element_E needs k <= m <= q <= 2k-2, got k={k}, m={m}, q={q}"
        )
    return _run_E(k, m, q)


def _run_E(k: int, m: int, q: int) -> Word:
    # Internal variant: q = m-1 yields the empty run, which the relation
    # tables need (e.g. family (I) with j=1, or family (II) with i=j-1).
    assert k <= m <= q + 1 and q <= 2 * k - 2, (k, m, q)
    return Word(tuple(Letter(orbit_gen(k, t)) for t in range(m, q + 1)))


def element_Theta(n: int) -> Word:
    """The central element r(1,0) r(2,0) ... r(n,0) of the orbit group."""
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    return Word(tuple(Letter(orbit_gen(j, 0)) for j in range(1, n + 1)))


def element_full_twist(n: int) -> Word:
    """The full twist of the pure braid group: the product of all bands
    A(i,j) in lexicographic (j,i) order. Generates the centre of P_n."""
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    return Word(
        tuple(Letter(band_gen(i, j)) for j in range(2, n + 1) for i in range(1, j))
    )


# --- the conjugation action --------------------------------------------------


def _commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


def action_conjugator(actor: GeneratorSymbol, target: GeneratorSymbol) -> Word:
    """The word u with  actor * target * actor^-1 = u * target * u^-1.

    This is the whole content of the defining relations: conjugation by a
    lower-level generator fixes each higher-level generator up to
    conjugation within the higher level's own alphabet.  The conjugator u
    is supported entirely on the target's level.
    """
    if actor.family is not target.family or actor.family is GenFamily.SURFACE:
        raise InvalidArgumentError(
            f"no action of {actor} on {target}: alphabets must match and be towered"
        )
    if actor.level >= target.level:
        raise InvalidArgumentError(
            f"actor {actor} must sit strictly below target {target} in the tower"
        )
    if actor.family is GenFamily.ORBIT:
        j, i = actor.indices
        k, l = target.indices
        return _orbit_conjugator(j, i, k, l)
    r, s = actor.indices
    i, k = target.indices
    return _band_conjugator(r, s, i, k)


def _orbit_conjugator(j: int, i: int, k: int, l: int) -> Word:
    if i == 0:
        return _orbit_conjugator_I(j, k, l)
    if i < j:
        return _orbit_conjugator_II(j, i, k, l)
    return _orbit_conjugator_III(j, i, k, l)


def _orbit_conjugator_I(j: int, k: int, l: int) -> Word:
    # Actor r(j,0).  The target offset l walks through seven ranges.
    if l == 0 or j < l < k:
        return IDENTITY
    if 1 <= l < j or k <= l <= k + j - 2:
        return element_C(k, j)
    if l == j:
        # The image IS C(k,j); peel its conjugator off the central r(k,j).
        return _gi(orbit_gen(k, 0)) * element_D(j + 1, k).inverse()
    if l == k + j - 1:
        return (
            element_C(k, j)
            * _run_E(k, k, k + j - 2).inverse()
            * _gi(orbit_gen(k, 0))
            * element_D(1, k).inverse()
        )
    if k + j <= l <= 2 * k - 2:
        return element_C(k, j) * _g(orbit_gen(k, k + j - 1))
    raise AssertionError(f"family (I) fell through: j={j}, k={k}, l={l}")


def _orbit_conjugator_II(j: int, i: int, k: int, l: int) -> Word:
    # Actor r(j,i) with 1 <= i < j.
    inv_kj = _gi(orbit_gen(k, j))
    inv_ki = _gi(orbit_gen(k, i))
    if l == i:
        return inv_kj
    if i < l < j:
        return _commutator(inv_kj, inv_ki)
    if l == j:
        return inv_kj * inv_ki
    if l == k + i - 1:
        return _run_E(k, k + i - 1, k + j - 1) * _run_E(k, k + i, k + j - 2).inverse()
    if l == k + j - 1:
        return _run_E(k, k + i, k + j - 2).inverse() * _run_E(k, k + i - 1, k + j - 2)
    if 0 <= l < i or j < l < k + i - 1 or k + i <= l < k + j - 1 or k + j <= l <= 2 * k - 2:
        return IDENTITY
    raise AssertionError(f"family (II) fell through: j={j}, i={i}, k={k}, l={l}")


def _orbit_conjugator_III(j: int, i: int, k: int, l: int) -> Word:
    # Actor r(j,i) with j <= i <= 2j-2 (so j >= 2).
    inv_kj = _gi(orbit_gen(k, j))
    if l == 0 or j < l < k + i - j:
        return IDENTITY
    if l == i - j + 1:
        comm = _commutator(inv_kj, _gi(orbit_gen(k, k + i - j)))
        core = (
            element_D(i - j + 1, k)
            * _g(orbit_gen(k, 0))
            * _run_E(k, k, k + j - 1)
            * _run_E(k, k, k + j - 2).inverse()
            * _gi(orbit_gen(k, 0))
            * element_D(i - j + 2, k).inverse()
        )
        return comm * core
    if l == j:
        return inv_kj * _gi(orbit_gen(k, k + i - j))
    if l == k + i - j:
        return inv_kj
    if l == k + j - 1:
        comm = _commutator(inv_kj, _gi(orbit_gen(k, k + i - j)))
        return (
            comm
            * _run_E(k, k, k + j - 2).inverse()
            * element_C(k, i - j + 1)
            * _run_E(k, k, k + j - 2)
        )
    if (
        1 <= l <= i - j
        or i - j + 2 <= l < j
        or k + i - j < l < k + j - 1
        or k + j <= l <= 2 * k - 2
    ):
        return _commutator(inv_kj, _gi(orbit_gen(k, k + i - j)))
    raise AssertionError(f"family (III) fell through: j={j}, i={i}, k={k}, l={l}")


def _band_conjugator(r: int, s: int, i: int, k: int) -> Word:
    # Actor A(r,s), target A(i,k), s < k: the classical four-way split on
    # where the target's lower strand i sits relative to r and s.
    if i < r or s < i:
        return IDENTITY
    inv_sk = _gi(band_gen(s, k))
    inv_rk = _gi(band_gen(r, k))
    if i == r:
        return inv_sk
    if i == s:
        return inv_sk * inv_rk
    return _commutator(inv_sk, inv_rk)


# --- export / import ---------------------------------------------------------

_FORMATS = ("text", "json", "gap")


def export_presentation(p: Presentation, fmt: str) -> str:
    """Serialize a presentation as 'text', 'json', or 'gap' script source."""
    if fmt == "text":
        return _export_text(p)
    if fmt == "json":
        return _export_json(p)
    if fmt == "gap":
        return _export_gap(p)
    raise InvalidArgumentError(f"unknown format {fmt!r}; expected one of {_FORMATS}")


def parse_presentation(source: str, fmt: str) -> Presentation:
    """Inverse of export_presentation for the round-trippable formats."""
    if fmt == "text":
        return _parse_text(source)
    if fmt == "json":
        return _parse_json(source)
    raise InvalidArgumentError(f"cannot parse format {fmt!r}; only text and json round-trip")


def _export_text(p: Presentation) -> str:
    lines = ["generators: " + " ".join(str(g) for g in p.generators)]
    if p.relators:
        lines.extend(format_word(r) for r in p.relators)
    else:
        lines.append("(no relators)")
    return "\n".join(lines)


def _parse_text(source: str) -> Presentation:
    lines = [line.strip() for line in source.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("generators:"):
        raise InvalidArgumentError("text presentation must open with a 'generators:' line")
    gens = [_symbol_from_text(token) for token in lines[0][len("generators:") :].split()]
    body = lines[1:]
    _check_relator_count(len(body), "the text presentation")
    if body == ["(no relators)"]:
        relators: tuple[Word, ...] = ()
    else:
        relators = tuple(parse_word(line) for line in body)
    return Presentation(tuple(gens), relators)


def _export_json(p: Presentation) -> str:
    payload = {
        "schema_version": 1,
        "generators": [str(g) for g in p.generators],
        "relators": [
            [[str(letter.symbol), letter.exponent] for letter in r.letters]
            for r in p.relators
        ],
        "tower": None
        if p.tower is None
        else {"family": p.tower.family.value, "n": p.tower.n},
    }
    return json.dumps(payload, indent=2)


def _symbol_from_text(token: str) -> GeneratorSymbol:
    if not isinstance(token, str):  # json import hands over raw values
        raise InvalidArgumentError(f"bad generator token {token!r}")
    word = parse_word(token)
    if len(word) != 1 or word.letters[0].exponent != 1:
        raise InvalidArgumentError(f"bad generator token {token!r}")
    return word.letters[0].symbol


def _parse_json(source: str) -> Presentation:
    try:
        payload = json.loads(source)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"malformed json: {exc}") from None
    if not isinstance(payload, dict) or payload.get("schema_version") != 1:
        raise InvalidArgumentError("expected a schema_version 1 presentation object")
    tower_info = payload.get("tower")
    tower = None if tower_info is None else _json_tower(tower_info)
    raw_relators = _json_list(payload.get("relators"), "relators")
    _check_relator_count(len(raw_relators), "the json presentation")
    gens = tuple(
        _symbol_from_text(tok) for tok in _json_list(payload.get("generators"), "generators")
    )
    relators = tuple(
        reduce(_json_letter(item) for item in _json_list(letters, "a relator"))
        for letters in raw_relators
    )
    return Presentation(gens, relators, tower)


def _json_list(value: object, what: str) -> list:
    if not isinstance(value, list):
        raise InvalidArgumentError(f"json presentation: {what} must be a list, got {value!r}")
    return value


def _json_letter(item: object) -> Letter:
    if not isinstance(item, list) or len(item) != 2 or type(item[1]) is not int:
        raise InvalidArgumentError(
            f"json relator letters are [generator, exponent] pairs, got {item!r}"
        )
    return Letter(_symbol_from_text(item[0]), item[1])


def _json_tower(info: object) -> TowerSpec:
    if not isinstance(info, dict) or type(info.get("n")) is not int:
        raise InvalidArgumentError(f"json tower must give an integer n, got {info!r}")
    try:
        family = GenFamily(info.get("family"))
    except ValueError:
        raise InvalidArgumentError(f"unknown tower family {info.get('family')!r}") from None
    return TowerSpec(family, info["n"])


def _gap_name(symbol: GeneratorSymbol) -> str:
    return "_".join([symbol.family.value, *map(str, symbol.indices)])


def _export_gap(p: Presentation) -> str:
    lines = []
    if p.generators:
        names = ", ".join(f'"{_gap_name(g)}"' for g in p.generators)
        lines.append(f"F := FreeGroup({names});;")
        lines.append("AssignGeneratorVariables(F);;")
    else:
        lines.append("F := FreeGroup(0);;")
    if p.relators:
        lines.append("rels := [")
        for relator in p.relators:
            terms = "*".join(
                _gap_name(letter.symbol) + ("^-1" if letter.exponent == -1 else "")
                for letter in relator.letters
            )
            lines.append(f"  {terms or 'One(F)'},")
        lines.append("];;")
    else:
        lines.append("rels := [];;")
    lines.append("G := F / rels;;")
    return "\n".join(lines)
