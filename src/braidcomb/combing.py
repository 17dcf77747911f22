"""The normal-form engine for iterated semidirect towers of free groups.

A word in a towered group has a unique *kernel-first* decomposition
w_n * w_{n-1} * ... * w_1 with each w_k supported on level k's alphabet.
Combing computes it by pushing lower-level letters rightward past
higher-level ones: the rewrite x * y -> (x y x^-1) * x replaces y by the
action image of x on y, a word in y's own level.  The engine below performs
this big-step, one level at a time from the top of the tower down, scanning
right to left so each lower letter acts exactly once on the accumulated
level-k prefix.

Positive actor letters read their action straight off the defining
relations (action_conjugator).  A negative actor needs the inverse of that
automorphism of the level-k free group; it is recovered once per
(actor, level) pair by Nielsen-reducing the forward images while mirroring
every move on expression words, then verified by composing back to the
identity substitution.  Everything is memoized per tower, and words are
encoded as signed integers internally so the hot loops touch no objects.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import InvalidArgumentError, WordSizeExceededError
from .presentations import Presentation, TowerSpec, action_conjugator, element_Theta
from .words import (
    GenFamily,
    GeneratorSymbol,
    Letter,
    Word,
    apply_homomorphism,
    exponent_sum,
    orbit_gen,
    reduce,
    word_power,
)

__all__ = [
    "DEFAULT_WORD_CAP",
    "NormalForm",
    "CenterReport",
    "conjugation_action",
    "comb",
    "words_equal",
    "is_identity",
    "project_qn",
    "section_sn",
    "section_sprime",
    "theta_decompose",
    "center_check",
]

DEFAULT_WORD_CAP = 10**6


@dataclass(frozen=True)
class NormalForm:
    """The tower decomposition (w_n, w_{n-1}, ..., w_1), kernel first."""

    levels: tuple[Word, ...]

    def __post_init__(self) -> None:
        n = len(self.levels)
        for offset, w in enumerate(self.levels):
            expected = n - offset
            for letter in w.letters:
                if letter.symbol.level != expected:
                    raise InvalidArgumentError(
                        f"component at level {expected} contains {letter.symbol}"
                    )

    @property
    def n(self) -> int:
        return len(self.levels)

    def level_word(self, j: int) -> Word:
        if not 1 <= j <= self.n:
            raise InvalidArgumentError(f"no level {j} in a normal form of height {self.n}")
        return self.levels[self.n - j]

    def to_word(self) -> Word:
        # Letters at distinct levels never cancel, so plain concatenation of
        # the reduced components is already reduced.
        letters: list[Letter] = []
        for w in self.levels:
            letters.extend(w.letters)
        return Word(tuple(letters))


# --- integer word helpers -----------------------------------------------------


def _push(stack: list[int], v: int) -> None:
    if stack and stack[-1] == -v:
        stack.pop()
    else:
        stack.append(v)


def _red_concat(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = list(a)
    for v in b:
        _push(out, v)
    return tuple(out)


def _inv_ints(w: Sequence[int]) -> tuple[int, ...]:
    return tuple(-v for v in reversed(w))


def _apply_local(subst: Sequence[tuple[int, ...]], word: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for v in word:
        image = subst[abs(v) - 1]
        for u in image if v > 0 else _inv_ints(image):
            _push(out, u)
    return tuple(out)


def _invert_substitution(images: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Invert the free-group substitution x_i -> images[i].

    Nielsen-style reduction: elementary transformations that never lengthen
    an entry, explored best-first by total length, with every move mirrored
    on expression words so that substitution(expr_i) = word_i throughout.
    A basis tuple reduces to bare letters, at which point the expressions
    read off the inverse substitution.
    """
    m = len(images)
    if m == 0:
        return []
    start = tuple(images)
    exprs = tuple((i + 1,) for i in range(m))
    heap = [(sum(map(len, start)), 0, start, exprs)]
    seen = {start}
    tick = 0
    while heap:
        total, _, ws, es = heapq.heappop(heap)
        if all(len(w) == 1 for w in ws):
            psi: list[tuple[int, ...] | None] = [None] * m
            for w, e in zip(ws, es):
                slot = abs(w[0]) - 1
                if psi[slot] is not None:
                    break
                psi[slot] = e if w[0] > 0 else _inv_ints(e)
            else:
                if all(p is not None for p in psi):
                    return psi  # type: ignore[return-value]
            continue
        for i in range(m):
            wi, ei = ws[i], es[i]
            for j in range(m):
                if i == j:
                    continue
                for wj, ej in ((ws[j], es[j]), (_inv_ints(ws[j]), _inv_ints(es[j]))):
                    for new_w, new_e in (
                        (_red_concat(wi, wj), _red_concat(ei, ej)),
                        (_red_concat(wj, wi), _red_concat(ej, ei)),
                    ):
                        if not new_w or len(new_w) > len(wi):
                            continue
                        cand = ws[:i] + (new_w,) + ws[i + 1 :]
                        if cand in seen:
                            continue
                        seen.add(cand)
                        tick += 1
                        if tick > 100_000:
                            raise AssertionError(
                                "substitution inversion exceeded its search budget"
                            )
                        heapq.heappush(
                            heap,
                            (
                                total - len(wi) + len(new_w),
                                tick,
                                cand,
                                es[:i] + (new_e,) + es[i + 1 :],
                            ),
                        )
    raise AssertionError("substitution is not invertible; the action table is broken")


# --- the per-tower machine -----------------------------------------------------


class _Comber:
    """Combing engine for one tower, with memoized letter actions.

    Words are lists of signed generator ids (1-based, level-major order).
    Caches are filled idempotently, so instances may be shared freely.
    """

    def __init__(self, tower: TowerSpec) -> None:
        self.tower = tower
        self.symbols = tower.all_generators()
        self.ids = {s: i + 1 for i, s in enumerate(self.symbols)}
        self.level_of = [0] + [s.level for s in self.symbols]
        base = [0] * (tower.n + 1)
        next_id = 1
        for k in range(1, tower.n + 1):
            base[k] = next_id
            next_id += tower.kernel_rank(k)
        self._base = base
        self._rev_images: dict[tuple[int, int], tuple[int, ...]] = {}
        self._psi: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}

    def encode(self, w: Word) -> list[int]:
        out = []
        for letter in w.letters:
            gid = self.ids.get(letter.symbol)
            if gid is None:
                raise InvalidArgumentError(
                    f"{letter.symbol} is not a generator of this tower"
                )
            out.append(gid if letter.exponent == 1 else -gid)
        return out

    def decode(self, ints: Sequence[int]) -> Word:
        return Word(
            tuple(
                Letter(self.symbols[abs(v) - 1], 1 if v > 0 else -1) for v in ints
            )
        )

    def _forward_image(self, actor: GeneratorSymbol, target: GeneratorSymbol) -> Word:
        u = action_conjugator(actor, target)
        return u * Word((Letter(target),)) * u.inverse()

    def _psi_images(self, actor_id: int, k: int) -> dict[int, tuple[int, ...]]:
        key = (actor_id, k)
        cached = self._psi.get(key)
        if cached is not None:
            return cached
        actor = self.symbols[actor_id - 1]
        targets = self.tower.alphabet(k)
        shift = self._base[k] - 1
        localize = lambda v: v - shift if v > 0 else v + shift  # noqa: E731
        forward = [
            tuple(localize(v) for v in self.encode(self._forward_image(actor, t)))
            for t in targets
        ]
        psi = _invert_substitution(forward)
        for idx, img in enumerate(forward):
            if _apply_local(psi, img) != (idx + 1,):
                raise AssertionError(
                    f"inverse action of {actor} on level {k} failed verification"
                )
        table = {
            shift + 1 + idx: tuple(v + shift if v > 0 else v - shift for v in expr)
            for idx, expr in enumerate(psi)
        }
        self._psi[key] = table
        return table

    def rev_image(self, x: int, y: int) -> tuple[int, ...]:
        """Image of the letter y under conjugation by the letter x, stored
        reversed (the scan maintains level words back to front)."""
        key = (x, y)
        cached = self._rev_images.get(key)
        if cached is not None:
            return cached
        target = self.symbols[abs(y) - 1]
        if x > 0:
            forward = tuple(self.encode(self._forward_image(self.symbols[x - 1], target)))
        else:
            forward = self._psi_images(-x, target.level)[abs(y)]
        rev = tuple(reversed(forward)) if y > 0 else tuple(-v for v in forward)
        self._rev_images[key] = rev
        return rev

    def _conjugate_rev(
        self, x: int, rev_k: list[int], cap: int, overhead: int
    ) -> list[int]:
        out: list[int] = []
        for y in rev_k:
            for v in self.rev_image(x, y):
                _push(out, v)
            if len(out) + overhead > cap:
                raise WordSizeExceededError(len(out) + overhead, cap)
        return out

    def comb(self, ints: list[int], cap: int) -> list[list[int]]:
        rest = ints
        parts = []
        for k in range(self.tower.n, 0, -1):
            rev_k: list[int] = []
            rev_rest: list[int] = []
            for pos in range(len(rest) - 1, -1, -1):
                x = rest[pos]
                if self.level_of[abs(x)] == k:
                    _push(rev_k, x)
                else:
                    if rev_k:
                        rev_k = self._conjugate_rev(
                            x, rev_k, cap, pos + len(rev_rest) + 1
                        )
                    _push(rev_rest, x)
            parts.append(list(reversed(rev_k)))
            rest = list(reversed(rev_rest))
        return parts


@lru_cache(maxsize=None)
def _comber_for(tower: TowerSpec) -> _Comber:
    return _Comber(tower)


def _require_tower(p: Presentation) -> TowerSpec:
    if p.tower is None:
        raise InvalidArgumentError("this presentation carries no tower to comb against")
    return p.tower


# --- public operations ----------------------------------------------------------


def conjugation_action(tower: TowerSpec, actor: Letter, target: Letter) -> Word:
    """The reduced word equal to actor * target * actor^-1, supported on the
    target's level.  Either letter may carry exponent -1."""
    c = _comber_for(tower)
    x = c.encode(Word((actor,)))[0]
    y = c.encode(Word((target,)))[0]
    if actor.symbol.level >= target.symbol.level:
        raise InvalidArgumentError(
            f"actor {actor.symbol} must sit strictly below target {target.symbol}"
        )
    return c.decode(tuple(reversed(c.rev_image(x, y))))


def comb(p: Presentation, w: Word, word_cap: int = DEFAULT_WORD_CAP) -> NormalForm:
    """Comb w into its kernel-first normal form along p's tower."""
    tower = _require_tower(p)
    c = _comber_for(tower)
    ints = c.encode(w)
    if len(ints) > word_cap:
        raise WordSizeExceededError(len(ints), word_cap)
    parts = c.comb(ints, word_cap)
    return NormalForm(tuple(c.decode(part) for part in parts))


def words_equal(
    p: Presentation, u: Word, v: Word, word_cap: int = DEFAULT_WORD_CAP
) -> bool:
    """Group-element equality via uniqueness of the combed form."""
    return comb(p, u, word_cap) == comb(p, v, word_cap)


def is_identity(p: Presentation, w: Word, word_cap: int = DEFAULT_WORD_CAP) -> bool:
    return comb(p, w, word_cap).to_word().is_identity


def project_qn(w: Word, n: int) -> Word:
    """Delete every level-n letter: the word-level projection onto the
    group one stage down the tower."""
    if n < 2:
        raise InvalidArgumentError("projection runs from level n >= 2")
    kept = []
    for letter in w.letters:
        level = letter.symbol.level
        if level > n:
            raise InvalidArgumentError(f"{letter.symbol} lies above level {n}")
        if level < n:
            kept.append(letter)
    return reduce(kept)


def _require_below(w: Word, n: int) -> None:
    for letter in w.letters:
        if letter.symbol.level >= n:
            raise InvalidArgumentError(
                f"{letter.symbol} does not lie strictly below level {n}"
            )


def section_sn(w: Word, n: int) -> Word:
    """The standard section: symbols are simply reinterpreted one stage up,
    so the word is returned unchanged (after a level check)."""
    if n < 2:
        raise InvalidArgumentError("sections run into level n >= 2")
    _require_below(w, n)
    return w


def section_sprime(w: Word, n: int) -> Word:
    """The twisted section: r(n-1,0) picks up an r(n,0) on the right, every
    other generator is kept as is."""
    if n < 2:
        raise InvalidArgumentError("sections run into level n >= 2")
    _require_below(w, n)
    doubled = orbit_gen(n - 1, 0)
    images = {sym: Word((Letter(sym),)) for sym in w.symbols()}
    if doubled in images:
        images[doubled] = Word((Letter(doubled), Letter(orbit_gen(n, 0))))
    return apply_homomorphism(w, images)


def theta_decompose(p: Presentation, w: Word) -> tuple[int, Word]:
    """Split w as Theta^exponent * remainder, where exponent is the r(1,0)
    exponent sum (the retraction onto the central factor) and the remainder
    has r(1,0) exponent sum zero."""
    tower = p.tower
    if tower is None or tower.family is not GenFamily.ORBIT:
        raise InvalidArgumentError("theta decomposition needs an orbit tower")
    exponent = exponent_sum(w, orbit_gen(1, 0))
    return exponent, word_power(element_Theta(tower.n), -exponent) * w


@dataclass(frozen=True)
class CenterReport:
    """Outcome of a centre check: does Theta commute with every generator,
    and does every other generator visibly fail to be central?"""

    n: int
    theta_commutes: bool
    commutation_failures: tuple[GeneratorSymbol, ...]
    theta_powers: tuple[GeneratorSymbol, ...]
    witnesses: tuple[tuple[GeneratorSymbol, GeneratorSymbol | None], ...]

    @property
    def all_witnessed(self) -> bool:
        return all(h is not None for _, h in self.witnesses)

    @property
    def ok(self) -> bool:
        return self.theta_commutes and self.all_witnessed


def center_check(p: Presentation, n: int, witness_budget: int = 8) -> CenterReport:
    """Verify Theta_n is central and every non-Theta generator is not.

    For each generator g that is not a power of Theta, search up to
    witness_budget candidate generators h for one with gh != hg; a None
    witness in the report means none was found within budget.
    """
    tower = p.tower
    if tower is None or tower.family is not GenFamily.ORBIT or tower.n != n:
        raise InvalidArgumentError(
            f"centre check needs the orbit presentation at n={n}"
        )
    theta = element_Theta(n)
    failures = []
    for g in p.generators:
        gw = Word((Letter(g),))
        if not words_equal(p, theta * gw, gw * theta):
            failures.append(g)
    theta_powers = []
    witnesses = []
    for g in p.generators:
        gw = Word((Letter(g),))
        _, remainder = theta_decompose(p, gw)
        if is_identity(p, remainder):
            theta_powers.append(g)
            continue
        candidates = sorted(
            (h for h in p.generators if h != g),
            key=lambda h: (abs(h.level - g.level), h.indices),
        )
        found = None
        for h in candidates[:witness_budget]:
            hw = Word((Letter(h),))
            if not words_equal(p, gw * hw, hw * gw):
                found = h
                break
        witnesses.append((g, found))
    return CenterReport(
        n=n,
        theta_commutes=not failures,
        commutation_failures=tuple(failures),
        theta_powers=tuple(theta_powers),
        witnesses=tuple(witnesses),
    )
