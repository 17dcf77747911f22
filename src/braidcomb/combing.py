"""The normal-form engine for iterated semidirect towers of free groups.

A word in a towered group has a unique *kernel-first* decomposition
w_n * w_{n-1} * ... * w_1 with each w_k supported on level k's alphabet.
Combing computes it by pushing lower-level letters rightward past
higher-level ones: the rewrite x * y -> (x y x^-1) * x replaces y by the
action image of x on y, a word in y's own level.  The engine below performs
this big-step, one level at a time from the top of the tower down, scanning
right to left so each lower letter, or the normal form of a run of them,
acts once on the level-k word built from the letters to its right.  The
tower is an iterated semidirect product, so a run of lower letters acts on
level k only through the element it is in the group below (Artin, Ann.
Math. 48, 1947).  Once the level-k word is long, the scan combs what is
left of the run of lower letters ending at the letter it has reached with
the same engine, once per run, and acts by the run's normal form instead of
its letters when the form is shorter: a relator of the lower group inside
the run then costs nothing at level k.  The form acts whole or not at all:
if its comb or its action passes the word cap, or it is not shorter, the
run's own letters act, so a refusal always names a letter the scan read.

Each signed actor letter has one action table, {target: image} for both
signs of every target, kept per tower and filled a whole level at a time
on the first miss there.  A positive actor reads its images straight off
the defining relations (action_conjugator).  Each sends every target y to
a conjugate u y u^-1, so the action is a basis-conjugating automorphism of
the level-k free group (McCool, Can. J. Math. 38, 1986).  A negative
actor's images are the inverse, found by peak reduction (Collins, Comment.
Math. Helv. 64, 1989): left-compose partial conjugations y_t -> c y_t c^-1,
each the first that strictly shortens the total length of the images,
until the images are the bare letters.  A move's length change is counted
from the letters next to each y_t, not built, so each accepted move is
applied once.  The composite of the moves is the inverse; it enters the
table only after it composes back to the identity substitution.
Conjugating a level word reads it two letters at a time.  Each actor has a
pair table beside its table, filled from it on a miss up to a fixed number
of pairs per engine: the freely reduced concatenation of the images of two
adjacent letters, so a pair costs one lookup and one join to the output.
An image, of a pair or of one letter, cancels against the output only where
the two meet, since both are freely reduced.  The word cap is exact per
target letter: the scan stops at the first letter whose image takes the
word past it.  No image is longer than the engine's longest, so a pair adds
at most twice that for its two letters, and the cap is checked once per
block of letters that cannot reach it, and letter by letter only near it,
where each letter acts alone, as does the odd last letter of a block.  A
run's sub-comb never raises past its form, so it needs no offset: the outer
scan hands it the room the cap leaves, the cap less the letters before the
run and the lower letters held after it.  The run combs in that room less
the level word, and its form acts on the level word in that room less the
form.

Words are encoded as signed integers from the input to the output, so the
hot loops touch no objects.  The engine's output is checked on integers
for the invariants Word and NormalForm enforce, and each check is one C
loop over a part: every letter on its component's level is one set
containment, against the frozenset of that level's signed ids, and no
adjacent x x^-1 is one pass over the sums of neighbouring ids.  A checked
part is then decoded by one itemgetter call over the table of shared
Letters, one per signed generator, without validating it again, so
comparing two combed forms is mostly identity checks; is_identity reads
the checked integers and decodes nothing.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import islice
from operator import add, itemgetter
from typing import Sequence

from .errors import InvalidArgumentError, WordSizeExceededError
from .presentations import Presentation, TowerSpec, action_conjugator, element_Theta
from .words import (
    DEFAULT_WORD_CAP,
    GenFamily,
    GeneratorSymbol,
    Letter,
    Word,
    _frozen,
    _trusted,
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
    "section_sprime",
    "theta_decompose",
    "center_check",
]

@_frozen
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


def _substitute(
    word: Sequence[int], images: dict[int, tuple[int, ...]]
) -> tuple[int, ...]:
    """The freely reduced image of word under y -> images[y], fixing every
    letter without an entry."""
    out: list[int] = []
    for v in word:
        image = images.get(abs(v), (abs(v),))
        for u in image if v > 0 else [-u for u in reversed(image)]:
            if out and out[-1] == -u:
                out.pop()
            else:
                out.append(u)
    return tuple(out)


def _conjugated(
    words: dict[int, tuple[int, ...]], t: int, c: int
) -> dict[int, tuple[int, ...]]:
    """The words that the partial conjugation y_t -> c y_t c^-1 changes,
    with their new values."""
    move = {t: (c, t, -c)}
    return {y: _substitute(w, move) for y, w in words.items() if t in w or -t in w}


def _shortening_move(images: dict[int, tuple[int, ...]]) -> tuple[int, int] | None:
    """The first partial conjugation y_t -> c y_t c^-1 that strictly shortens
    the total length of the freely reduced images, as (t, c), or None when
    there is none.

    The move wraps each of the occ occurrences of y_t^+-1 in c ... c^-1 and
    cancels one pair for each of its near[c] neighbours that meet c and for
    each adjacent y_t^e y_t^e, so it changes the total length by exactly
    2 (occ - near[c] - adjacent).  Only the most frequent neighbour c != +-t
    can therefore be the move for y_t.
    """
    for t in images:
        near: Counter[int] = Counter()
        occ = 0
        for w in images.values():
            for i, v in enumerate(w):
                if abs(v) == t:
                    occ += 1
                    if i:
                        near[-w[i - 1]] += 1
                    if i + 1 < len(w):
                        near[w[i + 1]] += 1
        # Each adjacent y_t^e y_t^e is counted once from either side.
        adjacent = (near[t] + near[-t]) // 2
        c = max((c for c in near if abs(c) != t), key=near.__getitem__, default=None)
        if c is not None and near[c] > occ - adjacent:
            return t, c
    return None


def _peak_reduce(forward: dict[int, tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    """Left-compose shortening partial conjugations onto the substitution
    y -> forward[y] until none is left, and return the composite of the
    moves taken.  On a basis-conjugating substitution the images end as the
    bare letters, so the composite is the inverse; the caller verifies it."""
    images = dict(forward)
    inverse = {y: (y,) for y in forward}
    while (move := _shortening_move(images)) is not None:
        t, c = move
        images.update(_conjugated(images, t, c))
        inverse.update(_conjugated(inverse, t, c))
    return inverse


# --- the per-tower machine -----------------------------------------------------

# A scan that meets a lower letter while its level word holds at least
# _RUN_COMB_LEVEL_LETTERS letters combs the run of lower letters ending there,
# if the run has at least _RUN_COMB_MIN_LETTERS, and acts by the run's normal
# form when that is shorter.  On warm passes of the seed-1 perfbench sweep
# (2-core Xeon VM, best of 5 passes in each of 3 rounds), thresholds of 16
# and 64 level letters ran alike (1.22-1.45 s), 256 ran 5-14 % slower, and
# 1 ran 7-19 % faster but reaches a sub-comb in 25 of the 116 perfbench CLI
# catalog calls and 1 of the 48 homology ops, against 1 and 0 at 64.  A
# prototype that combed every run of 3 or more letters before each level's
# scan, whatever the level word's length, cost the homology workload 14 %
# and a cold CLI call 9 %.
_RUN_COMB_LEVEL_LETTERS = 64
_RUN_COMB_MIN_LETTERS = 3

# How many pair images one engine stores (_Comber._pair_image).  A seed-1
# perfbench sweep pass stores 7,753 over its 4 engines, at most 3,480 in one
# (G_4, which has 4,056).  At the bound the pairs take, by tracemalloc,
# 2.2 MB in P_12, 3.3 MB in G_6, 7.2 MB in G_20 and 19.9 MB on level 50 of
# G_50, whose images are the longest.  A pair missed past the bound is
# computed and used but not stored.
_PAIR_ENTRIES = 16_384


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
        # Level k owns the ids bounds[k][0] .. bounds[k][1]; first > last
        # when its alphabet is empty.
        self.bounds = [(1, 0)]
        for k in range(1, tower.n + 1):
            first = self.bounds[-1][1] + 1
            self.bounds.append((first, first + tower.kernel_rank(k) - 1))
        # level_ids[k] holds level k's signed ids, both signs.
        self.level_ids = [
            frozenset([*range(first, last + 1), *range(-last, 1 - first)])
            for first, last in self.bounds
        ]
        # letters[v] is the shared Letter of the signed id v: positive ids
        # index from the front, negative ones from the back.
        self.letters = (
            None,
            *(Letter(s) for s in self.symbols),
            *(Letter(s, -1) for s in reversed(self.symbols)),
        )
        # actor id -> {target id: reversed image}, filled on demand.
        self._actions: dict[int, dict[int, tuple[int, ...]]] = {}
        # The length of the longest image in any table; images are never
        # empty, so 1 before the first fill.
        self.longest = 1
        # actor id -> {letter id: {next letter id: reversed image of the
        # pair}}, filled on demand; a row's entry None is its letter's own
        # image.  _pair_count counts the pairs, not the rows.
        self._pairs: dict[int, dict[int, dict[int | None, tuple[int, ...]]]] = {}
        self._pair_count = 0

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

    def check_part(self, k: int, part: Sequence[int]) -> None:
        """Raise InvalidArgumentError unless part is a freely reduced word on
        level k's alphabet: the invariants of Word and NormalForm, on ids."""
        ids = self.level_ids[k]
        if not ids.issuperset(part):
            bad = next(v for v in part if v not in ids)
            raise InvalidArgumentError(f"component at level {k} contains {self.name(bad)}")
        # Ids are non-zero, so an adjacent pair sums to 0 exactly when it is v, -v.
        if 0 in map(add, part, islice(part, 1, None)):
            at = next(i for i in range(len(part) - 1) if part[i] == -part[i + 1])
            raise InvalidArgumentError(
                f"word is not freely reduced at ...{self.letters[part[at]]} "
                f"{self.letters[part[at + 1]]}..."
            )

    def name(self, v: int) -> str:
        """The generator the signed id v stands for, or the id itself when
        it stands for none of the tower's."""
        if 0 < abs(v) <= len(self.symbols):
            return str(self.symbols[abs(v) - 1])
        return f"the unknown generator id {v}"

    def word(self, part: Sequence[int]) -> Word:
        """The Word of a part that passed check_part, built from the shared
        letters without validating it again."""
        if len(part) < 2:
            # itemgetter of one index returns the bare item, not a tuple.
            return _trusted(Word, letters=tuple([self.letters[v] for v in part]))
        return _trusted(Word, letters=itemgetter(*part)(self.letters))

    def normal_form(self, parts: Sequence[Sequence[int]]) -> NormalForm:
        """The NormalForm of parts that each passed check_part, without
        validating them again."""
        return _trusted(NormalForm, levels=tuple(list(map(self.word, parts))))

    def _forward_image(self, x: int, y: int) -> tuple[int, ...]:
        """The image u y u^-1 of the positive letter y under conjugation by
        the positive letter x, with u read off the defining relations."""
        target = self.symbols[y - 1]
        u = action_conjugator(self.symbols[x - 1], target)
        return tuple(self.encode(u * Word((Letter(target),)) * u.inverse()))

    def table(self, x: int, k: int) -> dict[int, tuple[int, ...]]:
        """The signed actor x's table {target id: reversed image}, with both
        signs of every level-k target filled: the scan maintains level words
        back to front.  A level is filled whole on its first read.  A
        negative actor's images are the peak-reduction inverse of the
        positive actor's, entered only once they compose back to the
        identity."""
        table = self._actions.setdefault(x, {})
        first, last = self.bounds[k]
        if first in table:
            return table
        images = {y: self._forward_image(abs(x), y) for y in range(first, last + 1)}
        if x < 0:
            forward, images = images, _peak_reduce(images)
            for y, image in forward.items():
                if _substitute(image, images) != (y,):
                    raise AssertionError(
                        f"inverse action of {self.symbols[-x - 1]} on level {k} "
                        "failed verification"
                    )
        self.longest = max([self.longest, *map(len, images.values())])
        for y, image in images.items():
            table[y] = image[::-1]
            table[-y] = tuple([-v for v in image])
        return table

    def _conjugate_rev(
        self, x: int, rev_k: list[int], k: int, cap: int, held: int
    ) -> list[int]:
        """The reversed level-k word rev_k conjugated by the letter x, also
        reversed.  Raises WordSizeExceededError at the first letter of rev_k
        after which the word, plus held letters, is longer than cap."""
        self.table(x, k)
        pairs = self._pairs.setdefault(x, {})
        longest = self.longest
        # out[0] is a sentinel: ids are non-zero, so it never cancels and
        # out is never empty.  base counts the held letters less the sentinel.
        out = [0]
        extend, pop = out.extend, out.pop
        base = held - 1
        start, n = 0, len(rev_k)
        while start < n:
            # One letter adds at most longest letters to out, so the next
            # room letters cannot reach the cap and run unchecked, two at a
            # time.  With no room left, letters run one at a time and each is
            # checked, so the cap fires at exactly the letter that passes it.
            room = max((cap - base - len(out)) // longest, 1)
            block = rev_k[start : start + room]
            start += room
            if len(block) & 1:
                # The one letter of a checked step, or the odd last letter
                # of a block, acts alone: its row's entry None is its image.
                block.append(None)
            letters = iter(block)
            for a, b in zip(letters, letters):
                try:
                    image = pairs[a][b]
                except KeyError:
                    image = self._pair_image(x, k, a, b)
                # out and every image are freely reduced and images are
                # never empty, so letters can cancel only where the image
                # joins out.
                if out[-1] == -image[0]:
                    pop()
                    i, m = 1, len(image)
                    while i < m and out[-1] == -image[i]:
                        pop()
                        i += 1
                    extend(image[i:])
                else:
                    extend(image)
            if len(out) + base > cap:
                raise WordSizeExceededError(len(out) + base, cap)
        del out[0]
        return out

    def _pair_image(self, x: int, k: int, a: int, b: int | None) -> tuple[int, ...]:
        """The reversed image under the actor x of the reversed level-k
        letters a b, or of a alone when b is None: the freely reduced
        concatenation of their reversed images.  It enters x's pair table
        while the engine holds fewer than _PAIR_ENTRIES pairs."""
        table = self._actions[x]
        for y in (a, b):
            # The filled table holds every level-k letter, so y is on another
            # level: only a corrupted table can put it in a level word.
            if y is not None and y not in table:
                raise InvalidArgumentError(f"component at level {k} contains {self.name(y)}")
        pairs = self._pairs[x]
        row = pairs.get(a)
        if row is None:
            row = pairs[a] = {None: table[a]}
        if b is None:
            return row[None]
        first, second = table[a], table[b]
        i, m = 0, min(len(first), len(second))
        while i < m and first[-1 - i] == -second[i]:
            i += 1
        image = first[: len(first) - i] + second[i:]
        if not image:
            # An automorphism sends no reduced pair of letters to the identity.
            raise InvalidArgumentError(
                f"the action of {self.letters[x]} on level {k} sends "
                f"{self.letters[b]} {self.letters[a]} to the identity"
            )
        if self._pair_count < _PAIR_ENTRIES:
            row[b] = image
            self._pair_count += 1
        return image

    def _form_acted(
        self, run: list[int], rev_k: list[int], k: int, room: int
    ) -> tuple[list[int], list[int]] | None:
        """rev_k acted on by the normal form of run, a run of letters below
        level k, and the form's letters, kernel first, when the form is
        shorter than run and room letters hold both its comb, beside rev_k,
        and its whole action, beside the form; None otherwise, and the run's
        own letters act instead."""
        try:
            form = [v for part in self.comb(run, room - len(rev_k), k - 1) for v in part]
            if len(form) >= len(run):
                return None
            for v in reversed(form):
                rev_k = self._conjugate_rev(v, rev_k, k, room, len(form))
        except WordSizeExceededError:
            return None
        return rev_k, form

    def comb(self, ints: list[int], cap: int, top: int | None = None) -> list[list[int]]:
        """The parts of ints from level top (the tower's height unless
        given) down to level 1, kernel first."""
        level_of = self.level_of
        rest = ints
        parts = []
        for k in range(self.tower.n if top is None else top, 0, -1):
            rev_k: list[int] = []
            rev_rest: list[int] = []
            # rest[start : pos + 1] is the run of lower letters being
            # scanned, once it has been looked up; tried says whether it has
            # been combed.
            start, tried = None, False
            pos = len(rest) - 1
            try:
                while pos >= 0:
                    x = rest[pos]
                    if level_of[abs(x)] == k:
                        _push(rev_k, x)
                        start, tried = None, False
                        pos -= 1
                        continue
                    if not tried and len(rev_k) >= _RUN_COMB_LEVEL_LETTERS:
                        if start is None:
                            start = pos
                            while start and level_of[abs(rest[start - 1])] < k:
                                start -= 1
                        # The run acts on the level word only through the
                        # element it is, so a shorter word for that element,
                        # its normal form, may act in its place.  Acting costs
                        # at least the level word's length per letter, so
                        # what is left of the run is combed once it is no
                        # longer than the level word, and only that once: a
                        # form that is not shorter, or does not fit under the
                        # cap, leaves the rest of the run to act letter by
                        # letter, as it would without run combing.
                        if _RUN_COMB_MIN_LETTERS <= pos + 1 - start <= len(rev_k):
                            tried = True
                            # What the cap leaves beside the letters before
                            # the run and the lower letters held after it.
                            room = cap - start - len(rev_rest)
                            acted = self._form_acted(rest[start : pos + 1], rev_k, k, room)
                            if acted is not None:
                                rev_k, form = acted
                                for v in reversed(form):
                                    _push(rev_rest, v)
                                pos = start - 1
                                continue
                    if rev_k:
                        rev_k = self._conjugate_rev(x, rev_k, k, cap, pos + len(rev_rest) + 1)
                    _push(rev_rest, x)
                    pos -= 1
            except WordSizeExceededError as exc:
                raise WordSizeExceededError(
                    exc.length, exc.cap, level=k, position=pos
                ) from None
            rev_k.reverse()
            parts.append(rev_k)
            rev_rest.reverse()
            rest = rev_rest
        return parts


# How many towers' engines _comber_for keeps, the most recently used: the
# perfbench sweep combs in 4 towers, its homology workload in 2 and a CLI
# call in 1.  An evicted engine is rebuilt on its next use, and its tables
# are filled again.
_ENGINES = 8


@lru_cache(maxsize=_ENGINES)
def _comber_for(tower: TowerSpec) -> _Comber:
    return _Comber(tower)


def _require_tower(p: Presentation | TowerSpec) -> TowerSpec:
    """The tower p is, or the tower the presentation p carries."""
    if isinstance(p, TowerSpec):
        return p
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
    image = c.table(x, target.symbol.level)[y][::-1]
    c.check_part(target.symbol.level, image)
    return c.word(image)


def _combed(
    p: Presentation | TowerSpec, w: Word, word_cap: int
) -> tuple[_Comber, list[list[int]]]:
    """The engine for p's tower and w's checked parts, kernel first."""
    c = _comber_for(_require_tower(p))
    ints = c.encode(w)
    if len(ints) > word_cap:
        raise WordSizeExceededError(len(ints), word_cap, "input word")
    parts = c.comb(ints, word_cap)
    for k, part in zip(range(c.tower.n, 0, -1), parts):
        c.check_part(k, part)
    return c, parts


def comb(
    p: Presentation | TowerSpec, w: Word, word_cap: int = DEFAULT_WORD_CAP
) -> NormalForm:
    """Comb w into its kernel-first normal form along the tower p, or the
    tower the presentation p carries; no relator is read."""
    c, parts = _combed(p, w, word_cap)
    return c.normal_form(parts)


def words_equal(
    p: Presentation | TowerSpec, u: Word, v: Word, word_cap: int = DEFAULT_WORD_CAP
) -> bool:
    """Group-element equality via uniqueness of the combed form."""
    # Through comb, so that whatever observes comb sees both sides; the
    # shared letters make comparing the two forms mostly identity checks.
    return comb(p, u, word_cap) == comb(p, v, word_cap)


def is_identity(
    p: Presentation | TowerSpec, w: Word, word_cap: int = DEFAULT_WORD_CAP
) -> bool:
    return not any(_combed(p, w, word_cap)[1])


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


def section_sprime(w: Word, n: int) -> Word:
    """The twisted section: r(n-1,0) picks up an r(n,0) on the right, every
    other generator is kept as is."""
    if n < 2:
        raise InvalidArgumentError(f"sections run into level n >= 2, got n = {n}")
    _require_below(w, n)
    doubled = orbit_gen(n - 1, 0)
    images = {sym: Word((Letter(sym),)) for sym in w.symbols()}
    if doubled in images:
        images[doubled] = Word((Letter(doubled), Letter(orbit_gen(n, 0))))
    return apply_homomorphism(w, images)


def theta_decompose(
    p: Presentation | TowerSpec, w: Word, word_cap: int = DEFAULT_WORD_CAP
) -> tuple[int, Word]:
    """Split w as Theta^exponent * remainder, where exponent is the r(1,0)
    exponent sum (the retraction onto the central factor) and the remainder
    has r(1,0) exponent sum zero.

    The remainder is built as Theta^-exponent * w, |exponent| * n + len(w)
    letters before reduction.  Past word_cap, WordSizeExceededError is
    raised before any of it is built; an input w past word_cap is refused
    as an input word, as comb refuses it."""
    tower = _require_tower(p)
    if tower.family is not GenFamily.ORBIT:
        raise InvalidArgumentError("theta decomposition needs an orbit tower")
    if len(w) > word_cap:
        raise WordSizeExceededError(len(w), word_cap, "input word")
    exponent = exponent_sum(w, orbit_gen(1, 0))
    size = abs(exponent) * tower.n + len(w)
    if size > word_cap:
        raise WordSizeExceededError(size, word_cap)
    return exponent, word_power(element_Theta(tower.n), -exponent) * w


@_frozen
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


def center_check(
    p: Presentation | TowerSpec, word_cap: int = DEFAULT_WORD_CAP
) -> CenterReport:
    """Verify Theta_n is central and every non-Theta generator is not,
    where n is the height of the orbit tower p, or of the tower the
    presentation p carries.

    For each generator g that is not a power of Theta, try the other
    generators h, nearest level first, until one has gh != hg; a None
    witness in the report means g commutes with every generator.  Every
    comb runs under word_cap, and a word past it raises
    WordSizeExceededError.
    """
    tower = _require_tower(p)
    if tower.family is not GenFamily.ORBIT:
        raise InvalidArgumentError("centre check needs an orbit tower")
    n = tower.n
    generators = tower.all_generators()
    theta = element_Theta(n)
    failures = []
    for g in generators:
        gw = Word((Letter(g),))
        if not words_equal(p, theta * gw, gw * theta, word_cap):
            failures.append(g)
    theta_powers = []
    witnesses = []
    for g in generators:
        gw = Word((Letter(g),))
        _, remainder = theta_decompose(p, gw, word_cap)
        if is_identity(p, remainder, word_cap):
            theta_powers.append(g)
            continue
        candidates = sorted(
            (h for h in generators if h != g),
            key=lambda h: (abs(h.level - g.level), h.indices),
        )
        found = None
        for h in candidates:
            hw = Word((Letter(h),))
            if not words_equal(p, gw * hw, hw * gw, word_cap):
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
