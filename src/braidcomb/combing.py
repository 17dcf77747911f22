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

The towers' relators have the shape x Y x^-1 Z^-1, x below the level of Y
and Z, so a run of lower letters often begins with S^-1 where S ends the
run before the level-k block Y to its left.  S Y S^-1 acts on the level word
as Y conjugated by S alone, so the scan skips S^-1, conjugates the block by
S's letters, right to left, and pushes the result onto the level word: |S|
conjugations of the block instead of 2|S| of the whole level word, the
longest S taken.  S^-1 and S cancel in the lower word too, so neither is
held.  Each of S's letters acts on the block beside the letters before it,
the level word and the lower letters held, and a refusal there names it.
The rest of the run, after S^-1, acts as any run does, and the scan goes on
at the letters before S as at any run, so one block is mirrored at a time.

Each signed actor letter has one action table per level, the image of
both signs of every target there, kept per tower and filled whole on its
first miss.  A positive actor reads its images straight off the defining
relations (action_conjugator).  Each sends every target y to
a conjugate u y u^-1, so the action is a basis-conjugating automorphism of
the level-k free group (McCool, Can. J. Math. 38, 1986).  A negative
actor's images are the inverse, found by peak reduction (Collins, Comment.
Math. Helv. 64, 1989): left-compose partial conjugations y_t -> c y_t c^-1,
each the first that strictly shortens the total length of the images,
until the images are the bare letters.  A move's length change is counted
from the letters next to each y_t, not built, so each accepted move is
applied once.  The composite of the moves is the inverse; it enters the
table only after it composes back to the identity substitution.
Conjugating a level word reads it two letters at a time.  Each actor has
pair rows beside each of its tables, filled from it on a miss: a letter's
row holds, for each next letter of its level, the freely reduced
concatenation of the two images, so a pair costs two list lookups and one
join to the output.  The engine's rows and pair images share one budget,
and a fill that would pass it first empties them all.
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

Words are encoded as letter codes from the input to the output, so the
hot loops touch no objects.  Input words, runs and actors are in tower
codes: with N the tower's generator count, the generator of id i is the
code N + i and its inverse N - i.  A level word only ever holds its own
level's letters, so level words, tables, pair rows and answer parts are in
level codes: on level k, of rank m, the level's j-th generator is m + j and
its inverse m - j.  Every code is a small non-negative int, the inverse of
c is 2m - c, and m itself, no letter, marks the bottom of the output and a
letter that acts alone.  A letter is converted as it is pushed onto its
level word, and a run's normal form back to tower codes before it acts.
A cancellation test then compares cached small ints and allocates nothing,
a pair row is a list of 2m + 1 cells, and a missing row or image is a None,
or an index past a row, that raises when read.  Peak reduction works on
signed ids, and a fill converts its images to level codes once.

No level code passes 198 (level 50 of G_50 has rank 99, the largest any
tower up to MAX_TOWER_GENERATORS has), so each part of an answer leaves the
engine through one checked decode of its bytes, for the invariants Word and
NormalForm enforce.  bytes() refuses a code outside 0 .. 255; one
itemgetter call maps the part through its level's tuple of 2m + 1 shared
Letters, which refuses a code past 2m; m is searched for; and the bytes
after the first, xored as one int with the inverses of the bytes before
the last, have a zero byte exactly where two neighbours cancel.  A part
that fails goes to check_part, which names its first bad letter.  On the
1.88 M answer letters of a warm seed-1 perfbench sweep pass (2-core Xeon
VM) this costs about 27 ns a letter, where a dict decode and a loop over
the sums of neighbouring tower codes cost 44.  The letters are shared, so
comparing two combed forms is mostly identity checks.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import islice
from operator import itemgetter
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


def _push(stack: list[int], c: int, twice: int) -> None:
    """Push the letter code c onto stack, or cancel it against its inverse,
    the code twice - c, on top."""
    if stack and stack[-1] == twice - c:
        stack.pop()
    else:
        stack.append(c)


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

# The pair store's budget per engine, in 8-byte words: a list, of an actor's
# rows on a level or of a row's pairs, costs one word per cell, 2m + 1 on a
# level of rank m, and a stored pair image len(image) + 5, the 5 its tuple's
# header.  A fill that would pass the budget first empties every level's
# store (_Comber._spend).  The perfbench sweep never empties one: the most
# one of its engines is charged is 60,180 words (G_4) at seed 1 and 59,307
# at seed 2027.  Filled to the step before its first emptying, by seeded
# pairs of one level's letters that 40 actors conjugate, the store takes,
# by tracemalloc, 4.36 MB on level 20 of G_20 and 4.14 MB on level 50 of
# G_50, the widest level any tower has.
_PAIR_WORDS = 1 << 19


class _Comber:
    """Combing engine for one tower, with memoized letter actions.

    Input words and actors are lists of tower codes: the generator with the
    1-based, level-major id i is the code N + i and its inverse N - i, where
    N is the tower's generator count, so the code c has the inverse 2N - c.
    Level words, action tables, pair rows and parts are lists of level
    codes: on level k, of rank m, the generator with the level's j-th id is
    the code m + j and its inverse m - j, so c has the inverse 2m - c.
    Neither N nor m is a letter.  Caches are filled idempotently, so
    instances may be shared freely.
    """

    def __init__(self, tower: TowerSpec) -> None:
        self.tower = tower
        self.symbols = tower.all_generators()
        n = len(self.symbols)
        self.ids = {s: i + 1 for i, s in enumerate(self.symbols)}
        # The tower code of a letter and of its inverse sum to twice.
        self.twice = 2 * n
        # The codes 0 .. N - 1 are the inverses of the ids N .. 1.
        levels = [s.level for s in self.symbols]
        self.level_of = levels[::-1] + [0] + levels
        # Level k owns the ids bounds[k][0] .. bounds[k][1]; first > last
        # when its alphabet is empty.  Its rank is ranks[k].
        self.bounds = [(1, 0)]
        for k in range(1, tower.n + 1):
            first = self.bounds[-1][1] + 1
            self.bounds.append((first, first + tower.kernel_rank(k) - 1))
        self.ranks = [last - first + 1 for first, last in self.bounds]
        # Level codes run to 2m, 198 at the top of G_50, so the checked
        # decode reads each part as bytes.
        if 2 * max(self.ranks) > 255:
            raise AssertionError(f"level codes of {tower} do not fit in a byte")
        # local maps each tower code to the level code of that letter on its
        # own level, and tower_codes[k] maps level k's codes back.
        # level_letters[k] holds the shared Letter of each of level k's
        # codes, None at m, and inverses[k] translates each byte c <= 2m
        # to 2m - c.
        self.local = [0] * (2 * n + 1)
        self.tower_codes: list[tuple[int, ...]] = []
        self.level_letters: list[tuple[Letter | None, ...]] = []
        self.inverses: list[bytes] = []
        for (first, last), m in zip(self.bounds, self.ranks):
            codes = [n] * (2 * m + 1)
            letters: list[Letter | None] = [None] * (2 * m + 1)
            for j, i in enumerate(range(first, last + 1), 1):
                for sign in (1, -1):
                    codes[m + sign * j] = n + sign * i
                    self.local[n + sign * i] = m + sign * j
                    letters[m + sign * j] = Letter(self.symbols[i - 1], sign)
            self.tower_codes.append(tuple(codes))
            self.level_letters.append(tuple(letters))
            self.inverses.append(bytes(range(2 * m, -1, -1)).ljust(256, b"\0"))
        # Per level, actor code -> its table, filled on demand.
        self._actions: list[dict[int, list[tuple[int, ...] | None]]] = [{} for _ in self.ranks]
        # The length of the longest image in any table; images are never
        # empty, so 1 before the first fill.
        self.longest = 1
        # Per level, actor code -> its list of rows by letter code.  A row
        # lists, by next letter code, the reversed images of the pairs, and
        # its cell m holds its own letter's.  A row or image not stored is
        # None.  _room is what is left of the store's budget, in words.
        self._pairs: list[dict[int, list[list[tuple[int, ...] | None] | None]]] = [
            {} for _ in self.ranks
        ]
        self._room = _PAIR_WORDS

    def encode(self, w: Word) -> list[int]:
        n = len(self.symbols)
        out = []
        for letter in w.letters:
            gid = self.ids.get(letter.symbol)
            if gid is None:
                raise InvalidArgumentError(
                    f"{letter.symbol} is not a generator of this tower"
                )
            out.append(n + gid if letter.exponent == 1 else n - gid)
        return out

    def letter(self, c: int) -> Letter:
        """The shared Letter of the tower code c."""
        return self.level_letters[self.level_of[c]][self.local[c]]

    def check_part(self, k: int, part: Sequence[int]) -> None:
        """Raise InvalidArgumentError unless part is a freely reduced word of
        level k's codes: the invariants of Word and NormalForm.  The first
        code that is no level-k letter is named; the level is checked
        before reducedness."""
        m = self.ranks[k]
        for c in part:
            if not 0 <= c <= 2 * m or c == m:
                raise InvalidArgumentError(f"component at level {k} contains {self.name(k, c)}")
        letters = self.level_letters[k]
        for a, b in zip(part, islice(part, 1, None)):
            if a + b == 2 * m:
                raise InvalidArgumentError(
                    f"word is not freely reduced at ...{letters[a]} {letters[b]}..."
                )

    def name(self, k: int, c: int) -> str:
        """The name of c, a code that is no level-k letter, in a refusal."""
        return f"the unknown level-{k} code {c}"

    def word(self, k: int, part: Sequence[int]) -> Word:
        """The Word of the level-k part, decoded through level k's letters
        only once part passes the invariants of Word and NormalForm;
        otherwise check_part's InvalidArgumentError.

        bytes refuses a code past 0 .. 255, reading level k's tuple of
        letters refuses one past 2m, and m is looked for.  An adjacent pair
        c, 2m - c cancels, so the bytes after the first, xored with the
        inverses of the bytes before the last, have a zero byte exactly
        where part is not reduced.  Any failure hands part to check_part,
        which words the refusal."""
        letters = self.level_letters[k]
        try:
            b = bytes(part)
            if len(b) < 2:
                # itemgetter of one index returns the bare item, not a
                # tuple, and one letter has no neighbour to cancel.
                decoded = tuple([letters[c] for c in b])
                reduced = True
            else:
                decoded = itemgetter(*b)(letters)
                joins = int.from_bytes(b[1:], "big") ^ int.from_bytes(
                    b.translate(self.inverses[k])[:-1], "big"
                )
                reduced = 0 not in joins.to_bytes(len(b) - 1, "big")
        except (ValueError, IndexError):
            pass
        else:
            if reduced and self.ranks[k] not in b:
                return _trusted(Word, letters=decoded)
        self.check_part(k, part)
        raise AssertionError(f"check_part accepted the level-{k} part {part} the decode refused")

    def _forward_image(self, x: int, y: int) -> tuple[int, ...]:
        """The image u y u^-1, in signed ids, of the positive id y under
        conjugation by the positive id x, with u read off the defining
        relations."""
        target = self.symbols[y - 1]
        u = action_conjugator(self.symbols[x - 1], target)
        image = u * Word((Letter(target),)) * u.inverse()
        return tuple([self.ids[letter.symbol] * letter.exponent for letter in image.letters])

    def table(self, x: int, k: int) -> list[tuple[int, ...] | None]:
        """The actor x's level-k table: by level code, the reversed image of
        that letter, and None at m.  The scan maintains level words back to
        front.  The whole table is filled on its first read.  The images
        are found on signed ids; a negative actor's are the peak-reduction
        inverse of the positive actor's, entered only once they compose
        back to the identity."""
        table = self._actions[k].get(x)
        if table is not None:
            return table
        n = len(self.symbols)
        first, last = self.bounds[k]
        v = x - n
        images = {y: self._forward_image(abs(v), y) for y in range(first, last + 1)}
        if v < 0:
            forward, images = images, _peak_reduce(images)
            for y, image in forward.items():
                if _substitute(image, images) != (y,):
                    raise AssertionError(
                        f"inverse action of {self.symbols[-v - 1]} on level {k} "
                        "failed verification"
                    )
        self.longest = max([self.longest, *map(len, images.values())])
        local = self.local
        table = [None] * (2 * self.ranks[k] + 1)
        for y, image in images.items():
            table[local[n + y]] = tuple([local[n + u] for u in reversed(image)])
            table[local[n - y]] = tuple([local[n - u] for u in image])
        self._actions[k][x] = table
        return table

    def _spend(self, words: int) -> None:
        """Charge words to the pair store, first emptying every level's
        store when they would take it past _PAIR_WORDS."""
        if words > self._room:
            for level in self._pairs:
                level.clear()
            self._room = _PAIR_WORDS
        self._room -= words

    def _conjugate_rev(
        self, x: int, rev_k: list[int], k: int, cap: int, held: int
    ) -> list[int]:
        """The reversed level-k word rev_k conjugated by the letter x, also
        reversed.  Raises WordSizeExceededError at the first letter of rev_k
        after which the word, plus held letters, is longer than cap."""
        pairs = self._pairs[k].get(x)
        if pairs is None:
            size = len(self.table(x, k))
            self._spend(size)
            pairs = self._pairs[k][x] = [None] * size
        longest = self.longest
        no_letter = self.ranks[k]
        twice = 2 * no_letter
        # out[0] is a sentinel: the code no_letter is no letter, so it never
        # cancels and out is never empty.  base counts the held letters less
        # the sentinel.
        out = [no_letter]
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
                # of a block, acts alone: its row's cell no_letter holds its
                # image.
                block.append(no_letter)
            letters = iter(block)
            for a, b in zip(letters, letters):
                # A missing row or image is None, and a code past the rows
                # is out of range, so a miss is a TypeError or IndexError.
                try:
                    image = pairs[a][b]
                    head = image[0]
                except (TypeError, IndexError):
                    image = self._pair_image(pairs, x, k, a, b)
                    head = image[0]
                # out and every image are freely reduced and images are
                # never empty, so letters can cancel only where the image
                # joins out.
                if out[-1] == twice - head:
                    pop()
                    i, m = 1, len(image)
                    while i < m and out[-1] == twice - image[i]:
                        pop()
                        i += 1
                    extend(image[i:])
                else:
                    extend(image)
            if len(out) + base > cap:
                raise WordSizeExceededError(len(out) + base, cap)
        del out[0]
        return out

    def _pair_image(self, pairs: list, x: int, k: int, a: int, b: int) -> tuple[int, ...]:
        """The reversed image under the actor x of the reversed level-k
        letters a b, or of a alone when b is the code m: the freely reduced
        concatenation of their reversed images.  It enters the row for a in
        pairs, x's list of rows, which gains the row if it has none; both
        are charged to the store's budget.

        A charge that empties the store leaves pairs, the list the caller
        reads, outside it, still filled and charged, until the caller
        returns: the only way the store outgrows its budget."""
        table = self._actions[k][x]
        no_letter = self.ranks[k]
        # The filled table holds an image of every level-k letter, and the
        # code m in no image, so a code without an image, or an image
        # holding m, is a corrupted table.  A code past the table raises
        # IndexError, and searching the None of a code without an image
        # raises TypeError.
        try:
            first = table[a] if a >= 0 else None
            second = first if b == no_letter else table[b] if b >= 0 else None
            corrupted = no_letter in first or no_letter in second
        except (TypeError, IndexError):
            corrupted = True
        if corrupted:
            for y in (a, b):
                image = table[y] if 0 <= y < len(table) else None
                if image is None or no_letter in image:
                    raise InvalidArgumentError(
                        f"component at level {k} contains "
                        f"{self.name(k, y if image is None else no_letter)}"
                    )
        row = pairs[a]
        if row is None:
            self._spend(len(pairs))
            row = pairs[a] = [None] * len(pairs)
            row[no_letter] = first
        if b == no_letter:
            return first
        i, m = 0, min(len(first), len(second))
        while i < m and first[-1 - i] + second[i] == 2 * no_letter:
            i += 1
        image = first[: len(first) - i] + second[i:]
        if not image:
            # An automorphism sends no reduced pair of letters to the identity.
            letters = self.level_letters[k]
            raise InvalidArgumentError(
                f"the action of {self.letter(x)} on level {k} sends "
                f"{letters[b]} {letters[a]} to the identity"
            )
        self._spend(len(image) + 5)
        row[b] = image
        return image

    def _form_acted(
        self, run: list[int], rev_k: list[int], k: int, room: int
    ) -> tuple[list[int], list[int]] | None:
        """rev_k acted on by the normal form of run, a run of letters below
        level k, and the form's letters in tower codes, kernel first, when
        the form is shorter than run and room letters hold both its comb,
        beside rev_k, and its whole action, beside the form; None otherwise,
        and the run's own letters act instead."""
        try:
            parts = self.comb(run, room - len(rev_k), k - 1)
            if sum(map(len, parts)) >= len(run):
                return None
            codes = self.tower_codes
            form = [codes[j][c] for j, part in zip(range(k - 1, 0, -1), parts) for c in part]
            for c in reversed(form):
                rev_k = self._conjugate_rev(c, rev_k, k, room, len(form))
        except WordSizeExceededError:
            return None
        return rev_k, form

    def comb(self, ints: list[int], cap: int, top: int | None = None) -> list[list[int]]:
        """The parts of the word ints, in tower codes, from level top (the
        tower's height unless given) down to level 1, kernel first, each in
        its level's codes."""
        level_of = self.level_of
        local = self.local
        twice = self.twice
        rest = ints
        parts = []
        for k in range(self.tower.n if top is None else top, 0, -1):
            twice_k = 2 * self.ranks[k]
            rev_k: list[int] = []
            rev_rest: list[int] = []
            # Once the scan enters a run of lower letters, rest[start : pos
            # + 1] is what is left of it to act, and tried says whether that
            # has been combed.  The run begins with S^-1, its mirrored
            # letters rest[start - mirrored : start], where S is the letters
            # rest[block - mirrored : block] that end the run before the
            # level-k block rest[block : start - mirrored]; S may be empty.
            start, tried = None, False
            pos = len(rest) - 1
            try:
                while pos >= 0:
                    x = rest[pos]
                    if level_of[x] == k:
                        _push(rev_k, local[x], twice_k)
                        start, tried = None, False
                        pos -= 1
                        continue
                    if start is None:
                        start = pos
                        while start and level_of[rest[start - 1]] < k:
                            start -= 1
                        block = start
                        while block and level_of[rest[block - 1]] == k:
                            block -= 1
                        # A letter that is the inverse of a lower letter is
                        # lower itself, so the match stays in both runs.
                        mirrored = 0
                        while (
                            mirrored < block
                            and start + mirrored <= pos
                            and rest[block - 1 - mirrored] + rest[start + mirrored] == twice
                        ):
                            mirrored += 1
                        start += mirrored
                    if pos < start:
                        # The scan has reached the mirrored letters: S Y S^-1
                        # acts on the level word as the block Y conjugated by
                        # S alone, so S^-1 and S act on nothing else, and
                        # cancel in the lower word.  S's letters act on Y
                        # right to left, each beside the letters before it,
                        # the level word and the lower letters held.
                        image: list[int] = []
                        for c in reversed(rest[block : start - mirrored]):
                            _push(image, local[c], twice_k)
                        if image:
                            for pos in range(block - 1, block - 1 - mirrored, -1):
                                held = pos + 1 + len(rev_k) + len(rev_rest)
                                image = self._conjugate_rev(rest[pos], image, k, cap, held)
                        for c in image:
                            _push(rev_k, c, twice_k)
                        start, tried = None, False
                        pos = block - 1 - mirrored
                        continue
                    # The run acts on the level word only through the element
                    # it is, so a shorter word for that element, its normal
                    # form, may act in its place.  Acting costs at least the
                    # level word's length per letter, so what is left of the
                    # run is combed once it is no longer than the level word,
                    # and only that once: a form that is not shorter, or does
                    # not fit under the cap, leaves the rest of the run to act
                    # letter by letter, as it would without run combing.
                    if (
                        not tried
                        and len(rev_k) >= _RUN_COMB_LEVEL_LETTERS
                        and _RUN_COMB_MIN_LETTERS <= pos + 1 - start <= len(rev_k)
                    ):
                        tried = True
                        # What the cap leaves beside the letters before the
                        # run and the lower letters held after it.
                        room = cap - start - len(rev_rest)
                        acted = self._form_acted(rest[start : pos + 1], rev_k, k, room)
                        if acted is not None:
                            rev_k, form = acted
                            for c in reversed(form):
                                _push(rev_rest, c, twice)
                            pos = start - 1
                            continue
                    if rev_k:
                        rev_k = self._conjugate_rev(x, rev_k, k, cap, pos + len(rev_rest) + 1)
                    _push(rev_rest, x, twice)
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
# are filled again.  The library's pair stores thus hold at most 8 engines
# times 4 MiB (_PAIR_WORDS); action tables are not counted.
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
    k = target.symbol.level
    return c.word(k, c.table(x, k)[c.local[y]][::-1])


def comb(
    p: Presentation | TowerSpec, w: Word, word_cap: int = DEFAULT_WORD_CAP
) -> NormalForm:
    """Comb w into its kernel-first normal form along the tower p, or the
    tower the presentation p carries; no relator is read.  Each part is
    decoded by the checked decode."""
    c = _comber_for(_require_tower(p))
    ints = c.encode(w)
    if len(ints) > word_cap:
        raise WordSizeExceededError(len(ints), word_cap, "input word")
    parts = c.comb(ints, word_cap)
    words = [c.word(k, part) for k, part in zip(range(c.tower.n, 0, -1), parts)]
    return _trusted(NormalForm, levels=tuple(words))


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
    return not any(comb(p, w, word_cap).levels)


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
