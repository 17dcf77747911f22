"""Free-group words over the package's indexed generator alphabets.

Two alphabets appear throughout:

* ``r(j, i)`` — orbit generators, level ``j >= 1`` with offset
  ``0 <= i <= 2j - 2``; level ``j`` contributes ``2j - 1`` of them.
* ``A(i, j)`` — band generators of the pure braid group, ``1 <= i < j``;
  the level of ``A(i, j)`` is ``j`` (the higher strand).

A Word is an immutable, freely reduced sequence of signed letters; the empty
word is the identity.  All operations are pure and return fresh words, which
makes words safe to share, hash and memoize.

Every symbol that orbit_gen, band_gen and parse_word hand out is shared:
one (family, indices) is one object, held in a cache bounded by a fixed
number of symbols, so presentations, combing and the abelian layer meet
the same objects and a dict lookup matches them by identity.  A
symbol's hash is computed once, from integers only (its family's ordinal
and its indices), so it is the same in every interpreter.

The canonical text syntax (used by the CLI and the presentation exporters)
writes letters as ``r(j,i)`` or ``A(i,j)``, optionally followed by ``^-1``
or ``^k`` for a nonzero integer ``k`` (expanded into ``|k|`` letters, within
the parser's word cap).  Whitespace separates letters; the empty string and
the single token ``1`` both denote the identity.  The printer only ever
emits ``^-1``.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from .errors import InvalidArgumentError, MissingImageError, WordSizeExceededError

__all__ = [
    "DEFAULT_WORD_CAP",
    "GenFamily",
    "GeneratorSymbol",
    "Letter",
    "Word",
    "IDENTITY",
    "orbit_gen",
    "band_gen",
    "reduce",
    "concat",
    "invert",
    "exponent_sum",
    "word_power",
    "apply_homomorphism",
    "parse_word",
    "format_word",
]


# Default bound on the letters of a word: an input after ``^k`` expansion,
# or an intermediate word of the combing engine.
DEFAULT_WORD_CAP = 10**6

# How many shared symbols the cache keeps: every generator of the tallest
# towers of both families at once (2,500 for G_50 and 2,485 for P_71, the
# bound presentations.MAX_TOWER_GENERATORS allows) with room to spare.  A
# symbol evicted past it is rebuilt on its next use, equal but not identical.
_SHARED_SYMBOLS = 8192


_set = object.__setattr__  # how _frozen classes set a field


def _frozen(cls):
    """Make cls an immutable value class over its annotated fields, in order.

    Installs, unless cls writes its own, __eq__ between instances of the
    same class, comparing their field tuples, and __hash__ of the field
    tuple; a repr ``Cls(f=v, ...)``; __setattr__ and __delattr__ that raise
    AttributeError; and, unless cls writes its own, an __init__ taking the
    fields by position or keyword, a class attribute of a field's name
    being its default, that stores a field annotated tuple[...] as a tuple
    (a tuple argument as it is) and then calls __post_init__ if cls has one.
    Nothing is compiled: dataclasses would import inspect and exec each
    class's methods, a tenth of a cold CLI call.  Fields are set through
    object.__setattr__, as _trusted sets them: writing to the instance
    __dict__ would build that dict, and more than double an instance's size.
    """
    names = tuple(cls.__annotations__)
    count = len(names)
    tuples = {name for name in names if str(cls.__annotations__[name]).startswith("tuple[")}
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    qualname = cls.__qualname__
    get = attrgetter(*names)  # the one field's value, or a tuple of them
    if count == 1:

        def key(obj):
            return (get(obj),)

    else:
        key = get

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join([f"{name}={value!r}" for name, value in zip(names, key(self))])
        return f"{qualname}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {qualname}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {qualname}")

    def bind(args, kwargs):
        """The field values, in order, for a call that is not exactly one
        positional argument per field."""
        if len(args) > count:
            raise TypeError(f"{qualname}() takes {count} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{qualname}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{qualname}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        return values

    post_init = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, tuple(value) if name in tuples else value)
        if post_init is not None:
            post_init(self)

    if "__eq__" not in cls.__dict__:
        cls.__eq__ = __eq__
    cls.__repr__ = __repr__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = __hash__
    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    return cls


def _trusted(cls, **fields):
    """An instance of the _frozen class cls built without __init__ or
    __post_init__.

    Only for values whose invariants the caller has already checked; public
    construction always validates.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        _set(obj, name, value)
    return obj


class GenFamily(Enum):
    """The two generator alphabets; the value is the text-syntax letter."""

    ORBIT = "r"
    BAND = "A"


_FAMILIES = tuple(GenFamily)  # a family's position here is its ordinal


@_frozen
class GeneratorSymbol:
    """A single indexed generator, e.g. r(3,1) or A(1,2).

    The helpers orbit_gen, band_gen and parse_word return one shared
    instance per (family, indices); a symbol built directly is equal and
    hash-equal to it.  The hash is computed once, after validation,
    from the family's ordinal and the indices, never from a str or an Enum,
    whose hashes change from one interpreter to the next.
    """

    family: GenFamily
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = self.indices
        if self.family is GenFamily.ORBIT:
            if len(idx) != 2:
                raise InvalidArgumentError(f"orbit generator needs 2 indices, got {idx}")
            j, i = idx
            if j < 1 or i < 0 or i > 2 * j - 2:
                raise InvalidArgumentError(
                    f"orbit generator r({j},{i}) out of range: need j >= 1, 0 <= i <= 2j-2"
                )
        else:
            if len(idx) != 2:
                raise InvalidArgumentError(f"band generator needs 2 indices, got {idx}")
            i, j = idx
            if not 1 <= i < j:
                raise InvalidArgumentError(
                    f"band generator A({i},{j}) out of range: need 1 <= i < j"
                )
        object.__setattr__(self, "_hash", hash((_FAMILIES.index(self.family), *idx)))

    # GeneratorSymbol, Letter and Word write __eq__ and __hash__ out:
    # _frozen's generic ones read the fields through an attrgetter, about
    # half again as slow, and these three are compared by the thousand.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.family is other.family and self.indices == other.indices
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def level(self) -> int:
        """Tower level: j for r(j,i), j for A(i,j)."""
        if self.family is GenFamily.BAND:
            return self.indices[1]
        return self.indices[0]

    def __str__(self) -> str:
        return f"{self.family.value}({','.join(str(i) for i in self.indices)})"


@lru_cache(maxsize=_SHARED_SYMBOLS)
def _symbol(char: str, indices: tuple[int, ...]) -> GeneratorSymbol:
    """The shared symbol written char(indices), e.g. r(3,1) for ("r", (3, 1)).

    The one place the package builds a GeneratorSymbol.  It is keyed on the
    text-syntax letter, whose hash Python caches, not on the GenFamily
    member, whose hash is computed in Python on every lookup.
    """
    return GeneratorSymbol(GenFamily(char), indices)


def orbit_gen(j: int, i: int) -> GeneratorSymbol:
    """The orbit generator r(j,i)."""
    return _symbol("r", (j, i))


def band_gen(i: int, j: int) -> GeneratorSymbol:
    """The band generator A(i,j) of the pure braid alphabet."""
    return _symbol("A", (i, j))


@_frozen
class Letter:
    """A generator with an exponent of +1 or -1."""

    symbol: GeneratorSymbol
    exponent: int = 1

    # Letter and Word write their __init__ out, not _frozen's generic one:
    # presentations build them by the hundred thousand.
    def __init__(self, symbol: GeneratorSymbol, exponent: int = 1) -> None:
        if exponent not in (1, -1):
            raise InvalidArgumentError(f"letter exponent must be +1 or -1, got {exponent}")
        _set(self, "symbol", symbol)
        _set(self, "exponent", exponent)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # Exponents first, then identity: shared symbols rarely need __eq__.
            return self.exponent == other.exponent and (
                self.symbol is other.symbol or self.symbol == other.symbol
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.symbol, self.exponent))

    def inverse(self) -> "Letter":
        return Letter(self.symbol, -self.exponent)

    def __str__(self) -> str:
        return format_letter(self)


@_frozen
class Word:
    """A freely reduced word; the empty word is the group identity.

    Construction checks that every element is a Letter and that the word
    is reduced, so every Word in existence satisfies the invariant; use
    :func:`reduce` to build one from raw letters.  Any sequence of letters
    is stored as a tuple.
    """

    letters: tuple[Letter, ...] = ()

    def __init__(self, letters: tuple[Letter, ...] = ()) -> None:
        letters = tuple(letters)  # a tuple argument is returned as it is
        prev = None
        for cur in letters:
            if cur.__class__ is not Letter:
                raise InvalidArgumentError(f"a word's letters must be Letters, got {cur!r}")
            if (
                prev is not None
                and prev.exponent == -cur.exponent
                and (prev.symbol is cur.symbol or prev.symbol == cur.symbol)
            ):
                raise InvalidArgumentError(
                    f"word is not freely reduced at ...{format_letter(prev)} {format_letter(cur)}..."
                )
            prev = cur
        _set(self, "letters", letters)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if other.__class__ is not self.__class__:
            return NotImplemented
        return concat(self, other)

    def inverse(self) -> "Word":
        return invert(self)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def symbols(self) -> set[GeneratorSymbol]:
        """The set of generators that occur (with either sign)."""
        return {letter.symbol for letter in self.letters}

    def __str__(self) -> str:
        return format_word(self)


IDENTITY = Word()




def reduce(raw: Iterable[Letter]) -> Word:
    """Freely reduce a letter sequence (cancel adjacent x x^-1 pairs)."""
    stack: list[Letter] = []
    for letter in raw:
        if stack:
            top = stack[-1]
            # Exponents first, then identity: shared symbols rarely need __eq__.
            if top.exponent == -letter.exponent and (
                top.symbol is letter.symbol or top.symbol == letter.symbol
            ):
                stack.pop()
                continue
        stack.append(letter)
    return Word(tuple(stack))


def concat(u: Word, v: Word) -> Word:
    """The freely reduced product u * v."""
    if u.is_identity:
        return v
    if v.is_identity:
        return u
    # Only the boundary can cancel; peel matching ends then splice.
    a, b = u.letters, v.letters
    i, j = len(a) - 1, 0
    while (
        i >= 0
        and j < len(b)
        and a[i].exponent == -b[j].exponent
        and (a[i].symbol is b[j].symbol or a[i].symbol == b[j].symbol)
    ):
        i -= 1
        j += 1
    # Reduced: only the cancelled boundary could hold an x x^-1 pair.
    return _trusted(Word, letters=a[: i + 1] + b[j:])


def invert(w: Word) -> Word:
    """The inverse word (reversed letters with flipped exponents)."""
    # The reverse of a reduced word with every exponent flipped is reduced.
    return _trusted(Word, letters=tuple([letter.inverse() for letter in reversed(w.letters)]))


def exponent_sum(w: Word, s: GeneratorSymbol) -> int:
    """Net exponent of the generator s in w."""
    return sum(letter.exponent for letter in w.letters if letter.symbol == s)


def word_power(w: Word, k: int) -> Word:
    """The reduced power w**k; a negative k powers the inverse word."""
    return reduce((w if k >= 0 else w.inverse()).letters * abs(k))


def apply_homomorphism(w: Word, images: Mapping[GeneratorSymbol, Word]) -> Word:
    """Substitute each letter by its image word and reduce.

    Raises MissingImageError if some generator occurring in w has no image.
    """
    raw: list[Letter] = []
    for letter in w.letters:
        try:
            image = images[letter.symbol]
        except KeyError:
            raise MissingImageError(letter.symbol) from None
        raw.extend(image.letters if letter.exponent == 1 else invert(image).letters)
    return reduce(raw)


# --- text syntax ------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"^([rA])\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)(?:\^(-?\d+))?$"
)

# The most digits an index or a ^k exponent may have.  A longer number is
# refused before it is converted: Python refuses to convert a string of
# more than 4,300 digits (640 at the least a user may set) to an int, and
# no tower index nor any exponent within a word cap comes near 100 digits.
_MAX_NUMBER_DIGITS = 100


def format_letter(letter: Letter) -> str:
    base = str(letter.symbol)
    return base + "^-1" if letter.exponent == -1 else base


def format_word(w: Word) -> str:
    """Canonical text form; the identity prints as ``1``."""
    if w.is_identity:
        return "1"
    # One name per Letter object, looked up by identity: combed words share
    # their letters, so a long one has few objects.  Symbols are shared too,
    # so each is written out once.
    letters = w.letters
    bases: dict[int, str] = {}
    names = {}
    for key, letter in dict(zip(map(id, letters), letters)).items():
        symbol = letter.symbol
        base = bases.get(id(symbol))
        if base is None:
            base = bases[id(symbol)] = str(symbol)
        names[key] = base + "^-1" if letter.exponent == -1 else base
    return " ".join(map(names.__getitem__, map(id, letters)))


def parse_word(text: str, word_cap: int = DEFAULT_WORD_CAP) -> Word:
    """Parse the canonical text syntax back into a Word.

    The empty string and the lone token ``1`` give the identity.  Exponent
    suffixes ``^k`` are expanded; ``k = 0`` is rejected, and so is an index
    or exponent of more than _MAX_NUMBER_DIGITS digits.  A text whose
    expanded length would pass word_cap raises WordSizeExceededError before
    the token that passes it is expanded, even if the word would reduce to
    fewer letters.
    """
    tokens = text.split()
    if not tokens:
        return IDENTITY
    if tokens == ["1"]:
        return IDENTITY
    raw: list[Letter] = []
    for token in tokens:
        match = _TOKEN_RE.match(token)
        if match is None:
            raise InvalidArgumentError(f"cannot parse word letter {token!r}")
        char, first, second, power = match.groups()
        if second is None:
            raise InvalidArgumentError(f"{char} takes two indices: {token!r}")
        if max(len(first), len(second), len((power or "").lstrip("-"))) > _MAX_NUMBER_DIGITS:
            raise InvalidArgumentError(
                f"a number in a {char}(...) letter has more than {_MAX_NUMBER_DIGITS} digits"
            )
        symbol = _symbol(char, (int(first), int(second)))
        k = 1 if power is None else int(power)
        if k == 0:
            raise InvalidArgumentError(f"zero exponent in {token!r}")
        if len(raw) + abs(k) > word_cap:
            raise WordSizeExceededError(len(raw) + abs(k), word_cap, "input word")
        sign = 1 if k > 0 else -1
        raw += [Letter(symbol, sign)] * abs(k)  # one shared, immutable letter
    return reduce(raw)
