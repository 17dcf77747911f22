"""Exception types shared across the package.

Everything raised on purpose derives from BraidCombError, so callers can
catch the package's failures without also swallowing genuine bugs.
"""

__all__ = [
    "BraidCombError",
    "InvalidArgumentError",
    "MissingImageError",
    "NoUnitCoordinateError",
    "WordSizeExceededError",
]


class BraidCombError(Exception):
    """Base class for all errors raised deliberately by this package."""


class InvalidArgumentError(BraidCombError, ValueError):
    """An argument is out of the documented range or of the wrong shape."""


class MissingImageError(BraidCombError, LookupError):
    """A homomorphism application met a generator with no assigned image."""

    def __init__(self, symbol):
        self.symbol = symbol
        super().__init__(f"no image assigned for generator {symbol}")


class WordSizeExceededError(BraidCombError, RuntimeError):
    """A word is longer than the configured cap: an input word before any
    rewriting starts, or an intermediate word during rewriting.

    The offending length is kept on the exception so front ends can report
    it, and the message names which word it was; rewriting never truncates
    silently.  For an intermediate word, level is the tower level k whose
    scan hit the cap, once the scan has named it, and position is the
    0-based index, within the word that scan read, of the lower letter whose
    action hit it; for an input word both are None.  Where the scan may act
    by the normal form of a run of lower letters, the form acts whole or not
    at all: a form whose comb or action hits the cap raises nothing, and the
    run's own letters act instead, so position always names a letter the
    scan read.
    """

    def __init__(
        self,
        length: int,
        cap: int,
        word: str = "intermediate word",
        level: int | None = None,
        position: int | None = None,
    ):
        self.length = length
        self.cap = cap
        self.level = level
        self.position = position
        where = "" if level is None else f" at level {level}"
        super().__init__(f"{word} of length {length} exceeds the cap of {cap}{where}")


class NoUnitCoordinateError(BraidCombError, ValueError):
    """A splitting was requested for a vector with no +1/-1 coordinate."""
