"""Exception types shared across the package."""


class PermstatError(Exception):
    """Base class for all errors raised by permstat."""


class DuplicateLetter(PermstatError):
    def __init__(self, letter: int):
        self.letter = letter
        super().__init__(f"duplicate letter {letter}")


class NotAPermutation(PermstatError):
    pass


class EmptyWord(PermstatError):
    pass


class InvalidR(PermstatError):
    pass


class UnknownStatistic(PermstatError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown statistic {name!r}")


class WordNotPermutation(PermstatError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"statistic {name!r} requires a permutation of 1..n")


class LetterCollision(PermstatError):
    def __init__(self, letter: int):
        self.letter = letter
        super().__init__(f"letter {letter} already present in the word")


class UnknownPattern(PermstatError, ValueError):
    pass


class UnknownSuite(PermstatError, ValueError):
    pass


class SizeCapExceeded(PermstatError):
    pass


class InvalidSize(PermstatError):
    """A size n, or the PERMSTAT_NMAX cap, that is not a non-negative integer."""


class ParseError(PermstatError):
    pass
