"""Distinct words and permutations in one-line notation.

A word is a tuple of pairwise-distinct naturals (letters >= 1); positions
are 1-based in every public interface. A permutation of size n is a word
whose letters are exactly 1..n. The empty tuple is the empty word (and the
empty permutation). All values are immutable; every operation returns a
new tuple.

>>> make_word([2, 5, 8])
(2, 5, 8)
>>> inverse(parse_permutation("312"))
(2, 3, 1)
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .errors import DuplicateLetter, EmptyWord, NotAPermutation, ParseError

Word = tuple[int, ...]
BELOW = float("-inf")  # lies below every letter

LeftToRightMaxima = namedtuple("LeftToRightMaxima", "positions values")
LeftToRightMaxima.__doc__ = "Positions (1-based, increasing) and values of left-to-right maxima."


def make_word(letters: Iterable[int]) -> Word:
    """Validate and freeze a sequence of pairwise-distinct naturals."""
    word = tuple(letters)
    seen: set[int] = set()
    for x in word:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ParseError(f"letter {x!r} is not an integer")
        if x < 1:
            raise ParseError(f"letters must be naturals >= 1, got {x}")
        if x in seen:
            raise DuplicateLetter(x)
        seen.add(x)
    return word


def is_permutation(w: Sequence[int]) -> bool:
    """Whether the sorted letters of w equal 1..len(w), compared with ==, so
    letters equal to those ints, such as 1.0 or True, pass too."""
    return sorted(w) == list(range(1, len(w) + 1))


def inverse(p: Word) -> Word:
    """The inverse permutation: q with q[p(i)] = i. Letters must be ints
    (not bools, as in make_word) and form a permutation of 1..n."""
    if any(not isinstance(x, int) or isinstance(x, bool) for x in p) or not is_permutation(p):
        raise NotAPermutation(f"{p} is not a permutation of 1..{len(p)}")
    q = [0] * len(p)
    for i, x in enumerate(p, start=1):
        q[x - 1] = i
    return tuple(q)


def left_to_right_maxima(w: Word) -> LeftToRightMaxima:
    """Positions i with w(i) > w(j) for all j < i, and their values."""
    positions, values = [], []
    best = w[0] - 1 if w else 0  # below the first letter, which is a maximum
    for i, x in enumerate(w, start=1):
        if x > best:
            positions.append(i)
            values.append(x)
            best = x
    return LeftToRightMaxima(tuple(positions), tuple(values))


def split_at_min(w: Word) -> tuple[Word, int, Word]:
    """Split a nonempty word as (alpha, m, beta) around its minimum letter."""
    if not w:
        raise EmptyWord("cannot split the empty word")
    m = min(w)
    i = w.index(m)
    return w[:i], m, w[i + 1:]


def complement_subword_on(w: Word, letters: Iterable[int]) -> Word:
    """Replace each letter of the given set by its mirror in the set (the i-th
    smallest by the i-th largest), leaving the others: an involution."""
    ordered = sorted(set(letters))
    mirror = {x: y for x, y in zip(ordered, reversed(ordered))}
    return tuple(mirror.get(x, x) for x in w)


def parse_word(text: str) -> Word:
    """Parse one-line notation: space-separated naturals or a compact digit string.

    Every letter is written in ASCII digits. Compact form ("312") is
    accepted only when every letter is a single digit 1..9; any whitespace
    inside the text forces the space-separated reading. The empty string is
    the empty word.
    """
    tokens = text.split()
    compact = len(tokens) == 1
    if compact:
        tokens = list(tokens[0])
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ParseError(f"cannot parse {text.strip()!r} as a word")
    if compact and "0" in tokens:
        raise ParseError(f"compact form {text.strip()!r} contains the digit 0")
    return make_word(map(int, tokens))


def parse_permutation(text: str) -> Word:
    word = parse_word(text)
    if not is_permutation(word):
        raise NotAPermutation(f"{word} is not a permutation of 1..{len(word)}")
    return word


def format_word(w: Word) -> str:
    """Serialize mirroring the input forms: compact when all letters fit one digit."""
    if not w:
        return ""
    if max(w) <= 9:
        return "".join(str(x) for x in w)
    return " ".join(str(x) for x in w)
