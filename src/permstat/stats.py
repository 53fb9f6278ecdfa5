"""Statistics on distinct words and permutations.

Order-based statistics (des, inv, maj, ai, aid, lec, pix, aix, ini) accept
any word of distinct letters; exc, fix, imaj, ides, mix, das and the
Rawlings family compare letters against positions or need the inverse, so
they demand a genuine permutation of 1..n.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from operator import eq, gt, lt
from typing import NamedTuple

from .core import BELOW, Word, first_letter, is_permutation
# bench/tracing.py patches these names until ROADMAP item 1 retargets it
from .core import inverse, split_at_min  # noqa: F401
from .errors import InvalidR, UnknownStatistic, WordNotPermutation


class HookFactorization(NamedTuple):
    """w = pi0 . hooks[0] . ... . hooks[-1] with pi0 nondecreasing.

    A hook h has length >= 2 and h(1) > h(2) <= h(3) <= ... <= h(r).
    """

    pi0: Word
    hooks: tuple[Word, ...]


# -- classic statistics ------------------------------------------------------

def des(w: Word) -> int:
    """Number of descents, the positions i with w(i) > w(i+1)."""
    return sum(map(gt, w, w[1:]))


def maj(w: Word) -> int:
    """Sum of descent positions."""
    return sum(itertools.compress(range(1, len(w)), map(gt, w, w[1:])))


def inv(w: Word) -> int:
    """Pairs i < j with w(i) > w(j): from the right, each letter adds the
    number of smaller letters seen, bisected in their sorted list."""
    seen: list[int] = []
    count = 0
    for x in reversed(w):
        k = bisect_left(seen, x)
        count += k
        seen.insert(k, x)
    return count


def ini(w: Word) -> int:
    """The first letter of a nonempty word."""
    return first_letter(w)


def _require_permutation(w: Word, name: str) -> None:
    """Raise WordNotPermutation(name) unless core.is_permutation(w)."""
    if sorted(w) != [*range(1, len(w) + 1)]:
        raise WordNotPermutation(name)


def _inverse(p: Word, name: str) -> list[int]:
    """The inverse of p as a list, checked while it is built: a letter above
    n is out of range, one below 1 wraps, a repeated one leaves a hole."""
    q = [0] * len(p)
    try:
        for i, x in enumerate(p, start=1):
            q[x - 1] = i
    except (IndexError, TypeError):  # a permutation of non-integers fails as inverse does
        if is_permutation(p):
            raise
        q = [0]
    if 0 in q or p and min(p) < 1:
        raise WordNotPermutation(name)
    return q


def exc(p: Word) -> int:
    """Number of positions i with p(i) > i. Permutations only."""
    _require_permutation(p, "exc")
    return sum(map(gt, p, range(1, len(p) + 1)))


def fix(p: Word) -> int:
    """Number of fixed points. Permutations only."""
    _require_permutation(p, "fix")
    return sum(map(eq, p, range(1, len(p) + 1)))


def imaj(p: Word) -> int:
    return maj(_inverse(p, "imaj"))


def ides(p: Word) -> int:
    return des(_inverse(p, "ides"))


# -- admissible inversions ---------------------------------------------------

def _admissible(w: Word) -> tuple[int, int]:
    """(ai, des + 1) in one pass, (0, 0) for the empty word:
    ai = inv - sum (j - 1 - L(j)) over j = |w| and the descents j, where L(j)
    is the nearest position left of j with a smaller letter (0 if none): the
    letters strictly between are larger than w(j), so exactly the inversions
    (i, j) with i > L(j) are inadmissible. A monotone stack finds each L(j):
    an ascent j joins it, a descent pops the letters above w(j+1).
    """
    v = (BELOW, *w, BELOW)
    left = [0]  # positions of increasing letters, the last one L(j)
    inadmissible = ends = 0
    for j in range(1, len(w) + 1):
        y = v[j + 1]
        if v[j] > y:  # a descent, or j = |w|
            inadmissible += j - 1 - left[-1]
            ends += 1
            while v[left[-1]] > y:
                left.pop()
        else:
            left.append(j)
    return inv(w) - inadmissible, ends


def ai(w: Word) -> int:
    """Inversions (i, j) with w(j) < w(j+1), or w(j) > w(k) for some i < k < j."""
    return _admissible(w)[0]


def aid(w: Word) -> int:
    """ai + des, from one pass."""
    admissible, ends = _admissible(w)
    return admissible + ends - 1 if ends else 0


# -- hook factorization ------------------------------------------------------

def hook_factorization(w: Word) -> HookFactorization:
    """Peel the rightmost hook (starting at the rightmost descent) until none remains."""
    rest = w
    hooks: list[Word] = []
    while True:
        d = 0
        for i in range(1, len(rest)):
            if rest[i - 1] > rest[i]:
                d = i
        if d == 0:
            return HookFactorization(rest, tuple(reversed(hooks)))
        hooks.append(rest[d - 1:])
        rest = rest[: d - 1]


def _hooks(w: Word) -> tuple[int, int]:
    """(pix, lec) from one right-to-left pass over the hook factorization.

    A hook w[d-1:end] starts at the rightmost descent d of w[:end]; the next
    starts at the rightmost descent below d - 1. The hook's tail is
    increasing, so its inversions are the tail letters below its head,
    found by one bisection.
    """
    end = len(w)  # the hooks of w[end:] are peeled
    lec = 0
    d = end - 1
    while d > 0:
        if w[d - 1] > w[d]:
            lec += bisect_left(w, w[d - 1], d, end) - d
            end = d - 1
            d = end
        d -= 1
    return end, lec


def lec(w: Word) -> int:
    """Sum of inversion counts over the hooks of the hook factorization."""
    return _hooks(w)[1]


def pix(w: Word) -> int:
    """Length of the nondecreasing prefix of the hook factorization."""
    return _hooks(w)[0]


def aix(w: Word) -> int:
    """Recursive split at the minimum letter m, w = alpha m beta.

    aix() = 0; aix(alpha m beta) = aix(alpha) when both parts are nonempty,
    1 + aix(beta) when alpha is empty, 0 when beta is empty. For a single
    letter the alpha-empty clause wins, giving 1.

    One pass reads it off. Write w = r s, r the longest increasing prefix.
    The alpha-empty clause drops the letters of r one at a time, adding 1
    each; while r(j) leads, the recursion walks down the left-to-right minima
    of s with letters between r(j-1) and r(j), and stops (beta empty) at one
    that is a descent top or the last letter. So with y the least such
    minimum of s, aix counts the letters of r below y, or all of r if none.
    """
    n = len(w)
    d = 1  # the length of r
    while d < n and w[d - 1] < w[d]:
        d += 1
    if d >= n:
        return n
    low = w[d - 1]  # the least letter of s so far, from above s(1)
    y = None
    at_min = False  # the letter before x is a left-to-right minimum of s
    for x in w[d:]:
        if x < low:
            if at_min:
                y = low
            low = x
            at_min = True
        else:
            at_min = False
    if at_min:
        y = low
    return d if y is None else bisect_left(w, y, 0, d)


# -- mesh-pattern-flavored statistics ----------------------------------------

def mix(p: Word) -> int:
    """Inversions topped by a left-to-right maximum, plus non-inversions
    (i, j) dominated by some earlier letter p(k) > p(j), k < i.

    Per j, bisection counts the left-to-right maxima above p(j) before j (the
    first kind) and the k letters below p(j) left of j. The a - 1 letters left
    of a, the first such maximum, are below p(j): the second kind is k - a + 1.
    The letters seen end sorted: the permutation check."""
    seen: list[int] = []  # letters left of j, sorted
    maxima: list[int] = []  # the left-to-right maxima, increasing
    positions: list[int] = []  # their positions
    count = 0
    for j, x in enumerate(p, start=1):
        k = bisect_left(seen, x)
        seen.insert(k, x)
        m = bisect_right(maxima, x)
        if m < len(maxima):
            count += len(maxima) - m + k + 1 - positions[m]
        else:
            maxima.append(x)
            positions.append(j)
    if seen != [*range(1, len(p) + 1)]:  # seen is sorted(p), so p fails is_permutation
        raise WordNotPermutation("mix")
    return count


def das(p: Word) -> int:
    """Positions i where a descent is topped by a left-to-right maximum, or
    an ascent's right letter is dominated by some earlier letter.
    """
    _require_permutation(p, "das")
    count = 0
    best = 0  # the largest letter left of x
    for x, y in zip(p, p[1:]):
        if x > best:
            best = x
            if x > y:
                count += 1
        elif best > y > x:
            count += 1
    return count


# -- Rawlings major index -----------------------------------------------------

def rawlings(p: Word, r: int | None = None) -> int | tuple[int, ...]:
    """The r-major index: the descents i with p(i) - p(i+1) >= r, summed,
    plus the inversions (i, j) with p(i) - p(j) < r, counted. rmaj:1 = maj,
    and rmaj:r = inv for every r >= n.

    With r omitted, the tuple (rmaj:1, ..., rmaj:n): raising r by one moves
    the pairs of gap exactly r from the descent sum to the inversion count
    (Rawlings, 1981). The inversions of gap g, the x with x + g to their
    left, are one comparison of the inverse with itself shifted by g, so one
    r costs O(n r)."""
    pos = _inverse(p, "rmaj" if r is None else f"rmaj:{r}")
    if r is not None and (isinstance(r, bool) or not isinstance(r, int) or r < 1):
        raise InvalidR(f"r must be an integer >= 1, got {r!r}")
    n = len(p)
    top = n if r is None else min(r, n)
    step = [0] * (n + 1)  # step[g]: minus the positions of the descents of gap g
    value = 0  # becomes maj = rmaj:1
    for i in range(1, n):
        gap = p[i - 1] - p[i]
        if gap > 0:
            value += i
            step[gap] -= i
    profile = [value]
    for g in range(1, top):  # add the x with x + g to their left
        value += step[g] + sum(map(lt, pos[g:], pos))
        profile.append(value)
    return tuple(profile[:n]) if r is None else profile[-1]


# -- registry -----------------------------------------------------------------

# name -> (function, permutation_only)
REGISTRY = {
    "des": (des, False),
    "exc": (exc, True),
    "inv": (inv, False),
    "maj": (maj, False),
    "fix": (fix, True),
    "imaj": (imaj, True),
    "ides": (ides, True),
    "ini": (ini, False),
    "ai": (ai, False),
    "aid": (aid, False),
    "lec": (lec, False),
    "pix": (pix, False),
    "aix": (aix, False),
    "mix": (mix, True),
    "das": (das, True),
}


def resolve_statistic(name: str):
    """Return (function, permutation_only) for a registry name.

    Names are the fixed lowercase strings of REGISTRY plus the parameterized
    family "rmaj:r" (e.g. "rmaj:2").
    """
    if name in REGISTRY:
        return REGISTRY[name]
    digits = name[5:] if name.startswith("rmaj:") else ""
    if digits.isascii() and digits.isdigit():
        r = int(digits)
        if r < 1:
            raise InvalidR("r must be >= 1")
        return (lambda p, r=r: rawlings(p, r)), True
    raise UnknownStatistic(name)


def stat_vector(w: Word, names: list[str] | tuple[str, ...]) -> tuple[tuple[str, int], ...]:
    """Evaluate named statistics in the requested order. A permutation-only
    statistic raises WordNotPermutation(name) itself on any other word."""
    return tuple((name, resolve_statistic(name)[0](w)) for name in names)
