"""Exhaustive enumeration, joint distributions, and the verification suites.

Every theorem of the library is checked here by brute force at desk scale:
permutation claims over S_n for n up to a cap (default 8 in the suites,
hard cap 10 unless PERMSTAT_NMAX raises it), word-level lemmas over all
distinct words of bounded length on a small alphabet.

Every claim is a record in CLAIMS. One engine runs them, once over
S_0..S_n and once over the lemma words: for each size it enumerates the
objects once, in chunks, and feeds every selected claim from columns of
the chunk's values, each computed on first use as its key's plan says,
which _plan reads off the key once per key and size of a run. Over S_n, a
Memo computes each registry statistic in one pass over the size, read as
a slice for the objects and by rank for their images (what it cannot hold
is computed directly), and holds psi as a map of ranks, from which the
involution claim is decided once per size. A row claim is an expression,
compiled once and checked at C level over one table: the chunk, or its
lemma words' rows (w, k) or (sigma, l, k), whose letters are columns too.
A WordMemo computes each f(k, t) of the lemma run once."""
from __future__ import annotations

import functools
import itertools
import json
import math
import os
import struct
import sys
import time
from array import array
from bisect import bisect_left
from collections import Counter
from operator import add, and_, eq, ge, gt, itemgetter, le, not_
from typing import Callable, Iterable, Iterator, NamedTuple

from . import bijections, stats
from .core import Word, left_to_right_maxima
from .errors import InvalidSize, SizeCapExceeded, UnknownSuite, WordNotPermutation

DEFAULT_CAP = 10

#: bounded domain for the word-level lemma suites
LEMMA_ALPHABET = range(1, 8)
LEMMA_MAX_LEN = 5
_SIGMA_MAX_LEN = LEMMA_MAX_LEN - 1  # lemma 6 inserts two letters
_LETTERS = range(LEMMA_ALPHABET.start, LEMMA_ALPHABET.stop + 1)  # the letters a lemma inserts
_ALPHABET_TEXT = f"{{{LEMMA_ALPHABET[0]}..{LEMMA_ALPHABET[-1]}}}"


def size_cap() -> int:
    raw = os.environ.get("PERMSTAT_NMAX", str(DEFAULT_CAP))
    digits = raw.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise InvalidSize(f"PERMSTAT_NMAX={raw!r} is not a non-negative integer")
    return int(raw)


def _check_size(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidSize(f"n={n!r} is not an integer")
    if n < 0:
        raise InvalidSize(f"n={n} is negative")
    if n > size_cap():
        raise SizeCapExceeded(f"n={n} exceeds the cap {size_cap()}")


def all_permutations(n: int) -> Iterator[Word]:
    """All of S_n in lexicographic order."""
    _check_size(n)
    return iter(itertools.permutations(range(1, n + 1)))


def _words(length: int) -> Iterator[Word]:
    for combo in itertools.combinations(LEMMA_ALPHABET, length):
        yield from itertools.permutations(combo)


# -- value columns and joint distributions ----------------------------------------

Keys = tuple[str, ...]

#: objects per column table; a chunk's columns are all the engine holds
CHUNK = 256


def _inv2(p: Word) -> int:
    """|Inv_2|, the inversions (i, j) with p(i) = p(j) + 1: the letters x
    with x + 1 to their left."""
    seen: set[int] = set()
    count = 0
    for x in p:
        count += x + 1 in seen
        seen.add(x)
    return count


class Memo(dict):
    """Over S_n by lexicographic rank: per registry statistic an array of n!
    signed bytes, filled in one pass at its first read (a value on S_n is at
    most max(C(n, 2), n), a byte for n <= 16), or None if a value is no int
    in -128..127 (only a broken kernel returns one), and psi[rank(p)] =
    rank(psi(p)) as Columns.store_psi writes it. A rank adds the Lehmer-code
    shares of a word's halves (Lehmer, 1960), each packed above the bit set
    of its letters; the sets add up to {1..n} exactly on S_n. The rank
    tables and psi are built at their first use."""

    def __init__(self, n: int):
        self.n = n

    def statistic(self, name: str, fn: Callable) -> array | None:
        """name's array: fn's values on S_n by rank, or None as above."""
        if name not in self:
            try:
                self[name] = array("b", map(fn, itertools.permutations(range(1, self.n + 1))))
            except (OverflowError, TypeError):
                self[name] = None
        return self[name]

    psi = functools.cached_property(lambda self: array("i", [-1]) * math.factorial(self.n))

    @functools.cached_property
    def tables(self) -> tuple:
        n, h, shift, letters = self.n, self.n // 2, self.n + 2, range(1, self.n + 1)
        head = {w: i * math.factorial(n - h) << shift | sum(1 << x for x in w)
                for i, w in enumerate(itertools.permutations(letters, h))}
        tail = {w: j << shift | sum(1 << x for x in w)  # j: w's rank on its letters
                for c in itertools.combinations(letters, n - h)
                for j, w in enumerate(itertools.permutations(c))}
        return head, tail, h, shift, (1 << shift) - 1, (1 << n + 1) - 2

    def ranks(self, words: list) -> list[int] | None:
        """The words' ranks, or None if one is not in S_n."""
        head, tail, h, shift, low, full = self.tables
        totals = [head.get(w[:h], -1) + tail.get(w[h:], -1) for w in words]
        return [t >> shift for t in totals] if all(t & low == full for t in totals) else None


class WordMemo(dict):
    """The images of one lemma run by pair, (k, t) -> f(k, t): lemma 6's
    column fl.fk keeps f(k, t) for t = f(l, sigma) where t is a lemma word
    (l in LEMMA_ALPHABET), and at the next size the fk column of the pair
    (t, k) takes it out, so f(k, t) runs once per pair."""

    def inserting(self, f: Callable, outer: bool) -> Callable:
        """f over (k, t), kept where outer (t = f(l, sigma)), else taken out."""
        if not outer:
            return lambda k, t: self.pop((k, t), None) or f(k, t)
        return lambda k, t: self.setdefault((k, t), f(k, t)) if max(t) in LEMMA_ALPHABET else f(k, t)


#: the insertions a key names: fk is f(k, w), gk is k w, fl and gl put in l
_INSERTIONS = ("fk", "gk", "fl", "gl")


def _plan(key: str, size: int, top: int | None, words: WordMemo | None) -> tuple:
    """How a column of key is made over objects of one size: (image, name,
    fn, test, letters), fn mapped over the words of the column image ("" for
    the objects) where test, if any, passes (fn None keeps those words), an
    insertion's fn over its letter's column too; letters are those the key
    puts in ("lk" for "fl.fk.aix"). A key names a value of w ("inv", "gk"
    is k w, "avoider321" is w where it avoids 321) or of an image ("phi.aid"
    is aid(phi(w))). rmaj:r is one itemgetter (len on ()) over the profiles
    rawlings(w, None, top), cut at size. With words, fk and fl.fk take out
    or keep their images. Functions are looked up on stats and bijections."""
    image, _, name = key.rpartition(".")
    letters = "".join(part[1] for part in key.split(".") if part in _INSERTIONS)
    if name.startswith("rmaj:"):
        r = size if name == "rmaj:n" else min(int(name[5:]), size)
        return key[:-len(name)] + "rawlings", name, itemgetter(r - 1) if size else len, None, ""
    if name in ("avoider321", "avoider312"):
        return image, name, None, lambda w, pattern=name[-3:]: bijections.avoids(w, pattern), ""
    if name in _INSERTIONS:
        fn = (lambda k, w: (k,) + w) if name[0] == "g" else lambda k, w: bijections.f_insert(k, w)[0]
        if words is not None and name[0] == "f":
            fn = words.inserting(fn, bool(image))
        return image, name, fn, None, letters
    if name == "rawlings":
        return image, name, lambda w: stats.rawlings(w, None, top), None, ""
    fn = {"|Inv_2|": _inv2, "lrmax": left_to_right_maxima}.get(name)
    return image, name, fn or getattr(stats, name, None) or getattr(bijections, name), None, letters


class Columns(dict):
    """The values the claims read over a table of rows of one size: per key
    a column computed on first use as plan(key, size) says, "p" holding the
    rows' words. domains maps each column whose test keeps some of p's
    words (or of such a column's) to the rows it keeps. spent maps each key
    to (objects, seconds), objects counting its rows, seconds the test's
    too. With a Memo the rows are S_n from rank start on, and a statistic
    the memo holds is a slice of it, of p, or read at an image's ranks.
    origin maps each row to its object in the chunk; in a table of pairs or
    triples, links maps letters a key puts in to the parent's rows of it."""

    def __init__(self, objects: list, spent: dict, plan: Callable,
                 memo: Memo | None = None, start: int = 0):
        super().__init__(p=objects)
        self.spent, self.plan, self.memo, self.start, self.ranks = spent, plan, memo, start, {}
        self.size, self.domains = len(objects[0]) if objects else 0, {}
        self.origin, self.parent, self.links = range(len(objects)), None, {}

    def _linked(self, links: dict, **columns) -> Columns:
        """A table of self's rows links[""], with columns, linked to self."""
        up = links[""]
        table = Columns([*map(self["p"].__getitem__, up)], self.spent, self.plan)
        table.update(columns)
        table.origin, table.parent, table.links = [*map(self.origin.__getitem__, up)], self, links
        return table

    def pairs(self) -> Columns:
        """A row (w, k) per word w of the chunk and letter k of _LETTERS it lacks."""
        up = [i for i, w in enumerate(self["p"]) for k in _LETTERS if k not in w]
        return self._linked({"": up}, k=[k for w in self["p"] for k in _LETTERS if k not in w])

    def triples(self, over: str) -> Columns:
        """Over pairs, a row (sigma, l, k) per pair of pair rows (sigma, l),
        (sigma, k) where k is outside f(l, sigma) ("fl", the pairs' fk) or
        l sigma ("gl"), the actual image; by word, then l, then k."""
        image, letters, up, across = self[over[0] + "k"], self["k"], [], []
        for _, word in itertools.groupby(range(len(letters)), self.origin.__getitem__):
            word = [*word]
            for j in word:
                ks = [i for i in word if letters[i] not in image[j]]
                up += [j] * len(ks)
                across += ks
        return self._linked({"": up, "k": across}, l=[*map(letters.__getitem__, up)],
                            k=[*map(letters.__getitem__, across)],
                            **{over: [*map(image.__getitem__, up)]})

    def index(self, image: str) -> list[int] | None:
        """The ranks of image's words, as Memo.ranks gives them."""
        if image not in self.ranks:
            self.ranks[image] = self.memo.ranks(self[image])
        return self.ranks[image]

    def rows(self, key: str) -> list:
        """The chunk's rows key's column holds: its longest prefix's in domains, else all."""
        while key and key not in self.domains:
            key = key.rpartition(".")[0]
        return self.domains[key] if key else [*range(len(self["p"]))]

    def __missing__(self, key: str) -> list | array:
        image, name, fn, test, letters = self.plan(key, self.size)
        if letters in self.links:  # the value of a linked row, computed there
            self[key] = [*map(self.parent[key].__getitem__, self.links[letters])]
            return self[key]
        try:
            words = self[image or "p"]
        except WordNotPermutation:  # a profile names the family, not rmaj:r
            raise WordNotPermutation(name) from None
        start = time.perf_counter()
        if test:
            passes = [*map(test, words)]
            if not image or image in self.domains:  # p's words on fewer rows
                rows = self.domains.get(image, itertools.count())
                self.domains[key] = [*itertools.compress(rows, passes)]
            words = [*itertools.compress(words, passes)]
        memo = self.memo if name in stats.REGISTRY else None
        values = None if memo is None else memo.statistic(name, fn)
        if name in self and image in self.domains:
            column = [*map(self[name].__getitem__, self.domains[image])]  # p's, on image's rows
        elif values is not None and not image:
            column = values[self.start:self.start + len(words)]
        elif values is not None and self.index(image) is not None:
            column = [*map(values.__getitem__, self.ranks[image])]
        elif fn is None:
            column = words
        elif name in _INSERTIONS:  # the letter it puts in, then the word
            column = [*map(fn, self[letters[-1]], words)]
        else:
            column = [*map(fn, words)]
        _charge(self.spent, key, len(words), start)
        self[key] = column
        return column

    def store_psi(self) -> None:
        """Store rank(psi(p)) at rank(p) in the memo for the chunk's rows.
        Where psi(p) has no rank (only a broken psi makes one), the row checks
        psi(psi(p)) = p directly and stores rank(p) if it holds, -1 if not, so
        psi[psi[i]] = i exactly where psi(psi(p)) = p. Charged to psi.psi."""
        images, memo, start = self["psi"], self.memo, time.perf_counter()
        index = self.index("psi") or [
            (memo.ranks([q]) or [i if bijections.psi(q) == p else -1])[0]
            for i, p, q in zip(itertools.count(self.start), self["p"], images)]
        memo.psi[self.start:self.start + len(index)] = array("i", index)
        _charge(self.spent, "psi.psi", len(images), start)


def _charge(spent: dict, key: str, objects: int, start: float) -> None:
    """Add objects and the seconds since start to key's cost."""
    was, seconds = spent.get(key, (0, 0.0))
    spent[key] = was + objects, seconds + time.perf_counter() - start


def _chunks(objects: Iterable[Word], rows: int = 1) -> Iterator[list]:
    """The objects in order, in lists of CHUNK // rows objects (one at least)
    of one size: a new list starts wherever the size changes."""
    width = max(1, CHUNK // rows)
    for _, run in itertools.groupby(objects, len):
        yield from iter(lambda: list(itertools.islice(run, width)), [])


def _table(tables: dict, over: str) -> Columns:
    """The chunk's table that over names, made from tables[""] at its first read."""
    if over not in tables:
        tables[over] = tables[""].pairs() if over == "p" else _table(tables, "p").triples(over)
    return tables[over]


def _count(counts: Counter, columns: Columns, keys: Keys) -> None:
    """Count a chunk's rows of keys' values: one key's plain values, else a
    bytes row per object, a byte per value (struct "B", which makes no
    tuple). At the first row with a value outside 0..255 the map is
    re-keyed as _keyed decodes it, and tuples are counted from that row on,
    so a map never mixes bytes and tuples. Keys that read different rows
    (Columns.rows) raise ValueError."""
    if len(keys) == 1:
        counts.update(columns[keys[0]])
        return
    values, rows = [*map(columns.__getitem__, keys)], [*map(columns.rows, keys)]
    if any(r != rows[0] or len(r) != len(v) for r, v in zip(rows, values)):
        raise ValueError(f"the keys {keys} do not read one known set of the chunk's rows")
    if not keys:  # every object's row is empty
        counts[b""] += len(columns["p"])
    elif isinstance(next(iter(counts), b""), tuple):
        counts.update(zip(*values))
    else:
        each = [*map(iter, values)]
        try:
            counts.update(map(struct.Struct(f"{len(keys)}B").pack, *each))
        except struct.error:  # update keeps the rows before the one pack refused
            failed = min(map(len, values)) - sum(1 for _ in zip(*each)) - 1
            rekeyed = _keyed(counts, keys)
            counts.clear()
            counts.update(rekeyed)
            counts.update(itertools.islice(zip(*values), failed, None))


def _keyed(counts: Counter, keys: Keys) -> Counter:
    """The count map {value tuple: count} of what _count counted: a plain
    value as its 1-tuple, a bytes row as the tuple of its ints."""
    if len(keys) != 1 and isinstance(next(iter(counts), ()), tuple):
        return counts
    return Counter({(v,) if len(keys) == 1 else tuple(v): c for v, c in counts.items()})


def count_rows(perms: Iterable[Word], names: Keys) -> Counter:
    """The named statistics' values over perms, any words of distinct
    letters, as _count counts them. Every rmaj:r named is read off one
    rawlings profile per word, cut at the largest r: O(n r) per word."""
    for name in names:  # Columns would also read other keys, and rmaj:0 as rmaj:n
        stats.resolve_statistic(name)
    top = max((int(name[5:]) for name in names if name.startswith("rmaj:")), default=None)
    plan = functools.cache(lambda key, size: _plan(key, size, top, None))
    counts: Counter = Counter()
    for chunk in _chunks(perms):
        _count(counts, Columns(chunk, {}, plan), names)
    return counts


def joint_distribution(perms: Iterable[Word], names) -> Counter:
    """The joint distribution of the named statistics over perms: the
    Counter {value tuple: count} of count_rows (0 at a value tuple that
    never occurs)."""
    names = tuple(names)
    return _keyed(count_rows(perms, names), names)


def distributions_equal(a: dict, b: dict) -> tuple[bool, tuple | None]:
    """Compare count maps; on divergence return the smallest differing value
    (a value tuple, for a joint distribution) with both counts."""
    differ = [v for v in a.keys() | b.keys() if a.get(v, 0) != b.get(v, 0)]
    if not differ:
        return True, None
    value = min(differ)
    return False, (value, a.get(value, 0), b.get(value, 0))


# -- claims -----------------------------------------------------------------------

class Pointwise(NamedTuple):
    """holds is true on every row of each size from n_min to n_max, in the
    table over names: "" the objects, "p" the pairs (w, k), "fl" or "gl" the
    triples (Columns.pairs, triples). holds is a key, an int, or (op,
    *args), op mapped at C level over its arguments' values on all the
    table's rows, compiled once and called once per table. The witness is
    the first failing row: the first object in enumeration order (lemma
    words shortest first), then its smallest letters; shown lists its
    fields, each a key or keys."""

    label: str
    suite: str
    holds: tuple
    shown: tuple
    over: str = ""
    n_min: int = 0
    n_max: int | None = None
    n_range: str | None = None

    def failure(self, columns: Columns) -> tuple | None:
        """(object, witness) of the table's first failing row, or None."""
        failing = map(not_, _compiled(self.holds)(columns))
        if (i := next(itertools.compress(itertools.count(), failing), None)) is None:
            return None
        return columns.origin[i], {
            field: tuple(columns[k][i] for k in keys) if isinstance(keys, tuple)
            else columns[keys][i] for field, keys in self.shown}


class Tallied(NamedTuple):
    """A claim decided at the end of each size from n_min: conclude(n, counts)
    returns the witness, or None, from the count maps of tallies(n). A tally
    is a tuple of keys; its count map counts their value tuples over the
    permutations of one size (those its test keeps, for a filtered key)."""

    label: str
    suite: str
    tallies: Callable[[int], tuple]
    conclude: Callable[[int, dict], object]
    n_min: int = 0


class Involution(NamedTuple):
    """psi(psi(p)) = p on every permutation of each size from n_min, decided
    in one pass over the ranks in Memo.psi when the size ends. The witness
    is the first failing permutation in enumeration order."""

    label: str
    suite: str
    n_min: int = 0


@functools.cache
def _compiled(expr) -> Callable:
    """A Pointwise expression as a function of a table: its values on the
    table's rows. One function per expression, so the cache holds the
    sub-expressions of CLAIMS."""
    if isinstance(expr, str):
        return itemgetter(expr)
    if isinstance(expr, int):
        return lambda columns: itertools.repeat(expr, len(columns["p"]))
    op, args = expr[0], [_compiled(arg) for arg in expr[1:]]
    return lambda columns: map(op, *[a(columns) for a in args])


def _equidistributed(label, suite, base: Keys, sides, tag=None, n_min=0) -> Tallied:
    """base has the joint distribution of every side on each S_n. sides(n)
    lists (name, keys) in the order checked; when tag is set, the witness
    names the first differing side under that field."""

    def tallies(n):
        return base, *(keys for _, keys in sides(n))

    def conclude(n, counts):
        for name, keys in sides(n):
            equal, diff = distributions_equal(counts[base], counts[keys])
            if not equal:
                tagged = {} if tag is None else {tag: name}
                return {"n": n, **tagged, "value": diff[0], "counts": [diff[1], diff[2]]}
        return None

    return Tallied(label, suite, tallies, conclude, n_min)


def _pair(label: str, suite: str, base: Keys, other: Keys) -> Tallied:
    return _equidistributed(label, suite, base, lambda n: ((None, other),))


def _equal(label: str, suite: str, lhs: Keys, rhs: Keys, n_min=0, show=False) -> Pointwise:
    """lhs = rhs, key by key, on every permutation of each size from n_min;
    with show the witness gives both sides' values."""
    holds = functools.reduce(lambda a, b: (and_, a, b), [(eq, *ab) for ab in zip(lhs, rhs)])
    shown = ("perm", "p"), *((("lhs", lhs), ("rhs", rhs)) if show else ())
    return Pointwise(label, suite, holds, shown, n_min=n_min)


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


_AVOID_321 = ("avoider321",)
_AVOID_312 = ("avoider312",)
_PSI_OF_AVOID_321 = ("avoider321.psi",)


def _catalan_sizes(n: int, counts: dict):
    sizes, catalan = [len(counts[k]) for k in (_AVOID_321, _AVOID_312)], _catalan(n)
    return None if sizes == [catalan] * 2 else {"n": n, "sizes": sizes, "catalan": catalan}


def _psi_onto(n: int, counts: dict):
    image, target = counts[_PSI_OF_AVOID_321].keys(), counts[_AVOID_312].keys()
    missing = [p for p, in sorted(target - image)[:3]]
    return None if image == target else {"n": n, "missing": missing}


_WORDS = f"words len<={LEMMA_MAX_LEN} on {_ALPHABET_TEXT}, k<={_LETTERS[-1]}"
_SIGMAS = f"sigma len<={_SIGMA_MAX_LEN} on {_ALPHABET_TEXT}, k,l<={_LETTERS[-1]}"


def _insertion_lemmas(ins: str, fixstat: str, eulstat: str) -> tuple[Pointwise, ...]:
    """Descent-count monotonicity and lemmas 4, 5, 6 for the insertion map
    ins ("f" or "g"): how (eulstat, fixstat) moves as letters are inserted."""
    tag, suite, over = f"{ins} ({fixstat}, {eulstat})", f"lemmas-{ins}", "p"
    e, f = eulstat, fixstat
    qe, qf = f"{ins}k.{e}", f"{ins}k.{f}"  # of q = ins(k, p)
    te, tf = f"{ins}l.{qe}", f"{ins}l.{qf}"  # of ins(k, ins(l, p))
    word = ("k", "k"), ("word", "p")
    return (
        Pointwise(f"monotonicity {tag}", suite, (ge, qe, e), word, over, n_range=_WORDS),
        Pointwise(f"lemma4 {tag}", suite,
                  (and_, (eq, (eq, qe, e), (eq, qf, (add, f, 1))), (eq, (gt, qe, e), (eq, qf, 0))),
                  (*word, ("before", (e, f)), ("after", (qe, qf))), over, n_range=_WORDS),
        Pointwise(f"lemma5 {tag}", suite, (le, (eq, f, 0), (and_, (eq, qe, e), (eq, qf, 1))),
                  (*word, ("after", (qe, qf))), over, n_range=_WORDS),
        Pointwise(f"lemma6 {tag}", suite, (le, (eq, tf, 0), (eq, te, (add, qe, 1))),
                  (("k", "k"), ("l", "l"), ("sigma", "p")), f"{ins}l",
                  n_max=_SIGMA_MAX_LEN, n_range=_SIGMAS),
    )


_THEOREM1 = ("phi.ini", "phi.aix", "phi.des", "phi.aid"), ("ini", "pix", "lec", "inv")
_TRIPLE = ("pix,lec,inv", ("pix", "lec", "inv")), ("aix,des,aid", ("aix", "des", "aid"))

CLAIMS = (
    *(_pair(f"eulerian des~{s}", "classic", ("des",), (s,)) for s in ("exc", "lec", "das")),
    *(_pair(f"mahonian inv~{s}", "classic", ("inv",), (s,)) for s in ("maj", "aid", "mix")),
    _equidistributed(
        "mahonian inv~rmaj:r (all r)", "classic", ("inv",),
        lambda n: [(r, (f"rmaj:{r}",)) for r in range(1, n + 1)], tag="r", n_min=1,
    ),
    _equal("theorem1 (ini,aix,des,aid) phi = (ini,pix,lec,inv)", "theorem1", *_THEOREM1,
           n_min=1, show=True),
    _equal("lemma1 ini phi = ini", "theorem1", ("phi.ini",), ("ini",), n_min=1),
    _equal("lemma3 aid phi = inv", "theorem1", ("phi.aid",), ("inv",)),
    _equidistributed("triple (fix,exc,maj)~(pix,lec,inv)~(aix,des,aid)", "theorem1",
                     ("fix", "exc", "maj"), lambda n: _TRIPLE, tag="tuple"),
    Pointwise("lemma2 aid f(k,t) = aid t + |t<k|", "lemmas-f",  # |t<k|: k's place in sorted(t)
              (eq, "fk.aid", (add, "aid", (bisect_left, (sorted, "p"), "k"))),
              (("k", "k"), ("word", "p")), "p", n_range=_WORDS),
    *_insertion_lemmas("f", "aix", "des"),
    *_insertion_lemmas("g", "pix", "lec"),
    Involution("psi involution", "psi"),
    _equal("psi theorem (das,mix) psi = (des,inv)", "psi", ("psi.das", "psi.mix"),
           ("des", "inv"), n_min=1),
    _equal("psi swaps mix and inv", "psi", ("psi.mix", "psi.inv"), ("inv", "mix"), n_min=1),
    _equal("psi preserves left-to-right maxima", "psi", ("psi.lrmax",), ("lrmax",)),
    _equal("rmaj:1 = maj", "rawlings", ("rmaj:1",), ("maj",)),
    _equal("rmaj:n = inv", "rawlings", ("rmaj:n",), ("inv",), n_min=1),
    _equal("|Inv_2| = ides", "rawlings", ("|Inv_2|",), ("ides",)),
    _pair("(ides,rmaj:2)~(exc,maj)", "rawlings", ("ides", "rmaj:2"), ("exc", "maj")),
    Tallied("avoidance classes have Catalan size", "kratt",
            lambda n: (_AVOID_321, _AVOID_312), _catalan_sizes),
    Tallied("psi maps 321-avoiders onto 312-avoiders", "kratt",
            lambda n: (_PSI_OF_AVOID_321, _AVOID_312), _psi_onto),
)


SUITES = tuple(dict.fromkeys(c.suite for c in CLAIMS))


def _run(claims, n_max: int, objects: Callable[[int], Iterable[Word]], spent: dict,
         words: WordMemo | None = None) -> dict:
    """Check claims on the objects of sizes 0..n_max, enumerating those of
    each size once, in the order objects(n) yields them, in chunks whose
    tables every claim reads, as the run's plans say: one _plan per key and
    size, made afresh in each run. A chunk holds as many objects as keep
    its widest table to CHUNK rows. A claim is checked from its n_min, and
    up to its own n_max where it has one. spent gathers the columns' costs.
    Returns claim -> (witness, checked), checked counting the objects
    examined up to the witness, or all of them. Joint distributions stream
    into per-n count maps, one per distinct tally. Over S_n a Memo per n
    holds every registry statistic a claim reads that fits it, and psi's
    ranks; over the lemma words, words is the run's WordMemo. Only the
    memos, the plans and the count maps outlive a chunk."""
    found = {c: (None, 0) for c in claims}
    plan = functools.cache(lambda key, size: _plan(key, size, None, words))
    for n in range(n_max + 1):
        plan.cache_clear()  # no later size reads this size's plans
        live = [c for c in claims if found[c][0] is None and c.n_min <= n
                and (getattr(c, "n_max", None) is None or n <= c.n_max)]
        checks = [c for c in live if isinstance(c, Pointwise)]
        counts = {t: Counter() for c in live if isinstance(c, Tallied) for t in c.tallies(n)}
        involution = any(isinstance(c, Involution) for c in live)
        memo, size = Memo(n) if words is None else None, 0
        free = len(_LETTERS) - n  # a lemma word's pairs; a triple's k has one fewer
        rows = max([1] + [free if c.over == "p" else free * (free - 1) for c in checks if c.over])
        for chunk in _chunks(objects(n) if live else (), rows):
            tables = {"": Columns(chunk, spent, plan, memo, size)}
            if involution:
                tables[""].store_psi()
            for c in checks:
                failed = c.failure(_table(tables, c.over))
                if failed:
                    found[c] = (failed[1], found[c][1] + size + failed[0] + 1)
            checks = [c for c in checks if found[c][0] is None]
            for keys, tally in counts.items():
                _count(tally, tables[""], keys)
            size += len(chunk)
            if not checks and not counts and not involution:
                break
        tables = None  # the last chunk's, which no conclusion reads
        counts = {keys: _keyed(tally, keys) for keys, tally in counts.items()}
        for c in (c for c in live if found[c][0] is None):
            witness, examined = None, size
            if isinstance(c, Tallied):
                witness = c.conclude(n, counts)
            elif isinstance(c, Involution):
                start = time.perf_counter()
                i = next((i for i, j in enumerate(memo.psi) if j < 0 or memo.psi[j] != i), None)
                _charge(spent, "psi.psi", 0, start)
                if i is not None:
                    witness, examined = {"perm": next(itertools.islice(objects(n), i, None))}, i + 1
            found[c] = (witness, found[c][1] + examined)
    return found


def verify_suite(n_max: int, suite: str = "all") -> dict:
    """Run one named suite (or all of them) and return a structured report.

    Failures are data, not exceptions: each claim carries status pass/fail,
    the number of permutations or words it examined, and, on failure, a
    counterexample payload. A claim that examined nothing fails.
    """
    if suite != "all" and suite not in SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    _check_size(n_max)
    start = time.perf_counter()
    claims = [c for c in CLAIMS if suite in ("all", c.suite)]
    spent: dict[str, tuple] = {}
    lemmas = [c for c in claims if getattr(c, "over", "")]  # the claims that insert letters
    found = _run([c for c in claims if c not in lemmas], n_max, all_permutations, spent)
    found |= _run(lemmas, LEMMA_MAX_LEN, _words, spent, WordMemo() if lemmas else None)
    claims = [
        {"claim": c.label, "status": "pass" if witness is None and checked > 0 else "fail",
         "n_range": getattr(c, "n_range", None) or f"n<={n_max}",
         "checked": checked, "witness": json.loads(json.dumps(witness))}
        for c in claims
        for witness, checked in [found[c]]
    ]
    return {
        "schema": 3,
        "suite": suite,
        "n_max": n_max,
        "cap": size_cap(),
        "python": sys.version.split()[0],
        "seconds": round(time.perf_counter() - start, 3),
        "passed": all(c["status"] == "pass" for c in claims),
        "claims": claims,
        "values": {k: {"objects": m, "seconds": round(s, 4)} for k, (m, s) in spent.items()},
    }

