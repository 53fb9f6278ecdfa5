"""Exhaustive enumeration, joint distributions, and the verification suites.

Every theorem of the library is checked here by brute force at desk scale:
permutation claims over S_n for n up to a cap (default 8 in the suites,
hard cap 10 unless PERMSTAT_NMAX raises it), word-level lemmas over all
distinct words of bounded length on a small alphabet.

Every claim is a record in CLAIMS. One engine runs them, once over
S_0..S_n and once over the lemma words: for each size it enumerates the
objects once, in chunks, and feeds every selected claim from columns of
the chunk's values, each computed on first use.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import sys
import time
from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from . import bijections, stats
from .core import Word, left_to_right_maxima, restrict_below
from .errors import InvalidSize, SizeCapExceeded, UnknownSuite, WordNotPermutation

DEFAULT_CAP = 10

#: bounded domain for the word-level lemma suites
LEMMA_ALPHABET = range(1, 8)
LEMMA_MAX_LEN = 5
_LETTERS = range(1, 9)  # the letters a lemma inserts


def size_cap() -> int:
    raw = os.environ.get("PERMSTAT_NMAX", str(DEFAULT_CAP))
    if not raw.strip().isdecimal():
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


def lemma_words(max_len: int = LEMMA_MAX_LEN) -> Iterator[Word]:
    """All distinct words of length <= max_len on the lemma alphabet, shortest first."""
    return itertools.chain.from_iterable(map(_words, range(max_len + 1)))


# -- value columns and joint distributions ----------------------------------------

Keys = tuple[str, ...]

#: objects per column table; a chunk's columns are all the engine holds
CHUNK = 32


def _inv2(p: Word) -> int:
    """|Inv_2|, the inversions (i, j) with p(i) = p(j) + 1: the letters x
    with x + 1 to their left."""
    seen: set[int] = set()
    count = 0
    for x in p:
        count += x + 1 in seen
        seen.add(x)
    return count


#: values a key can name besides rmaj:r and the functions of stats and bijections
_DERIVED = {
    "avoider321": lambda w: w if bijections.avoids(w, "321") else None,
    "avoider312": lambda w: w if bijections.avoids(w, "312") else None,
    "|Inv_2|": _inv2,
    "lrmax": left_to_right_maxima,
    **{f"f{k}": lambda w, k=k: None if k in w else bijections.f_insert(k, w)[0] for k in _LETTERS},
    **{f"g{k}": lambda w, k=k: None if k in w else (k,) + w for k in _LETTERS},
    "free": lambda w: [k for k in _LETTERS if k not in w],
}


class Columns(dict):
    """The values the claims read over a chunk of objects: per key a list,
    row i for object i, computed on first use. "p" is the chunk itself.

    A key names a value of w ("inv", "psi", "rmaj:2", "f3" is f(3, w), "g3"
    is 3 w, "free" lists the letters of _LETTERS outside w, "avoider321" is
    w if it avoids 321) or of an image ("phi.aid" is aid(phi(w)),
    "f5.f3.des" is des(f(3, f(5, w)))). f{k} and g{k} are None where w has
    k, avoider321 and avoider312 where w has the pattern, and so is every
    image of that row. The functions are looked up on their modules once per
    column, so a patched one sees every call. spent maps each key to
    (objects, seconds).
    """

    def __init__(self, objects: list, spent: dict):
        super().__init__(p=objects)
        self.spent = spent

    def __missing__(self, key: str) -> list:
        image, _, name = key.rpartition(".")
        if name.startswith("rmaj:"):  # read off the profile rawlings(w) = (rmaj:1, ..., rmaj:n)
            r = sys.maxsize if name == "rmaj:n" else int(name[5:])
            image = key[:-len(name)] + "rawlings"
            fn = lambda profile: profile[min(r, len(profile)) - 1] if profile else 0  # noqa: E731
        else:
            fn = _DERIVED.get(name) or getattr(stats, name, None) or getattr(bijections, name)
        try:
            words = self[image or "p"]
        except WordNotPermutation:  # a profile names the family, not rmaj:r
            raise WordNotPermutation(name) from None
        holes = words.count(None)
        start = time.perf_counter()
        column = [None if w is None else fn(w) for w in words] if holes else list(map(fn, words))
        objects, seconds = self.spent.get(key, (0, 0.0))
        self.spent[key] = objects + len(words) - holes, seconds + time.perf_counter() - start
        self[key] = column
        return column


class Row:
    """Row i of a column table, read by key."""

    def __init__(self, columns: Columns, i: int = 0):
        self.columns, self.i = columns, i

    def __getitem__(self, key: str):
        return self.columns[key][self.i]


def _chunks(objects: Iterable[Word]) -> Iterator[list]:
    stream = iter(objects)
    return iter(lambda: list(itertools.islice(stream, CHUNK)), [])


def joint_distribution(perms: Iterable[Word], names) -> dict[tuple, int]:
    """The joint distribution of the named statistics over perms, any words
    of distinct letters: a count map {value tuple: count}."""
    names = tuple(names)
    for name in names:  # Columns would also read other keys, and rmaj:0 as rmaj:n
        stats.resolve_statistic(name)
    counts: Counter = Counter()
    for chunk in _chunks(perms):
        columns = Columns(chunk, {})
        counts.update(zip(*map(columns.__getitem__, names)) if names else [()] * len(chunk))
    return dict(counts)


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
    """lhs = rhs on every permutation of each size from n_min. The witness is
    the first failing permutation in enumeration order, which is the
    lexicographically smallest at the smallest failing size."""

    label: str
    suite: str
    lhs: Keys
    rhs: Keys
    n_min: int = 0
    show_values: bool = False


class Tallied(NamedTuple):
    """A claim decided at the end of each size from n_min: conclude(n, counts)
    returns the witness, or None, from the count maps of tallies(n). A tally
    is a tuple of keys; its count map counts their value tuples over the
    permutations of one size, with None where a key has a hole."""

    label: str
    suite: str
    tallies: Callable[[int], tuple]
    conclude: Callable[[int, dict], object]
    n_min: int = 0


class Lemma(NamedTuple):
    """fails(v, k) is falsy for every lemma word of length <= n_max and
    every letter k of _LETTERS outside it, v the row of the word's values;
    otherwise it is the witness. The witness is the first failing word in
    lemma_words() order, then its smallest failing k."""

    label: str
    suite: str
    fails: Callable[[Row, int], object]
    n_range: str = "words len<=5 on {1..7}, k<=8"
    n_max: int = LEMMA_MAX_LEN
    n_min = 0  # not a field: every lemma starts at the empty word


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


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


_AVOID_321 = ("avoider321",)
_AVOID_312 = ("avoider312",)
_PSI_OF_AVOID_321 = ("avoider321.psi",)


def _avoiders(counts: dict, tally: Keys) -> set:
    """The values a one-key tally counted, but for the holes."""
    return counts[tally].keys() - {(None,)}


def _catalan_sizes(n: int, counts: dict):
    sizes, catalan = [len(_avoiders(counts, k)) for k in (_AVOID_321, _AVOID_312)], _catalan(n)
    return None if sizes == [catalan] * 2 else {"n": n, "sizes": sizes, "catalan": catalan}


def _psi_onto(n: int, counts: dict):
    image, target = _avoiders(counts, _PSI_OF_AVOID_321), _avoiders(counts, _AVOID_312)
    missing = [p for p, in sorted(target - image)[:3]]
    return None if image == target else {"n": n, "missing": missing}


def _insertion_lemmas(ins: str, fixstat: str, eulstat: str) -> tuple[Lemma, ...]:
    """Descent-count monotonicity and lemmas 4, 5, 6 for the insertion map
    ins ("f" or "g"): how (eulstat, fixstat) moves as letters are inserted."""
    tag, suite = f"{ins} ({fixstat}, {eulstat})", f"lemmas-{ins}"
    before = itemgetter(eulstat, fixstat)
    after = {k: itemgetter(f"{ins}{k}.{eulstat}", f"{ins}{k}.{fixstat}") for k in _LETTERS}

    def monotonicity(v, k):
        return after[k](v)[0] < v[eulstat] and {"k": k, "word": v["p"]}

    def lemma4(v, k):
        (et, ft), (eq, fq) = old, new = before(v), after[k](v)
        return ((eq == et) != (fq == ft + 1) or (eq > et) != (fq == 0)) and {
            "k": k, "word": v["p"], "before": old, "after": new}

    def lemma5(v, k):
        return v[fixstat] == 0 and after[k](v) != (v[eulstat], 1) and {
            "k": k, "word": v["p"], "after": after[k](v)}

    def lemma6(v, l):  # v holds sigma; t = ins(l, sigma), q = ins(k, t)
        t = f"{ins}{l}."
        for k in v[t + "free"]:
            q = f"{t}{ins}{k}."
            if v[q + fixstat] == 0 and v[q + eulstat] != 1 + after[k](v)[0]:
                return {"k": k, "l": l, "sigma": v["p"]}
        return None

    return (
        Lemma(f"monotonicity {tag}", suite, monotonicity),
        Lemma(f"lemma4 {tag}", suite, lemma4),
        Lemma(f"lemma5 {tag}", suite, lemma5),
        Lemma(f"lemma6 {tag}", suite, lemma6, "sigma len<=4 on {1..7}, k,l<=8", 4),
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
    Pointwise("theorem1 (ini,aix,des,aid) phi = (ini,pix,lec,inv)", "theorem1", *_THEOREM1,
              n_min=1, show_values=True),
    Pointwise("lemma1 ini phi = ini", "theorem1", ("phi.ini",), ("ini",), n_min=1),
    Pointwise("lemma3 aid phi = inv", "theorem1", ("phi.aid",), ("inv",)),
    _equidistributed("triple (fix,exc,maj)~(pix,lec,inv)~(aix,des,aid)", "theorem1",
                     ("fix", "exc", "maj"), lambda n: _TRIPLE, tag="tuple"),
    Lemma("lemma2 aid f(k,t) = aid t + |t<k|", "lemmas-f", lambda v, k: (
        v[f"f{k}.aid"] != v["aid"] + len(restrict_below(v["p"], k)) and {"k": k, "word": v["p"]})),
    *_insertion_lemmas("f", "aix", "des"),
    *_insertion_lemmas("g", "pix", "lec"),
    Pointwise("psi involution", "psi", ("psi.psi",), ("p",)),
    Pointwise("psi theorem (das,mix) psi = (des,inv)", "psi", ("psi.das", "psi.mix"),
              ("des", "inv"), n_min=1),
    Pointwise("psi swaps mix and inv", "psi", ("psi.mix", "psi.inv"), ("inv", "mix"), n_min=1),
    Pointwise("psi preserves left-to-right maxima", "psi", ("psi.lrmax",), ("lrmax",)),
    Pointwise("rmaj:1 = maj", "rawlings", ("rmaj:1",), ("maj",)),
    Pointwise("rmaj:n = inv", "rawlings", ("rmaj:n",), ("inv",), n_min=1),
    Pointwise("|Inv_2| = ides", "rawlings", ("|Inv_2|",), ("ides",)),
    _pair("(ides,rmaj:2)~(exc,maj)", "rawlings", ("ides", "rmaj:2"), ("exc", "maj")),
    Tallied("avoidance classes have Catalan size", "kratt",
            lambda n: (_AVOID_321, _AVOID_312), _catalan_sizes),
    Tallied("psi maps 321-avoiders onto 312-avoiders", "kratt",
            lambda n: (_PSI_OF_AVOID_321, _AVOID_312), _psi_onto),
)


SUITES = tuple(dict.fromkeys(c.suite for c in CLAIMS))


def _check(c: Pointwise | Lemma) -> Callable[[Row], object]:
    """row -> c's witness on the row's object, or a falsy value."""
    if isinstance(c, Lemma):
        return lambda row: next(filter(None, (c.fails(row, k) for k in row["free"])), None)
    lhs, rhs = itemgetter(*c.lhs), itemgetter(*c.rhs)
    shown = (lambda row: {"lhs": lhs(row), "rhs": rhs(row)}) if c.show_values else (lambda row: {})
    return lambda row: lhs(row) != rhs(row) and {"perm": row["p"], **shown(row)}


def _run(claims, n_max: int, objects: Callable[[int], Iterable[Word]], spent: dict) -> dict:
    """Check claims on the objects of sizes 0..n_max, enumerating those of
    each size once, in the order objects(n) yields them, in chunks whose
    columns every claim reads. A claim is checked from its n_min, and up to
    its own n_max where it has one. spent gathers the columns' costs.

    Returns claim -> (witness, checked), where checked counts the objects
    examined up to the witness, or all of them. Joint distributions stream
    into per-n count maps, one per distinct tally, so nothing outlives a
    size but those maps.
    """
    found = {c: (None, 0) for c in claims}
    for n in range(n_max + 1):
        live = [c for c in claims
                if found[c][0] is None and c.n_min <= n <= getattr(c, "n_max", n)]
        checks = [(c, _check(c)) for c in live if not isinstance(c, Tallied)]
        counts = {t: Counter() for c in live if isinstance(c, Tallied) for t in c.tallies(n)}
        size = 0
        for chunk in _chunks(objects(n) if live else ()):
            columns = Columns(chunk, spent)
            for c, fails in checks:
                if isinstance(c, Pointwise) and all(
                        columns[a] == columns[b] for a, b in zip(c.lhs, c.rhs)):
                    continue  # holds on the whole chunk, compared column by column
                row = Row(columns)
                for row.i in range(len(chunk)):
                    witness = fails(row)
                    if witness:
                        found[c] = (witness, found[c][1] + size + row.i + 1)
                        break
            checks = [check for check in checks if found[check[0]][0] is None]
            for keys, tally in counts.items():
                tally.update(zip(*map(columns.__getitem__, keys)))
            size += len(chunk)
            if not checks and not counts:
                break
        for c in live:
            if found[c][0] is None:
                witness = c.conclude(n, counts) if isinstance(c, Tallied) else None
                found[c] = (witness, found[c][1] + size)
    return found


def verify_suite(n_max: int, suite: str = "all") -> dict:
    """Run one named suite (or all of them) and return a structured report.

    Failures are data, not exceptions: each claim carries status pass/fail,
    the number of permutations or words it examined, and, on failure, a
    counterexample payload. A claim that examined nothing fails.
    """
    _check_size(n_max)
    if suite != "all" and suite not in SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    start = time.perf_counter()
    claims = [c for c in CLAIMS if suite in ("all", c.suite)]
    spent: dict[str, tuple] = {}
    found = _run([c for c in claims if not isinstance(c, Lemma)], n_max, all_permutations, spent)
    found |= _run([c for c in claims if isinstance(c, Lemma)], LEMMA_MAX_LEN, _words, spent)
    claims = [
        {"claim": c.label, "status": "pass" if witness is None and checked > 0 else "fail",
         "n_range": getattr(c, "n_range", f"n<={n_max}"),
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

