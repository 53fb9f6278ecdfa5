"""Exhaustive enumeration, joint distributions, and the verification suites.

Every theorem of the library is checked here by brute force at desk scale:
permutation claims over S_n for n up to a cap (default 8 in the suites,
hard cap 10 unless PERMSTAT_NMAX raises it), word-level lemmas over all
distinct words of bounded length on a small alphabet.

Every claim is a record in CLAIMS. One engine runs them, once over
S_0..S_n and once over the lemma words: for each size it enumerates the
objects once and feeds every selected claim from a table of the current
object's values, each computed on first use.
"""
from __future__ import annotations

import itertools
import os
import sys
import time
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from . import bijections, stats
from .core import Word, left_to_right_maxima, restrict_below
from .errors import InvalidSize, SizeCapExceeded, WordNotPermutation

DEFAULT_CAP = 10

#: bounded domain for the word-level lemma suites
LEMMA_ALPHABET = range(1, 8)
LEMMA_MAX_LEN = 5
LEMMA_MAX_K = 8
_LETTERS = range(1, LEMMA_MAX_K + 1)  # the letters a lemma inserts


def size_cap() -> int:
    raw = os.environ.get("PERMSTAT_NMAX")
    if raw is None:
        return DEFAULT_CAP
    if not raw.strip().isdecimal():
        raise InvalidSize(f"PERMSTAT_NMAX={raw!r} is not a non-negative integer")
    return int(raw)


def _check_size(n: int) -> None:
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
    """All distinct words of length <= max_len over subsets of the lemma
    alphabet, shortest first."""
    return itertools.chain.from_iterable(map(_words, range(max_len + 1)))


# -- values and joint distributions ------------------------------------------------

Keys = tuple[str, ...]

#: values a key can name besides the registry statistics and rmaj:r
_DERIVED = {
    "phi": lambda w: bijections.phi(w),
    "psi": lambda w: bijections.psi(w),
    "avoids321": lambda w: bijections.avoids(w, "321"),
    "avoids312": lambda w: bijections.avoids(w, "312"),
    "rmaj": lambda w: stats.rawlings(w),
    "|Inv_2|": lambda w: len(stats.inv_set_r(w, 2)),
    "lrmax": left_to_right_maxima,
    **{f"f{k}": lambda w, k=k: bijections.f_insert(k, w)[0] for k in _LETTERS},
    **{f"g{k}": lambda w, k=k: (k,) + w for k in _LETTERS},
    "free": lambda w: [k for k in _LETTERS if k not in w],
}


class Values(dict):
    """The values the claims read for one permutation or word p, each
    computed once, on first use.

    A key names a value of p ("inv", "psi", "rmaj:2", "f3" is f(3, p), "g3"
    is the word 3 p, "free" lists the letters of _LETTERS outside p), or of
    an image of p ("phi.aid" is aid(phi(p)), "f5.f3.des" is
    des(f(3, f(5, p)))); "p" is p itself. Statistics and maps are looked up
    on their modules at call time, so a patched function sees every call.
    """

    def __missing__(self, key: str):
        image, _, name = key.rpartition(".")
        w = self[image or "p"]
        if name in _DERIVED:
            value = _DERIVED[name](w)
        elif name.startswith("rmaj:"):  # read off the profile (rmaj:1, ..., rmaj:n)
            r = len(w) if name == "rmaj:n" else int(name[5:])
            try:
                value = self[key.rpartition(":")[0]][min(r, len(w)) - 1] if w else 0
            except WordNotPermutation:  # the profile names the family, not rmaj:r
                raise WordNotPermutation(name) from None
        else:
            value = getattr(stats, name)(w)
        self[key] = value
        return value


def joint_distribution(perms: Iterable[Word], names) -> dict[tuple, int]:
    """The joint distribution of the named statistics over perms, any words
    of distinct letters: a count map {value tuple: count}."""
    names = tuple(names)
    for name in names:  # Values would also read other keys, and rmaj:0 as rmaj:n
        stats.resolve_statistic(name)
    counts: dict[tuple, int] = {}
    for p in perms:
        value = tuple(map(Values(p=p).__getitem__, names))
        counts[value] = counts.get(value, 0) + 1
    return counts


def distributions_equal(a: dict, b: dict) -> tuple[bool, tuple | None]:
    """Compare count maps; on divergence return the smallest differing value
    (a value tuple, for a joint distribution) with both counts."""
    differ = [v for v in a.keys() | b.keys() if a.get(v, 0) != b.get(v, 0)]
    if not differ:
        return True, None
    value = min(differ)
    return False, (value, a.get(value, 0), b.get(value, 0))


# -- claims -----------------------------------------------------------------------

#: the values of some keys over the permutations of one size, counted, either
#: over all of them (None) or over those where a key's value is true
Tally = tuple[Keys, "str | None"]


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
    returns the witness, or None, from the count maps of tallies(n)."""

    label: str
    suite: str
    tallies: Callable[[int], tuple[Tally, ...]]
    conclude: Callable[[int, dict], object]
    n_min: int = 0


_WORDS = "words len<=5 on {1..7}, k<=8"
_SIGMAS = "sigma len<=4 on {1..7}, k,l<=8"


class Lemma(NamedTuple):
    """fails(v, k) is falsy for every lemma word of length <= n_max and
    every letter k of _LETTERS outside it, v holding the word's values;
    otherwise it is the witness. The witness is the first failing word in
    lemma_words() order, then its smallest failing k."""

    label: str
    suite: str
    fails: Callable[[Values, int], object]
    n_range: str = _WORDS
    n_max: int = LEMMA_MAX_LEN
    n_min = 0  # not a field: every lemma starts at the empty word


def _equidistributed(label, suite, base: Keys, sides, tag=None, n_min=0) -> Tallied:
    """base has the joint distribution of every side on each S_n. sides(n)
    lists (name, keys) in the order checked; when tag is set, the witness
    names the first differing side under that field."""

    def tallies(n):
        return tuple((keys, None) for keys in (base, *(keys for _, keys in sides(n))))

    def conclude(n, counts):
        for name, keys in sides(n):
            equal, diff = distributions_equal(counts[base, None], counts[keys, None])
            if not equal:
                tagged = {} if tag is None else {tag: name}
                value = diff[0] if len(keys) > 1 else (diff[0],)  # one key is counted bare
                return {"n": n, **tagged, "value": value, "counts": [diff[1], diff[2]]}
        return None

    return Tallied(label, suite, tallies, conclude, n_min)


def _pair(label: str, suite: str, base: Keys, other: Keys) -> Tallied:
    return _equidistributed(label, suite, base, lambda n: ((None, other),))


def _catalan(n: int) -> int:
    out = 1
    for i in range(n):
        out = out * 2 * (2 * i + 1) // (i + 2)
    return out


_AVOID_321: Tally = (("p",), "avoids321")
_AVOID_312: Tally = (("p",), "avoids312")
_PSI_OF_AVOID_321: Tally = (("psi",), "avoids321")


def _catalan_sizes(n: int, counts: dict):
    sizes = [len(counts[_AVOID_321]), len(counts[_AVOID_312])]
    if sizes == [_catalan(n)] * 2:
        return None
    return {"n": n, "sizes": sizes, "catalan": _catalan(n)}


def _psi_onto(n: int, counts: dict):
    image, target = set(counts[_PSI_OF_AVOID_321]), set(counts[_AVOID_312])
    return None if image == target else {"n": n, "missing": sorted(target - image)[:3]}


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
        Lemma(f"lemma6 {tag}", suite, lemma6, n_range=_SIGMAS, n_max=LEMMA_MAX_LEN - 1),
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


def _check(c: Pointwise | Lemma) -> Callable[[Values], object]:
    """v -> c's witness on the object whose values v holds, or a falsy value."""
    if isinstance(c, Lemma):
        def fails(v):
            for k in v["free"]:
                witness = c.fails(v, k)
                if witness:
                    return witness
            return None

        return fails
    lhs, rhs = itemgetter(*c.lhs), itemgetter(*c.rhs)
    if c.show_values:
        return lambda v: lhs(v) != rhs(v) and {"perm": v["p"], "lhs": lhs(v), "rhs": rhs(v)}
    return lambda v: lhs(v) != rhs(v) and {"perm": v["p"]}


def _run(claims, n_max: int, objects: Callable[[int], Iterable[Word]]) -> dict:
    """Check claims on the objects of sizes 0..n_max, enumerating those of
    each size once, in the order objects(n) yields them. A claim is checked
    from its n_min, and up to its own n_max where it has one.

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
        counts = {tally: {} for c in live if isinstance(c, Tallied) for tally in c.tallies(n)}
        feeds = [(itemgetter(*keys), where, tally) for (keys, where), tally in counts.items()]
        size = 0
        for p in objects(n) if live else ():
            size += 1
            v = Values(p=p)
            for check in checks:
                c, fails = check
                witness = fails(v)
                if witness:
                    found[c] = (witness, found[c][1] + size)
                    checks = [x for x in checks if x is not check]
            for get, where, tally in feeds:
                if where is None or v[where]:
                    value = get(v)
                    tally[value] = tally.get(value, 0) + 1
            if not checks and not feeds:
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
    if suite == "all":
        names = SUITES
    elif suite in SUITES:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    start = time.perf_counter()
    claims = [c for c in CLAIMS if c.suite in names]
    found = _run([c for c in claims if not isinstance(c, Lemma)], n_max, all_permutations)
    found |= _run([c for c in claims if isinstance(c, Lemma)], LEMMA_MAX_LEN, _words)
    claims = [
        {"claim": c.label, "status": "pass" if witness is None and checked > 0 else "fail",
         "n_range": getattr(c, "n_range", f"n<={n_max}"),
         "checked": checked, "witness": _jsonable(witness)}
        for c in claims
        for witness, checked in [found[c]]
    ]
    return {
        "schema": 2,
        "suite": suite,
        "n_max": n_max,
        "cap": size_cap(),
        "python": sys.version.split()[0],
        "seconds": round(time.perf_counter() - start, 3),
        "passed": all(c["status"] == "pass" for c in claims),
        "claims": claims,
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj
