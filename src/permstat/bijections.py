"""The recursive insertion map f, the bijection phi, the involution psi,
and pattern-avoidance predicates.

f inserts a new letter k into a word t of distinct letters (k not in t),
always producing a word that starts with k. phi folds f over a permutation
from its rightmost letter to its leftmost. psi mirrors the values of a chain
of subwords determined by the left-to-right maxima.

f runs on the min-rooted Cartesian tree of t = alpha m beta (Vuillemin,
1980): m, the least letter, at the root, the trees of alpha and beta as its
children. Each rule is O(1) surgery at the node it reaches, so phi, folding
every letter into one tree, costs O(rule steps): about n^2/4 on the
decreasing word of size n, linear on most words. phi_inverse builds the tree
once, by a monotone-stack pass (Gabow, Bentley & Tarjan, 1984), and reverses
the surgery, peeling the leftmost letter each time. The tuple form of f
(split at the minimum, rebuild the tail) is the tests' oracle.

psi composes the chain's mirrors into one relabeling of values over sorted
chain sets built in one pass from the right: O(n log n) plus the total size
of the sets. Rebuilding the word per set is the tests' oracle.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

from .core import Word
# bench/tracing.py patches these names until ROADMAP item 1 retargets it
from .core import complement_subword_on, split_at_min  # noqa: F401
from .errors import InvariantViolation, LetterCollision, UnknownPattern


#: the rules fired by one insertion, in order: "a" or "b" steps, then one
#: closing "c", "d" or "base"
InsertionTrace = tuple[str, ...]

# A tree over the nodes 1..n is two lists: val[v] is the letter of node v,
# and kids[2v], kids[2v + 1] are its left and right children (0 for none).
# Node 0 lies below every letter and its right child kids[1] is the root, so
# a slot s (the place kids[s] that holds a subtree) covers the root too.
_BELOW = float("-inf")


def _tree(w: Word) -> tuple[list, list[int]]:
    """The tree of w, node v at position v, by one monotone-stack pass."""
    val = [_BELOW, *w]
    kids = [0] * (2 * len(val))
    spine = [0]  # the right spine so far: letters increase towards its end
    for v, x in enumerate(w, 1):
        if val[spine[-1]] > x:  # the spine's larger end becomes v's left subtree
            last = spine.pop()
            while val[spine[-1]] > x:
                last = spine.pop()
            kids[2 * v] = last
        kids[2 * spine[-1] + 1] = v
        spine.append(v)
    return val, kids


def _insert(val: list, kids: list[int], v: int) -> InsertionTrace:
    """Insert the childless node v, holding k = val[v], by the rules of f.
    At the node m in slot s: d puts v there with the subtree as its right
    child; b moves beta to m's empty left, a leaves alpha there, and both go
    on in that slot; c makes v m's left child and alpha its right; base puts
    v in an empty slot.
    """
    k = val[v]
    steps = []
    s = 1
    while True:
        m = kids[s]
        if not m:
            steps.append("base")
            kids[s] = v
            break
        if k < val[m]:
            steps.append("d")
            kids[2 * v + 1] = m
            kids[s] = v
            break
        s = 2 * m
        alpha, beta = kids[s], kids[s + 1]
        if not alpha:
            steps.append("b")
            kids[s], kids[s + 1] = beta, 0
        elif beta:
            steps.append("a")
        else:
            steps.append("c")
            kids[s], kids[s + 1] = v, alpha
            break
    return tuple(steps)


def _uninsert(kids: list[int]) -> int:
    """Reverse the insertion that made the leftmost node; detach and return it.

    The rules a and b both went on in the left slot, so the insertion's path
    is the left spine, and the node m in slot s tells which rule it fired.
    """
    s = 1
    while True:
        m = kids[s]
        alpha, beta = kids[2 * m], kids[2 * m + 1]
        if not alpha:  # rule d, or base: m is the inserted node
            kids[s] = beta
            return m
        if not beta:  # rule b: q = f(k, beta) m, t = m beta; go on in m's right
            kids[2 * m], kids[2 * m + 1] = 0, alpha
            s = 2 * m + 1
        elif kids[2 * alpha] or kids[2 * alpha + 1]:  # rule a
            s = 2 * m
        else:  # rule c: m's left is the leaf k, t = alpha m
            kids[2 * m], kids[2 * m + 1] = beta, 0
            return alpha


def _word(val: list, kids: list[int]) -> Word:
    """The tree's word, by one iterative in-order walk."""
    out = []
    path = []
    v = kids[1]
    while True:
        while v:
            path.append(v)
            v = kids[2 * v]
        if not path:
            return tuple(out)
        v = path.pop()
        out.append(val[v])
        v = kids[2 * v + 1]


def f_insert(k: int, t: Word) -> tuple[Word, InsertionTrace]:
    """Insert k into t; the result always starts with k.

    With m the minimum of t's letters together with k, and t = alpha m beta
    (alpha the maximal m-free prefix):
      rule d: k = m            -> k t
      rule b: k > m, alpha = 0 -> f(k, beta) m
      rule a: k > m, both nonempty -> f(k, alpha) m beta
      rule c: k > m, beta = 0  -> k m alpha
    Rules b and c overlap when t is the single letter m; both yield k m, and
    b is the one recorded in the trace.
    """
    if k in t:
        raise LetterCollision(k)
    val, kids = _tree(t)
    val.append(k)
    kids += (0, 0)
    trace = _insert(val, kids, len(t) + 1)
    return _word(val, kids), trace


def f_uninsert(q: Word) -> tuple[int, Word]:
    """Recover (k, t) from q = f_insert(k, t). Inverse of one insertion."""
    if not q:
        raise InvariantViolation("cannot un-insert from the empty word")
    val, kids = _tree(q)
    k = val[_uninsert(kids)]
    return k, _word(val, kids)


def phi_with_traces(p: Word) -> tuple[Word, tuple[InsertionTrace, ...]]:
    """Fold f over p from its rightmost letter to its leftmost, on one tree
    whose node v is the v-th letter inserted; return phi(p) and the trace of
    every insertion, the leftmost letter's last."""
    if len(set(p)) < len(p):  # the letter f, inserting from the right, finds present
        raise LetterCollision(next(k for i, k in reversed(list(enumerate(p))) if k in p[i + 1:]))
    val = [_BELOW, *reversed(p)]
    kids = [0] * (2 * len(val))
    traces = tuple([_insert(val, kids, v) for v in range(1, len(val))])
    return _word(val, kids), traces


def phi(p: Word) -> Word:
    """The bijection phi: phi_with_traces without the traces."""
    return phi_with_traces(p)[0]


def phi_inverse(q: Word) -> Word:
    """The unique p with phi(p) = q, by peeling one insertion at a time."""
    val, kids = _tree(q)
    return tuple([val[_uninsert(kids)] for _ in q])


def _chain(p: Word) -> Iterator[list[int]]:
    """The letter sets of the psi chain, each sorted, in application order.

    With m_1 < ... < m_k the left-to-right maxima of p and B_i the letters
    smaller than m_i to its right, the chain is B_k, B_k & B_{k-1}, B_{k-1},
    ..., B_2 & B_1, B_1. B_i is B_{i+1} with the letters between m_i and
    m_{i+1} merged in, cut at m_i; every letter of B_i lies right of
    m_{i-1}, so B_i & B_{i-1} is B_i cut at m_{i-1}.
    """
    if len(set(p)) < len(p):
        seen: set[int] = set()
        raise LetterCollision(next(x for x in p if x in seen or seen.add(x)))
    maxima, segments = [], []  # segments[i]: the letters between m_i and m_{i+1}
    top, segment = 0, []  # letters are >= 1, so the first one is a maximum
    for x in p:
        if x > top:
            top = x
            maxima.append(x)
            segment = []
            segments.append(segment)
        else:
            segment.append(x)
    below: list[int] = []
    for i in range(len(maxima) - 1, -1, -1):
        if segments[i]:
            below = sorted(below + segments[i])
        below = below[:bisect_left(below, maxima[i])]
        yield below
        if i:
            yield below[:bisect_left(below, maxima[i - 1])]


def psi_chain(p: Word) -> tuple[frozenset[int], ...]:
    """The letter sets of the psi chain, in application order (first applied first)."""
    return tuple(map(frozenset, _chain(p)))


def psi(p: Word) -> Word:
    """The subword-flipping involution; fixes the left-to-right maxima.

    Each chain factor flips the subword on its letter set by the value
    mirror (i-th smallest letter of the set <-> i-th largest, in place).
    The positional-reversal reading of the factors breaks the transfer of
    the descent-flavored statistic for some permutations with two maxima;
    the value mirror satisfies every contract, so it is the one used.

    The mirrors compose to one relabeling: where[v] is the letter of p
    holding the value v now, and each sorted set reverses where on itself.
    Cost: O(n log n) plus the total size of the chain sets, quadratic only
    when many maxima share large sets.
    """
    where: dict[int, int] = {}
    for letters in _chain(p):
        if len(letters) > 1:  # a set of one letter mirrors onto itself
            held = [*map(where.get, letters, letters)]
            held.reverse()
            where.update(zip(letters, held))
    value = {x: v for v, x in where.items()}
    return tuple(map(value.get, p, p))


def avoids(p: Word, pattern) -> bool:
    """True iff no index triple i < j < k realizes the pattern's relative order.
    321: the letters other than left-to-right maxima increase. 312: a stack
    pass from the right keeps the least letter with a smaller one to its left."""
    if str(pattern) == "321":
        top = low = float("-inf")  # the largest letter, the largest non-maximum
        for x in p:
            if x > top:
                top = x
            elif x < low:
                return False
            else:
                low = x
        return True
    if str(pattern) == "312":
        stack, low = [], float("inf")  # letters seen, increasing leftwards
        for x in reversed(p):
            if x > low:
                return False
            while stack and stack[-1] > x:
                low = stack.pop()
            stack.append(x)
        return True
    raise UnknownPattern(f"unsupported pattern {pattern!r}")
