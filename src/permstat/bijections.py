"""The recursive insertion map f, the bijection phi, the involution psi,
and pattern-avoidance predicates.

f inserts a new letter k into a word t of distinct letters, giving a word
that starts with k; phi folds f over a permutation from its rightmost letter
to its leftmost. f runs on the min-rooted Cartesian tree of t (Vuillemin,
1980), one O(1) surgery per rule step; phi_inverse builds the tree by a
monotone-stack pass (Gabow, Bentley & Tarjan, 1984) and reverses the
surgery. Rule a changes nothing, so a walk of phi or phi_inverse starts
where the rule-a steps of the walk before it end: phi finds by one
bisection how many of them the next letter shares. On the decreasing word
the walks of phi take 2n steps in all, not about n^2/4. The surgery
records the rules it fires when asked: phi_with_traces is phi's own fold,
and f_insert one step of it on the tree of t. psi
composes the mirrors of a chain of letter sets, read off the left-to-right
maxima, into one relabeling. The tests keep the tuple forms.
"""
from __future__ import annotations

from bisect import bisect_left

from .core import BELOW, Word
# bench/tracing.py patches these names until ROADMAP item 1 retargets it
from .core import complement_subword_on, split_at_min  # noqa: F401
from .errors import EmptyWord, LetterCollision, UnknownPattern


# A tree over the nodes 1..n is two lists: val[v] is the letter of node v,
# and kids[2v], kids[2v + 1] are its left and right children (0 for none).
# Node 0 lies below every letter and its right child kids[1] is the root, so
# a slot s (the place kids[s] that holds a subtree) covers the root too.


def _distinct(w: Word) -> None:
    """Raise LetterCollision on the first letter, read from the right, seen twice."""
    if len(set(w)) < len(w):
        seen: set[int] = set()
        raise LetterCollision(next(x for x in reversed(w) if x in seen or seen.add(x)))


def _tree(w: Word) -> tuple[list, list[int]]:
    """The tree of w, node v at position v, by one monotone-stack pass."""
    val = [BELOW, *w]
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


def _insert(val: list, kids: list[int], first: int, traces: list | None = None) -> None:
    """Insert the childless nodes first, first + 1, ... in turn, each v
    holding k = val[v], by the rules of f. At the node m in slot s: d puts v
    there with the subtree as its right child; b moves beta to m's empty
    left, a leaves alpha there, and both go on in that slot; c makes v m's
    left child and alpha its right; base puts v in an empty slot.

    run holds the nodes of the last walk's rule-a prefix (see phi). The walk
    of k drops those above k, starts in the left slot of the last one left
    (at the root if none is), and appends its own rule-a nodes up to its
    first other step. With traces, each insertion appends to it the rules
    it fired, the nodes left in run counting as its leading "a"s.
    """
    run: list[int] = []
    for v in range(first, len(val)):
        k = val[v]
        if run and k < val[run[-1]]:
            del run[bisect_left(run, k, key=val.__getitem__):]
        s = 2 * run[-1] if run else 1
        grow = True
        rules = None if traces is None else ["a"] * len(run)
        while True:
            m = kids[s]
            if not m:
                rule = "base"
                kids[s] = v
                break
            if k < val[m]:
                rule = "d"
                kids[2 * v + 1] = m
                kids[s] = v
                break
            s = 2 * m
            alpha, beta = kids[s], kids[s + 1]
            if not alpha:
                rule = "b"
                kids[s], kids[s + 1] = beta, 0
                grow = False
            elif beta:
                rule = "a"
                if grow:
                    run.append(m)
            else:
                rule = "c"
                kids[s], kids[s + 1] = v, alpha
                break
            if rules is not None:
                rules.append(rule)
        if rules is not None:
            traces.append((*rules, rule))


def _uninsert(kids: list[int], count: int) -> list[int]:
    """Reverse the insertion that made the leftmost node, count times over;
    detach those nodes and return them in that order.

    The rules a and b both went on in the left slot, so the insertion's path
    is the left spine, and the node m in slot s tells which rule it fired.
    run holds the nodes of the last walk's rule-a prefix: a walk changes
    nothing above its last one but that node's left child, so the next
    walk starts again at that node and appends its own rule-a nodes up to
    its first other step.
    """
    out = []
    run: list[int] = []
    for _ in range(count):
        if run:
            run.pop()
        s = 2 * run[-1] if run else 1
        grow = True
        while True:
            m = kids[s]
            alpha, beta = kids[2 * m], kids[2 * m + 1]
            if not alpha:  # rule d, or base: m is the inserted node
                kids[s] = beta
                out.append(m)
                break
            if not beta:  # rule b: q = f(k, beta) m, t = m beta; go on in m's right
                kids[2 * m], kids[2 * m + 1] = 0, alpha
                s = 2 * m + 1
                grow = False
            elif kids[2 * alpha] or kids[2 * alpha + 1]:  # rule a
                s = 2 * m
                if grow:
                    run.append(m)
            else:  # rule c: m's left is the leaf k, t = alpha m
                kids[2 * m], kids[2 * m + 1] = beta, 0
                out.append(alpha)
                break
    return out


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


def f_insert(k: int, t: Word) -> tuple[Word, tuple[str, ...]]:
    """Insert k into t; the result always starts with k.

    With m the minimum of t's letters together with k, and t = alpha m beta
    (alpha the maximal m-free prefix):
      rule d: k = m            -> k t
      rule b: k > m, alpha = 0 -> f(k, beta) m
      rule a: k > m, both nonempty -> f(k, alpha) m beta
      rule c: k > m, beta = 0  -> k m alpha
    Rules b and c overlap when t is the single letter m; both yield k m, and
    b is the one recorded in the trace.

    The image and the rules are those of the surgery that phi folds, run
    once on the tree of t.
    """
    if k in t:
        raise LetterCollision(k)
    _distinct(t)
    val, kids = _tree(t)
    val.append(k)
    kids += (0, 0)
    traces: list[tuple[str, ...]] = []
    _insert(val, kids, len(t) + 1, traces)
    return _word(val, kids), traces[0]


def f_uninsert(q: Word) -> tuple[int, Word]:
    """Recover (k, t) from q = f_insert(k, t). Inverse of one insertion."""
    if not q:
        raise EmptyWord("cannot un-insert from the empty word")
    _distinct(q)
    val, kids = _tree(q)
    [v] = _uninsert(kids, 1)
    return val[v], _word(val, kids)


def phi_with_traces(p: Word) -> tuple[Word, tuple[tuple[str, ...], ...]]:
    """phi(p) and the rules of each insertion, the leftmost letter's last:
    "a" or "b" steps, then one closing "c", "d" or "base", as phi's fold
    records them."""
    _distinct(p)
    val = [BELOW, *reversed(p)]
    kids = [0] * (2 * len(val))
    traces: list[tuple[str, ...]] = []
    _insert(val, kids, 1, traces)
    return _word(val, kids), tuple(traces)


def phi(p: Word) -> Word:
    """The bijection phi: f folded over p, rightmost letter first, into one
    tree (node v the v-th letter inserted), recording no trace.

    Rule a changes nothing, and the rest of a walk happens below the nodes
    where it fired, so the rule-a prefix of one walk is still in place for
    the next letter k. Its letters increase, as the left spine of a
    min-rooted tree holds the prefix minima, so k fires rule a on those
    below k, one bisection finds the first one above k, and rule d there
    cuts the run. The walks then take 2n steps in all on n..1 (and no
    bisection), where they took about n^2/4 rule-a steps.
    """
    _distinct(p)
    val = [BELOW, *reversed(p)]
    kids = [0] * (2 * len(val))
    _insert(val, kids, 1)
    return _word(val, kids)


def phi_inverse(q: Word) -> Word:
    """The unique p with phi(p) = q, by peeling one insertion at a time."""
    _distinct(q)
    val, kids = _tree(q)
    return tuple([val[v] for v in _uninsert(kids, len(q))])


def _chain(p: Word) -> list[list[int]]:
    """The letter sets of the psi chain, each sorted, in application order.
    With m_1 < ... < m_k the left-to-right maxima of p and B_i the letters
    smaller than m_i to its right, the chain is B_k, B_k & B_{k-1}, B_{k-1},
    ..., B_2 & B_1, B_1. Every letter of B_i lies right of m_{i-1}, so
    B_i & B_{i-1} is B_i cut at m_{i-1}, a prefix of B_i; merging in the
    letters between m_{i-1} and m_i gives B_{i-1}.
    """
    _distinct(p)
    maxima, segments = [], []  # segments[i]: the letters between m_i and m_{i+1}
    top, segment = p[0] - 1 if p else 0, []  # below the first letter, which is a maximum
    for x in p:
        if x > top:
            top = x
            maxima.append(x)
            segments.append(segment := [])
        else:
            segment.append(x)
    chain, below = [], []
    for i in range(len(maxima) - 1, -1, -1):
        if segments[i]:
            below = below + segments[i]
            below.sort()
        chain.append(below)
        if i:
            below = below[:bisect_left(below, maxima[i - 1])]
            chain.append(below)
    return chain


def psi_chain(p: Word) -> tuple[frozenset[int], ...]:
    """The letter sets of the psi chain, in application order (first applied first)."""
    return tuple(map(frozenset, _chain(p)))


def psi(p: Word) -> Word:
    """The subword-flipping involution; fixes the left-to-right maxima.
    Each chain factor mirrors the values on its letter set (i-th smallest
    <-> i-th largest, in place); mirroring positions instead breaks the
    descent transfer for some permutations with two maxima. A set B_i and
    its prefix B_i & B_{i-1} of b letters are one step rho on B_i: its top
    b values move to the bottom b, the rest reverse into the top. sigma[y]
    is the value the letter y ends as. It is composed from the outermost
    factor B_1 inwards, sigma[y] = sigma[rho(y)] for y in B_i, so no inverse
    map is built. Cost: O(n log n) plus the total size of the chain sets.
    """
    chain = _chain(p)
    sigma: dict[int, int] = {}
    for letters, prefix in zip(chain[::-2], [[], *chain[-2::-2]]):
        if len(prefix) < len(letters) > 1:  # else the mirrors cancel, or one letter stays
            source = letters[len(prefix):][::-1] + prefix  # rho(y) for each y of letters
            sigma.update(zip(letters, [*map(sigma.get, source, source)]))
    return tuple(map(sigma.get, p, p))


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
