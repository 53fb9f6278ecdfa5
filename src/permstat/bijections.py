"""The recursive insertion map f, the bijection phi, the involution psi,
and pattern-avoidance predicates.

f inserts a new letter k into a word t of distinct letters (k not in t),
always producing a word that starts with k. phi folds f over a permutation
from its rightmost letter to its leftmost. psi mirrors the values of a chain
of subwords determined by the left-to-right maxima.
"""
from __future__ import annotations

from .core import Word, complement_subword_on, left_to_right_maxima, split_at_min
from .errors import InvariantViolation, LetterCollision, UnknownPattern


#: the rules fired by one insertion, in order: "a" or "b" steps, then one
#: closing "c", "d" or "base"
InsertionTrace = tuple[str, ...]


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
    steps: list[str] = []
    # rules a and b recurse on a strict prefix/suffix; accumulate the fixed
    # right parts iteratively instead of recursing.
    tail: Word = ()
    while True:
        if not t:
            steps.append("base")
            out: Word = (k,)
            break
        alpha, m, beta = split_at_min(t)
        if k < m:
            steps.append("d")
            out = (k,) + t
            break
        if not alpha:
            steps.append("b")
            tail = (m,) + tail
            t = beta
        elif beta:
            steps.append("a")
            tail = (m,) + beta + tail
            t = alpha
        else:
            steps.append("c")
            out = (k, m) + alpha
            break
    return out + tail, tuple(steps)


def f_uninsert(q: Word) -> tuple[int, Word]:
    """Recover (k, t) from q = f_insert(k, t). Inverse of one insertion."""
    if not q:
        raise InvariantViolation("cannot un-insert from the empty word")
    k = q[0]
    # rules a and b wrap an insertion into a strict prefix of q; peel those
    # iteratively, keeping the letters each puts before and after the result.
    head: list[int] = []
    tail: Word = ()
    while True:
        m = min(q)
        if k == m:  # rule d, or q = k alone
            middle = q[1:]
            break
        pos = q.index(m) + 1  # 1-based position of the minimum
        if pos == len(q):  # rule b: q = f(k, beta) m, t = m beta
            head.append(m)
            q = q[:-1]
        elif pos == 2:  # rule c: q = k m alpha, alpha nonempty
            middle = q[2:] + (m,)
            break
        else:  # rule a: q = f(k, alpha) m beta, t = alpha m beta
            tail = (m,) + q[pos:] + tail
            q = q[: pos - 1]
    return k, (*head, *middle, *tail)


def phi_with_traces(p: Word) -> tuple[Word, tuple[InsertionTrace, ...]]:
    """Fold f_insert over p from its rightmost letter to its leftmost; return
    phi(p) and the trace of every insertion, the leftmost letter's last."""
    out: Word = ()
    traces: list[InsertionTrace] = []
    for k in reversed(p):
        out, trace = f_insert(k, out)
        traces.append(trace)
    return out, tuple(traces)


def phi(p: Word) -> Word:
    """The bijection phi: phi_with_traces without the traces."""
    return phi_with_traces(p)[0]


def phi_inverse(q: Word) -> Word:
    """The unique p with phi(p) = q, by peeling one insertion at a time."""
    letters: list[int] = []
    while q:
        k, q = f_uninsert(q)
        letters.append(k)
    return tuple(letters)


def psi_chain(p: Word) -> tuple[frozenset[int], ...]:
    """The letter sets of the psi chain, in application order (first applied first).

    With m_1 < ... < m_k the left-to-right maximum values of p and B_i the
    set of letters smaller than and to the right of m_i, the chain applies
    B_k, then B_k & B_{k-1}, B_{k-1}, ..., B_2, B_2 & B_1, B_1. Every set is
    computed once, from p itself.
    """
    lrm = left_to_right_maxima(p)
    b_sets = []
    for pos, val in zip(lrm.positions, lrm.values):
        b_sets.append(frozenset(x for x in p[pos:] if x < val))
    chain: list[frozenset[int]] = []
    for i in range(len(b_sets) - 1, -1, -1):
        chain.append(b_sets[i])
        if i > 0:
            chain.append(b_sets[i] & b_sets[i - 1])
    return tuple(chain)


def psi(p: Word) -> Word:
    """The subword-flipping involution; fixes the left-to-right maxima.

    Each chain factor flips the subword on its letter set by the value
    mirror (i-th smallest letter of the set <-> i-th largest, in place).
    The positional-reversal reading of the factors breaks the transfer of
    the descent-flavored statistic for some permutations with two maxima;
    the value mirror satisfies every contract, so it is the one used.
    """
    out = p
    for letters in psi_chain(p):
        out = complement_subword_on(out, letters)
    return out


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
