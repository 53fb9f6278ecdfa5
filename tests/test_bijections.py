import itertools
import random

import pytest
from helpers import all_perms, words_on
from hypothesis import given, settings
from hypothesis import strategies as hyp

from permstat import bijections, equidist, stats
from permstat.core import (
    complement_subword_on,
    left_to_right_maxima,
    split_at_min,
)
from permstat.errors import EmptyWord, LetterCollision, PermstatError
from test_stats import identity


distinct_words = hyp.lists(
    hyp.integers(min_value=1, max_value=9), max_size=6, unique=True
).map(tuple)

# distinct words of up to 300 letters, the size drawn first; the letters are
# truly shuffled, so a word contains both patterns early on and has_pattern
# stops early (on a long sorted word it would scan every triple)
long_words = hyp.builds(
    lambda n, rnd: tuple(rnd.sample(range(1, 10**6), n)),
    hyp.integers(min_value=0, max_value=300),
    hyp.randoms(use_true_random=True),
)


# distinct words of up to 300 letters drawn from 1..10^9, so a structure
# indexed by letter value would not fit
sparse_words = hyp.builds(
    lambda n, rnd: tuple(rnd.sample(range(1, 10**9), n)),
    hyp.integers(min_value=0, max_value=300),
    hyp.randoms(use_true_random=True),
)
long_permutations = hyp.integers(min_value=0, max_value=300).flatmap(
    lambda n: hyp.permutations(range(1, n + 1))
).map(tuple)


def sawtooth(n):
    """1..n as decreasing blocks of sizes 1, 2, 3, ...: 1 32 654 (10)987 ..."""
    word, top, size = [], 0, 1
    while top < n:
        word += range(min(n, top + size), top, -1)
        top, size = top + size, size + 1
    return tuple(word)


def phi_of_decreasing(n):
    """phi(n..1) for n >= 1: n, then n - 1 if n is even, then the pairs
    (j, j + 1) downwards to (1, 2)."""
    head = (n,) if n % 2 else (n, n - 1)
    return (*head, *(x for j in range(n - len(head) - 1, 0, -2) for x in (j, j + 1)))


# -- the tuple form of f: the oracle for the tree in bijections ---------------

def oracle_f_insert(k, t):
    """f_insert by the rules on words: split at the minimum, rebuild the tail."""
    if k in t:
        raise LetterCollision(k)
    steps = []
    tail = ()
    while True:
        if not t:
            steps.append("base")
            out = (k,)
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


def oracle_f_uninsert(q):
    """f_uninsert on words: peel the rules a and b around the minimum."""
    k = q[0]
    head = []
    tail = ()
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


def oracle_phi_with_traces(p, insert=oracle_f_insert):
    """f folded over p one letter at a time; each insertion starts afresh
    from the whole word (or from the root of a fresh tree, with insert
    bijections.f_insert) and skips no rule-a step."""
    out = ()
    traces = []
    for k in reversed(p):
        out, trace = insert(k, out)
        traces.append(trace)
    return out, tuple(traces)


def oracle_phi_inverse(q):
    letters = []
    while q:
        k, q = oracle_f_uninsert(q)
        letters.append(k)
    return tuple(letters)


# -- psi as a fold of subword mirrors: the oracle for the relabeling ---------

def oracle_psi_chain(p):
    """The chain B_k, B_k & B_{k-1}, B_{k-1}, ..., B_1, each B_i built from p
    as the letters smaller than and to the right of the i-th maximum."""
    lrm = left_to_right_maxima(p)
    b_sets = [frozenset(x for x in p[pos:] if x < val)
              for pos, val in zip(lrm.positions, lrm.values)]
    chain = []
    for i in range(len(b_sets) - 1, -1, -1):
        chain.append(b_sets[i])
        if i > 0:
            chain.append(b_sets[i] & b_sets[i - 1])
    return tuple(chain)


def oracle_psi(p):
    """Mirror the subword on each chain set in turn, rebuilding the word."""
    for letters in oracle_psi_chain(p):
        p = complement_subword_on(p, letters)
    return p


def has_pattern(word, pat):
    """True iff some three letters of word, in order, are order-isomorphic to pat."""
    return any(
        tuple(sorted(vals).index(v) + 1 for v in vals) == pat
        for vals in itertools.combinations(word, 3)
    )


def merge_of_two_increasing(rnd, n):
    """A 321-avoider: letters 1..n split into two increasing runs, interleaved."""
    first = sorted(rnd.sample(range(1, n + 1), rnd.randint(0, n)))
    second = sorted(set(range(1, n + 1)) - set(first))
    out = []
    while first or second:
        run = first if first and (not second or rnd.random() < 0.5) else second
        out.append(run.pop(0))
    return tuple(out)


def min_split(rnd, letters):
    """A 312-avoider: w = alpha m beta with m the minimum and alpha < beta,
    both built the same way."""
    if not letters:
        return ()
    cut = rnd.randint(1, len(letters))
    return min_split(rnd, letters[1:cut]) + letters[:1] + min_split(rnd, letters[cut:])


class TestFInsert:
    def test_empty(self):
        word, trace = bijections.f_insert(3, ())
        assert word == (3,)
        assert trace == ("base",)

    def test_rule_d(self):
        word, trace = bijections.f_insert(1, (2, 3))
        assert word == (1, 2, 3)
        assert trace == ("d",)

    def test_rule_b(self):
        word, trace = bijections.f_insert(3, (1, 2))
        assert word == (3, 2, 1)
        assert trace == ("b", "b", "base")

    def test_rule_c(self):
        word, trace = bijections.f_insert(4, (2, 1))
        assert word == (4, 1, 2)
        assert trace == ("c",)

    def test_rule_a(self):
        word, trace = bijections.f_insert(5, (3, 1, 4))
        # alpha=(3,), m=1, beta=(4,): f(5,(3,)) 1 4 = 5 3 1 4
        assert word == (5, 3, 1, 4)
        assert trace[0] == "a"

    def test_collision(self):
        with pytest.raises(LetterCollision):
            bijections.f_insert(2, (2, 3))

    @pytest.mark.parametrize("k, t", [(1, (2, 2)), (3, (2, 1, 2))])
    def test_repeated_letter_in_t(self, k, t):
        with pytest.raises(LetterCollision) as info:
            bijections.f_insert(k, t)
        assert info.value.letter == 2

    def test_output_starts_with_k_and_trace_shape(self):
        for t in words_on(range(1, 8), 4):
            for k in range(1, 8):
                if k in t:
                    continue
                word, trace = bijections.f_insert(k, t)
                assert word[0] == k
                assert sorted(word) == sorted(t + (k,))
                assert trace[-1] in ("c", "d", "base")
                assert all(rule in ("a", "b") for rule in trace[:-1])

    def test_uninsert_round_trip(self):
        for t in words_on(range(1, 8), 4):
            for k in range(1, 8):
                if k in t:
                    continue
                word, _ = bijections.f_insert(k, t)
                assert bijections.f_uninsert(word) == (k, t)

    def test_uninsert_empty(self):
        with pytest.raises(EmptyWord):
            bijections.f_uninsert(())


class TestPhi:
    def test_examples(self):
        assert bijections.phi(()) == ()
        assert bijections.phi((1,)) == (1,)
        assert bijections.phi((2, 1)) == (2, 1)
        assert bijections.phi((3, 1, 2)) == (3, 2, 1)

    def test_theorem_quadruple(self):
        names = ("ini", "aix", "des", "aid")
        targets = ("ini", "pix", "lec", "inv")
        for n in range(1, 8):
            for p in all_perms(n):
                left = stats.stat_vector(bijections.phi(p), names)
                right = stats.stat_vector(p, targets)
                assert tuple(v for _, v in left) == tuple(v for _, v in right)

    def test_bijective_on_sn(self):
        for n in range(7):
            images = {bijections.phi(p) for p in all_perms(n)}
            assert len(images) == len(list(all_perms(n)))
            assert all(sorted(q) == list(range(1, n + 1)) for q in images)

    def test_inverse_round_trips(self):
        for n in range(7):
            for p in all_perms(n):
                q = bijections.phi(p)
                assert bijections.phi_inverse(q) == p
                assert bijections.phi(bijections.phi_inverse(p)) == p

    def test_inverse_of_a_long_word_within_the_recursion_limit(self):
        # peeling rules a and b once recursed once per step: 2000 levels here
        w = tuple(range(2000, 0, -1))
        pre = bijections.phi_inverse(w)
        assert pre == (2000, *range(1, 2000))
        assert bijections.phi(pre) == w

    def test_forward_table_oracle(self):
        # phi_inverse agrees with inverting an independently built table
        n = 6
        table = {bijections.phi(p): p for p in all_perms(n)}
        for q, p in table.items():
            assert bijections.phi_inverse(q) == p

    def test_repeated_letter(self):
        # inserting from the right, f meets the second 1 first
        with pytest.raises(LetterCollision, match="letter 1 "):
            bijections.phi((3, 1, 2, 1, 3))

    def test_inverses_reject_a_repeated_letter(self):
        # the tree would read a repeated letter as a larger one
        cases = [(bijections.phi_inverse, (2, 2)), (bijections.phi_inverse, (1, 4, 2, 4)),
                 (bijections.f_uninsert, (3, 1, 3)), (bijections.f_uninsert, (5, 5, 1))]
        for fn, w in cases:
            with pytest.raises(LetterCollision) as err:
                fn(w)
            assert w.count(err.value.letter) > 1

    def test_traces_cover_every_letter(self):
        p = (2, 5, 8, 9, 6, 3, 7, 1, 4)
        image, traces = bijections.phi_with_traces(p)
        assert image == bijections.phi(p)
        assert len(traces) == len(p)


class TestTreeAgainstTupleOracle:
    """f_insert, f_uninsert, phi_with_traces and phi_inverse run on a
    Cartesian tree; the tuple form of the rules must give the same words and
    traces."""

    def test_all_permutations(self):
        for n in range(8):
            for p in all_perms(n):
                assert bijections.phi_with_traces(p) == oracle_phi_with_traces(p)
                assert bijections.phi_inverse(p) == oracle_phi_inverse(p)
                if p:
                    assert bijections.f_uninsert(p) == oracle_f_uninsert(p)

    def test_lemma_pairs(self):
        # every (k, w) the lemma claims insert: w a lemma word, k in 1..8 outside w
        for w in words_on(equidist.LEMMA_ALPHABET, equidist.LEMMA_MAX_LEN):
            for k in range(1, 9):
                if k in w:
                    continue
                q, trace = bijections.f_insert(k, w)
                assert (q, trace) == oracle_f_insert(k, w)
                assert bijections.f_uninsert(q) == oracle_f_uninsert(q) == (k, w)

    @settings(deadline=None, max_examples=30)
    @given(sparse_words, hyp.integers(min_value=1, max_value=10**9))
    def test_sparse_words(self, w, k):
        assert bijections.phi_with_traces(w) == oracle_phi_with_traces(w)
        assert bijections.phi(w) == bijections.phi_with_traces(w)[0]
        assert bijections.phi_inverse(w) == oracle_phi_inverse(w)
        if k not in w:
            assert bijections.f_insert(k, w) == oracle_f_insert(k, w)

    @settings(deadline=None, max_examples=30)
    @given(long_permutations)
    def test_long_permutations(self, p):
        assert bijections.phi_with_traces(p) == oracle_phi_with_traces(p)
        assert bijections.phi_inverse(p) == oracle_phi_inverse(p)

    def test_a_trace_is_the_surgery_that_ran(self, monkeypatch):
        # _insert stores 1 where f_insert(6, 3524) asks for 6: the trace is
        # rule d at the root 2, not the rules that inserting 6 would fire
        real = bijections._insert

        def planted(val, kids, first, *rest):
            if val[first:] == [6]:
                val[first] = 1
            real(val, kids, first, *rest)

        monkeypatch.setattr(bijections, "_insert", planted)
        assert bijections.f_insert(6, (3, 5, 2, 4)) == ((1, 3, 5, 2, 4), ("d",))

    def test_huge_letters(self):
        assert bijections.f_insert(2, (1, 10**9)) == ((2, 10**9, 1), ("b", "d"))
        assert bijections.f_uninsert((2, 10**9, 1)) == (2, (1, 10**9))

    def test_random_word_of_size_100000_round_trips(self):
        rnd = random.Random(7)
        w = tuple(rnd.sample(range(1, 10**9), 100_000))
        assert bijections.phi_inverse(bijections.phi(w)) == w

    def test_decreasing_word_of_size_2000_round_trips(self):
        # about n^2/4 rule-a steps, each skipped: the walks of phi take 2n
        # steps in all and those of phi_inverse 2.5n
        w = tuple(range(2000, 0, -1))
        assert bijections.phi_inverse(bijections.phi(w)) == w


class TestSkippedRuleA:
    """phi and phi_with_traces run one fold, which skips the rule-a steps an
    insertion shares with the one before it. Its images and traces must
    equal those of f_insert folded letter by letter, which skips none, and
    the traces the oracle's (test_sparse_words above checks the same on
    random words)."""

    def test_sawtooth_words(self):
        # and the decreasing words, where every insertion after the first
        # shares a rule-a run with the one before it
        for n in range(0, 300, 7):
            for w in (sawtooth(n), sawtooth(n)[::-1], tuple(range(n, 0, -1))):
                traced = bijections.phi_with_traces(w)
                assert bijections.phi(w) == traced[0]
                assert traced == oracle_phi_with_traces(w, bijections.f_insert)
                if n <= 60:
                    assert traced == oracle_phi_with_traces(w)

    def test_decreasing_closed_form(self):
        assert phi_of_decreasing(8) == (8, 7, 5, 6, 3, 4, 1, 2)
        assert phi_of_decreasing(7) == (7, 5, 6, 3, 4, 1, 2)
        for n in range(1, 13):
            w = tuple(range(n, 0, -1))
            image = oracle_phi_with_traces(w)[0]
            assert image == phi_of_decreasing(n)
            assert bijections.phi(w) == bijections.phi_with_traces(w)[0] == image

    def test_decreasing_word_of_size_100000(self):
        # the walks take 2n steps in all (phi_inverse: 2.5n), where a fold
        # that skips no rule-a step walks about n^2/4
        w = tuple(range(100_000, 0, -1))
        image = bijections.phi(w)
        assert image == phi_of_decreasing(100_000)
        assert bijections.phi_inverse(image) == w


class TestInsertionLemmas:
    """The word-level identities behind the theorem, checked directly."""

    def test_aid_increment(self):
        for t in words_on(range(1, 8), 4):
            for k in range(1, 8):
                if k in t:
                    continue
                q, _ = bijections.f_insert(k, t)
                assert stats.aid(q) == stats.aid(t) + sum(x < k for x in t)

    def test_descent_and_aix_transitions(self):
        for t in words_on(range(1, 8), 4):
            dt, at = stats.des(t), stats.aix(t)
            for k in range(1, 8):
                if k in t:
                    continue
                q, _ = bijections.f_insert(k, t)
                dq, aq = stats.des(q), stats.aix(q)
                assert dq >= dt
                assert (dq == dt) == (aq == at + 1)
                assert (dq > dt) == (aq == 0)
                if at == 0:
                    assert aq == 1 and dq == dt


class TestPsi:
    def test_examples(self):
        assert bijections.psi(()) == ()
        assert bijections.psi(identity(5)) == identity(5)
        assert bijections.psi((3, 2, 1)) == (3, 1, 2)
        assert bijections.psi((3, 1, 2)) == (3, 2, 1)

    def test_chain_sets(self):
        # p = 3 1 2: maxima values (3,); B_1 = {1, 2}; chain = (B_1,)
        assert bijections.psi_chain((3, 1, 2)) == (frozenset({1, 2}),)
        # p = 2 1 3: maxima 2 and 3; B for 3 is empty, B for 2 is {1}
        assert bijections.psi_chain((2, 1, 3)) == (
            frozenset(),
            frozenset(),
            frozenset({1}),
        )

    def test_involution(self):
        for n in range(8):
            for p in all_perms(n):
                assert bijections.psi(bijections.psi(p)) == p

    def test_statistic_transfer(self):
        for n in range(1, 8):
            for p in all_perms(n):
                q = bijections.psi(p)
                assert stats.das(q) == stats.des(p)
                assert stats.mix(q) == stats.inv(p)
                assert stats.inv(q) == stats.mix(p)

    def test_preserves_left_to_right_maxima(self):
        for n in range(1, 8):
            for p in all_perms(n):
                assert left_to_right_maxima(bijections.psi(p)) == left_to_right_maxima(p)

    def test_repeated_letter(self):
        for w in ((2, 1, 1), (1, 1), (3, 1, 3, 2)):
            for fn in (bijections.psi, bijections.psi_chain):
                with pytest.raises(LetterCollision) as err:
                    fn(w)
                assert w.count(err.value.letter) > 1


# distinct words of up to 8 letters, most of them <= 0
nonpositive_words = hyp.lists(
    hyp.integers(min_value=-20, max_value=3), max_size=8, unique=True
).map(tuple)


class TestPsiOnLettersBelowOne:
    """psi commutes with standardization: on a word of distinct integers it
    is psi of the order-isomorphic permutation, relabeled back."""

    def test_examples(self):
        assert bijections.psi((0, -1, -2)) == (0, -2, -1)
        assert bijections.psi_chain((0, -1, -2)) == (frozenset({-2, -1}),)
        assert bijections.psi((-2, -5, 0, -4, 3)) == (-2, -4, 0, -5, 3)

    @given(nonpositive_words)
    def test_standardization_oracle(self, w):
        letters = sorted(w)
        p = tuple(letters.index(x) + 1 for x in w)
        assert bijections.psi(w) == tuple(letters[x - 1] for x in bijections.psi(p))
        assert bijections.psi_chain(w) == tuple(
            frozenset(letters[x - 1] for x in s) for s in bijections.psi_chain(p))


class TestPsiAgainstOracle:
    """psi relabels values over the sorted chain sets; folding the subword
    mirror over the frozenset chain must give the same chain and image."""

    def test_all_permutations(self):
        for n in range(9):
            for p in all_perms(n):
                assert bijections.psi_chain(p) == oracle_psi_chain(p)
                assert bijections.psi(p) == oracle_psi(p)

    @settings(deadline=None, max_examples=30)
    @given(sparse_words)
    def test_sparse_words(self, w):
        assert bijections.psi_chain(w) == oracle_psi_chain(w)
        assert bijections.psi(w) == oracle_psi(w)


class TestPsiOnVeryLongWords:
    """Closed forms of psi on long words. The increasing 10^5-word has
    2 * 10^5 - 1 chain sets: rebuilding the word per set would not finish."""

    def test_increasing_word_is_fixed(self):
        w = identity(100_000)
        assert bijections.psi(w) == w

    def test_decreasing_word(self):
        # one maximum n, one set {1..n-1} mirrored in place
        n = 20_000
        assert bijections.psi(tuple(range(n, 0, -1))) == (n, *range(1, n))

    def test_maxima_sharing_one_large_set(self):
        # every one of the 2m - 1 chain sets is {1..m}: the quadratic case
        m = 1000
        w = (*range(m + 1, 2 * m + 1), *range(1, m + 1))
        assert bijections.psi_chain(w) == (frozenset(range(1, m + 1)),) * (2 * m - 1)
        assert bijections.psi(w) == (*range(m + 1, 2 * m + 1), *range(m, 0, -1))

    def test_random_word_of_size_100000_is_an_involution(self):
        w = tuple(random.Random(11).sample(range(1, 10**9), 100_000))
        assert bijections.psi(bijections.psi(w)) == w


class TestAvoidance:
    def test_examples(self):
        assert bijections.avoids((1, 2, 3), 321)
        assert not bijections.avoids((3, 2, 1), 321)
        assert bijections.avoids((3, 2, 1), 312)
        assert not bijections.avoids((3, 1, 2), 312)
        assert bijections.avoids((), 321)

    def test_string_and_int_patterns_agree(self):
        for p in all_perms(4):
            assert bijections.avoids(p, 321) == bijections.avoids(p, "321")

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            bijections.avoids((1, 2), 123)

    def test_unknown_pattern_is_a_permstat_error(self):
        with pytest.raises(PermstatError, match="unsupported pattern 123"):
            bijections.avoids((1, 2), 123)

    def test_catalan_counts(self):
        catalan = [1, 1, 2, 5, 14, 42, 132, 429]
        for n in range(8):
            a321 = sum(1 for p in all_perms(n) if bijections.avoids(p, 321))
            a312 = sum(1 for p in all_perms(n) if bijections.avoids(p, 312))
            assert a321 == a312 == catalan[n]

    def test_psi_maps_321_onto_312(self):
        for n in range(8):
            avoid321 = {p for p in all_perms(n) if bijections.avoids(p, 321)}
            avoid312 = {p for p in all_perms(n) if bijections.avoids(p, 312)}
            assert {bijections.psi(p) for p in avoid321} == avoid312

    @given(distinct_words)
    def test_avoids_matches_subsequence_search(self, w):
        assert bijections.avoids(w, 321) == (not has_pattern(w, (3, 2, 1)))
        assert bijections.avoids(w, 312) == (not has_pattern(w, (3, 1, 2)))

    def test_all_permutations_match_subsequence_search(self):
        for n in range(8):
            for p in all_perms(n):
                assert bijections.avoids(p, 321) == (not has_pattern(p, (3, 2, 1)))
                assert bijections.avoids(p, 312) == (not has_pattern(p, (3, 1, 2)))

    @settings(deadline=None, max_examples=30)
    @given(long_words)
    def test_long_words_match_subsequence_search(self, w):
        assert bijections.avoids(w, 321) == (not has_pattern(w, (3, 2, 1)))
        assert bijections.avoids(w, 312) == (not has_pattern(w, (3, 1, 2)))

    @settings(deadline=None, max_examples=30)
    @given(hyp.integers(min_value=0, max_value=300), hyp.randoms(use_true_random=True))
    def test_long_avoiders(self, n, rnd):
        # random long words almost never avoid a pattern; these do by construction
        assert bijections.avoids(merge_of_two_increasing(rnd, n), 321)
        assert bijections.avoids(min_split(rnd, tuple(range(1, n + 1))), 312)
