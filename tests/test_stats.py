import itertools
from collections import Counter

import pytest
from helpers import all_perms, words_on
from hypothesis import given, settings
from hypothesis import strategies as hyp

from permstat import bijections, equidist, stats
from permstat.core import inverse, is_permutation
from permstat.errors import (
    EmptyWord,
    InvalidR,
    UnknownStatistic,
    WordNotPermutation,
)

PAPER_WORD = (2, 5, 8, 9, 6, 3, 7, 1, 4)


def identity(n):
    return tuple(range(1, n + 1))


# distinct words and permutations of up to 300 letters, the size drawn first
# (a plain list strategy keeps almost every word below 20 letters)
long_words = hyp.builds(
    lambda n, rnd: tuple(rnd.sample(range(1, 10**6), n)),
    hyp.integers(min_value=0, max_value=300),
    hyp.randoms(use_true_random=True),
)
long_permutations = hyp.integers(min_value=0, max_value=300).flatmap(
    lambda n: hyp.permutations(range(1, n + 1))
).map(tuple)


# -- independent oracles: direct transliterations of the definitions ----------

def oracle_inv(w):
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def oracle_des_positions(w):
    return [i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1]]


def oracle_exc(p):
    return sum(1 for i in range(len(p)) if p[i] > i + 1)


def oracle_fix(p):
    return sum(1 for i in range(len(p)) if p[i] == i + 1)


def oracle_inverse(p):
    return tuple(p.index(x) + 1 for x in range(1, len(p) + 1))


def inv_set_r(p, r):
    """Inversions (i, j) with p(i) - p(j) < r: the set definition of the
    inversion part of rawlings."""
    pairs = itertools.combinations(enumerate(p, start=1), 2)
    return {(i, j) for (i, x), (j, y) in pairs if 0 < x - y < r}


def oracle_rmaj(p, r):
    """Descents of gap >= r, summed, plus inversions of gap < r, counted."""
    return sum(i for i in oracle_des_positions(p) if p[i - 1] - p[i] >= r) + sum(
        1 for i, j in itertools.combinations(range(len(p)), 2) if 0 < p[i] - p[j] < r
    )


def oracle_ai(w):
    """Inversions (i, j) with w(j) < w(j+1), or w(j) > w(k) for some i < k < j:
    per j, scan i leftwards keeping the least letter strictly between."""
    n = len(w)
    count = 0
    for j in range(2, n + 1):
        y = w[j - 1]
        clause1 = j < n and y < w[j]
        between = float("inf")
        for i in range(j - 1, 0, -1):
            if w[i - 1] > y and (clause1 or between < y):
                count += 1
            between = min(between, w[i - 1])
    return count


def oracle_aix(w):
    if not w:
        return 0
    m = min(w)
    i = w.index(m)
    alpha, beta = w[:i], w[i + 1:]
    if alpha and beta:
        return oracle_aix(alpha)
    if not alpha:
        return 1 + oracle_aix(beta)
    return 0


def oracle_mix(p):
    n = len(p)
    lr_max = {p[i] for i in range(n) if all(p[k] < p[i] for k in range(i))}
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] > p[j] and p[i] in lr_max:
                count += 1
            if p[i] < p[j] and any(p[k] > p[j] for k in range(i)):
                count += 1
    return count


def oracle_das(p):
    n = len(p)
    lr_max = {p[i] for i in range(n) if all(p[k] < p[i] for k in range(i))}
    count = 0
    for i in range(n - 1):
        if p[i] > p[i + 1] and p[i] in lr_max:
            count += 1
        if p[i] < p[i + 1] and any(p[k] > p[i + 1] for k in range(i)):
            count += 1
    return count


def is_hook(w):
    """h(1) > h(2) <= h(3) <= ... <= h(r), r >= 2."""
    return len(w) >= 2 and w[0] > w[1] and all(a <= b for a, b in zip(w[1:], w[2:]))


def oracle_pix_lec(w):
    """(pix, lec) read off the peeled hook factorization."""
    hf = stats.hook_factorization(w)
    return len(hf.pi0), sum(oracle_inv(h) for h in hf.hooks)


def brute_force_hook_factorizations(w):
    """All splittings of w into a nondecreasing prefix plus hooks."""
    def hooks_of(rest):
        if not rest:
            yield ()
            return
        for cut in range(2, len(rest) + 1):
            h = rest[:cut]
            if is_hook(h):
                for tail in hooks_of(rest[cut:]):
                    yield (h,) + tail

    results = []
    for split in range(len(w) + 1):
        pi0 = w[:split]
        if any(pi0[i] > pi0[i + 1] for i in range(len(pi0) - 1)):
            continue
        for hooks in hooks_of(w[split:]):
            results.append((pi0, hooks))
    return results


class TestClassicStats:
    def test_des_examples(self):
        assert stats.des((3, 2, 1)) == 2
        assert stats.des(identity(5)) == 0
        assert stats.des(PAPER_WORD) == 3  # descents at 4 (9>6), 5 (6>3), 7 (7>1)

    def test_des_against_oracle(self):
        for w in words_on(range(1, 7), 5):
            assert stats.des(w) == len(oracle_des_positions(w))
            assert stats.maj(w) == sum(oracle_des_positions(w))

    def test_exc(self):
        assert stats.exc(identity(4)) == 0
        assert stats.exc((3, 2, 1)) == 1
        assert stats.exc((2, 3, 1)) == 2

    def test_exc_requires_permutation(self):
        with pytest.raises(WordNotPermutation):
            stats.exc((2, 5))

    def test_inv(self):
        assert stats.inv(identity(4)) == 0
        assert stats.inv((3, 2, 1)) == 3
        for n in range(1, 7):
            assert stats.inv(tuple(range(n, 0, -1))) == n * (n - 1) // 2

    def test_inv_against_oracle(self):
        for w in words_on(range(1, 7), 5):
            assert stats.inv(w) == oracle_inv(w)

    def test_maj(self):
        assert stats.maj(identity(4)) == 0
        assert stats.maj((3, 2, 1)) == 3
        assert stats.maj((3, 1, 2)) == 1

    def test_fix(self):
        assert stats.fix(identity(4)) == 4
        assert stats.fix((3, 2, 1)) == 1
        assert stats.fix((2, 3, 1)) == 0

    def test_imaj_ides(self):
        assert stats.imaj(identity(4)) == 0
        assert stats.ides(identity(4)) == 0
        assert stats.imaj((3, 2, 1)) == 3
        assert stats.ides((3, 2, 1)) == 2
        assert stats.imaj((3, 1, 2)) == stats.maj((2, 3, 1)) == 2
        assert stats.ides((3, 1, 2)) == stats.des((2, 3, 1)) == 1

    def test_ini(self):
        assert stats.ini((3, 1, 2)) == 3
        assert stats.ini(identity(5)) == 1
        assert stats.ini((7,)) == 7
        with pytest.raises(EmptyWord):
            stats.ini(())


class TestAdmissibleInversions:
    def test_examples(self):
        assert stats.ai((3, 2, 1)) == 0
        assert stats.aid((3, 2, 1)) == 2
        assert stats.ai(identity(4)) == 0
        assert stats.aid(identity(4)) == 0
        assert stats.ai((2, 1, 3)) == 1
        assert stats.aid((2, 1, 3)) == 2

    def test_against_oracle(self):
        for w in words_on(range(1, 7), 5):
            assert stats.ai(w) == oracle_ai(w)
            assert stats.aid(w) == oracle_ai(w) + len(oracle_des_positions(w))

    def test_ai_at_most_inv(self):
        for w in words_on(range(1, 7), 5):
            assert stats.ai(w) <= stats.inv(w)

    def test_no_admissible_inversion_ends_on_final_minimum(self):
        # clause 1 is false at the right boundary
        assert stats.ai((2, 1)) == 0


class TestHookFactorization:
    def test_nondecreasing_word(self):
        hf = stats.hook_factorization(identity(4))
        assert hf.pi0 == identity(4) and hf.hooks == ()
        assert stats.lec(identity(4)) == 0
        assert stats.pix(identity(4)) == 4

    def test_213(self):
        hf = stats.hook_factorization((2, 1, 3))
        assert hf.pi0 == () and hf.hooks == ((2, 1, 3),)
        assert stats.lec((2, 1, 3)) == 1
        assert stats.pix((2, 1, 3)) == 0

    def test_321(self):
        hf = stats.hook_factorization((3, 2, 1))
        assert hf.pi0 == (3,) and hf.hooks == ((2, 1),)
        assert stats.lec((3, 2, 1)) == 1
        assert stats.pix((3, 2, 1)) == 1

    def test_invariants_and_uniqueness(self):
        for w in words_on(range(1, 7), 6):
            hf = stats.hook_factorization(w)
            assert all(hf.pi0[i] <= hf.pi0[i + 1] for i in range(len(hf.pi0) - 1))
            assert all(is_hook(h) for h in hf.hooks)
            assert hf.pi0 + sum(hf.hooks, ()) == w
            candidates = brute_force_hook_factorizations(w)
            assert candidates == [(hf.pi0, hf.hooks)]


class TestAix:
    def test_paper_example(self):
        assert stats.aix(PAPER_WORD) == 2

    def test_identity(self):
        for n in range(7):
            assert stats.aix(identity(n)) == n

    def test_single_letter(self):
        assert stats.aix((7,)) == 1

    def test_against_oracle(self):
        for w in words_on(range(1, 7), 5):
            assert stats.aix(w) == oracle_aix(w)

    def test_at_most_one_plus_pix(self):
        for w in words_on(range(1, 9), 6):
            assert stats.aix(w) <= 1 + stats.pix(w)


class TestMixDas:
    def test_mix_identity(self):
        for n in range(11):
            assert stats.mix(identity(n)) == 0

    def test_mix_decreasing(self):
        for n in range(1, 8):
            assert stats.mix(tuple(range(n, 0, -1))) == n - 1

    def test_mix_312(self):
        assert stats.mix((3, 1, 2)) == 3

    def test_das_examples(self):
        assert stats.das(identity(5)) == 0
        for n in range(2, 8):
            assert stats.das(tuple(range(n, 0, -1))) == 1
        assert stats.das((3, 1, 2)) == 2

    def test_against_oracles(self):
        for n in range(7):
            for p in all_perms(n):
                assert stats.mix(p) == oracle_mix(p)
                assert stats.das(p) == oracle_das(p)

    def test_unqualified_dominator_equals_lr_max_dominator(self):
        # an earlier larger letter exists iff an earlier larger LR maximum does
        for n in range(7):
            for p in all_perms(n):
                lr_max = {p[i] for i in range(n) if all(p[k] < p[i] for k in range(i))}
                for i in range(n):
                    for v in range(1, n + 1):
                        plain = any(p[k] > v for k in range(i))
                        qualified = any(p[k] > v and p[k] in lr_max for k in range(i))
                        assert plain == qualified


class TestRawlings:
    def test_r1_is_maj_rn_is_inv(self):
        for n in range(8):
            for p in all_perms(n):
                assert stats.rawlings(p, 1) == stats.maj(p)
                if n:
                    assert stats.rawlings(p, n) == stats.inv(p)

    def test_inv2_is_ides(self):
        for n in range(8):
            for p in all_perms(n):
                assert len(inv_set_r(p, 2)) == stats.ides(p)

    def test_inv2_count_is_the_set_definition(self):
        for n in range(8):
            for p in all_perms(n):
                assert equidist._inv2(p) == len(inv_set_r(p, 2))

    def test_invalid_r(self):
        with pytest.raises(InvalidR):
            stats.rawlings((1,), 0)

    @pytest.mark.parametrize("p", [(1, 3), (1.0, 2.0), (2, 2)])
    def test_invalid_r_is_checked_before_the_word(self, p):
        """A bad r on a bad word is InvalidR, not WordNotPermutation."""
        with pytest.raises(InvalidR):
            stats.rawlings(p, 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 9])
    def test_profile_up_to_k(self, k):
        """rawlings(p, None, k) is the profile cut at min(k, n): below n,
        at or above it, and on the empty word."""
        for n in range(7):
            for p in all_perms(n):
                expected = tuple(oracle_rmaj(p, r) for r in range(1, min(k, n) + 1))
                assert stats.rawlings(p, None, k) == expected

    @pytest.mark.parametrize("p", [(0, 1), (1, 1), (1.0, 2.0)])
    def test_profile_up_to_k_on_a_word(self, p):
        with pytest.raises(WordNotPermutation) as err:
            stats.rawlings(p, None, 2)
        assert err.value.name == "rmaj"

    @pytest.mark.parametrize("k", [0, -1, True, 2.5])
    def test_invalid_k(self, k):
        with pytest.raises(InvalidR):
            stats.rawlings((2, 1), None, k)

    def test_r_and_k_are_exclusive(self):
        with pytest.raises(InvalidR, match="exclusive"):
            stats.rawlings((2, 3, 1), 1, 3)

    @pytest.mark.parametrize("r", [True, False, 2.5, "2"])
    def test_r_that_is_not_an_integer(self, r):
        with pytest.raises(InvalidR, match="integer"):
            stats.rawlings((2, 1), r)

    @pytest.mark.parametrize("name", ["rmaj: 2", "rmaj:+2", "rmaj:\u0662", "rmaj:2 ", "rmaj:", "rmaj:-1"])
    def test_r_is_ascii_digits(self, name):
        with pytest.raises(UnknownStatistic):
            stats.resolve_statistic(name)

    def test_matches_the_set_definition(self):
        for n in range(7):
            for p in all_perms(n):
                rs = range(1, n + 3)
                expected = [
                    sum(i for i in oracle_des_positions(p) if p[i - 1] - p[i] >= r)
                    + len(inv_set_r(p, r))
                    for r in rs
                ]
                assert [stats.rawlings(p, r) for r in rs] == expected
                assert stats.rawlings(p) == tuple(expected[:n])


def check_linear_kernels(p):
    """des, maj, exc, fix, imaj, ides and das of a permutation against their
    definitions, and rmaj:2, rmaj:3 (O(n r) each)."""
    descents = oracle_des_positions(p)
    assert stats.des(p) == len(descents)
    assert stats.maj(p) == sum(descents)
    assert stats.exc(p) == oracle_exc(p)
    assert stats.fix(p) == oracle_fix(p)
    q = oracle_inverse(p)
    assert stats.imaj(p) == sum(oracle_des_positions(q))
    assert stats.ides(p) == len(oracle_des_positions(q))
    assert stats.das(p) == oracle_das(p)
    assert stats.rawlings(p, 2) == oracle_rmaj(p, 2)
    assert stats.rawlings(p, 3) == oracle_rmaj(p, 3)


class TestAgainstOracles:
    """Every rewritten kernel against a transliteration of its definition:
    exhaustively over S_n, and on long words and permutations."""

    def test_all_permutations(self):
        for n in range(8):
            for p in all_perms(n):
                assert stats.inv(p) == oracle_inv(p)
                assert stats.ai(p) == oracle_ai(p)
                assert stats.aid(p) == oracle_ai(p) + len(oracle_des_positions(p))
                assert stats.mix(p) == oracle_mix(p)
                assert (stats.pix(p), stats.lec(p)) == oracle_pix_lec(p)
                assert stats.aix(p) == oracle_aix(p)
                check_linear_kernels(p)
                assert stats.rawlings(p) == tuple(oracle_rmaj(p, r) for r in range(1, n + 1))

    @settings(deadline=None, max_examples=20)
    @given(long_words)
    def test_long_words(self, w):
        assert stats.inv(w) == oracle_inv(w)
        expected = oracle_ai(w)
        assert stats.ai(w) == expected
        assert stats.aid(w) == expected + len(oracle_des_positions(w))
        assert (stats.pix(w), stats.lec(w)) == oracle_pix_lec(w)
        assert stats.aix(w) == oracle_aix(w)

    @settings(deadline=None, max_examples=20)
    @given(long_permutations)
    def test_long_permutations(self, p):
        assert stats.mix(p) == oracle_mix(p)
        check_linear_kernels(p)


class TestVeryLongWords:
    """Closed forms on words of size 20,000: the kernels are near-linear, so
    a cubic one brought back would never finish."""

    N = 20_000

    def test_decreasing(self):
        n = self.N
        w = tuple(range(n, 0, -1))
        assert stats.inv(w) == n * (n - 1) // 2
        assert stats.ai(w) == 0
        assert stats.aid(w) == n - 1
        assert stats.mix(w) == n - 1
        assert stats.lec(w) == n // 2  # n // 2 hooks (2, 1) after pi0 = (n) or ()
        assert stats.pix(w) == n % 2
        assert stats.aix(w) == 0
        assert bijections.avoids(w, 321) is False
        assert bijections.avoids(w, 312) is True

    def test_increasing(self):
        w = identity(self.N)
        for name in ("inv", "ai", "aid", "mix", "lec"):
            assert getattr(stats, name)(w) == 0
        assert stats.pix(w) == self.N
        assert stats.aix(w) == self.N
        assert bijections.avoids(w, 321) is True
        assert bijections.avoids(w, 312) is True


class TestRelabelingInvariance:
    ORDER_STATS = ("des", "inv", "maj", "aid", "lec", "pix", "aix")

    @given(
        hyp.lists(hyp.integers(min_value=1, max_value=50), max_size=6, unique=True),
        hyp.integers(min_value=1, max_value=40),
    )
    def test_order_isomorphic_relabeling(self, letters, shift):
        w = tuple(letters)
        # order-preserving relabeling: rank letters, then spread by shift
        ranked = sorted(w)
        relabel = {x: (i + 1) * shift for i, x in enumerate(ranked)}
        v = tuple(relabel[x] for x in w)
        for name in self.ORDER_STATS:
            func, _ = stats.REGISTRY[name]
            assert func(w) == func(v)


class TestSinglePointDistributions:
    def test_eulerian_and_mahonian_families(self):
        for n in range(1, 7):
            perms = list(all_perms(n))
            d_des = Counter(stats.des(p) for p in perms)
            for eul in (stats.exc, stats.lec, stats.das):
                assert Counter(eul(p) for p in perms) == d_des
            d_inv = Counter(stats.inv(p) for p in perms)
            for mah in (stats.maj, stats.aid, stats.mix):
                assert Counter(mah(p) for p in perms) == d_inv
            for r in range(1, n + 1):
                assert Counter(stats.rawlings(p, r) for p in perms) == d_inv


class TestStatVector:
    def test_examples(self):
        assert stats.stat_vector((3, 1, 2), ["ini", "pix", "lec", "inv"]) == (
            ("ini", 3), ("pix", 0), ("lec", 2), ("inv", 2),
        )
        assert stats.stat_vector(identity(3), ["fix", "exc", "maj"]) == (
            ("fix", 3), ("exc", 0), ("maj", 0),
        )
        assert stats.stat_vector((2, 1), ["des", "aid"]) == (("des", 1), ("aid", 1))

    def test_rmaj_names(self):
        assert stats.stat_vector((3, 1, 2), ["rmaj:1"]) == (("rmaj:1", 1),)
        assert stats.stat_vector((3, 1, 2), ["rmaj:3"]) == (("rmaj:3", 2),)

    def test_unknown_statistic(self):
        with pytest.raises(UnknownStatistic):
            stats.stat_vector((1,), ["bogus"])
        with pytest.raises(UnknownStatistic):
            stats.stat_vector((1,), ["rmaj:x"])

    def test_permutation_only_on_word(self):
        with pytest.raises(WordNotPermutation):
            stats.stat_vector((2, 5), ["exc"])

    def test_permutation_only_names_the_statistic(self):
        names = [name for name, (_, perm_only) in stats.REGISTRY.items() if perm_only]
        assert sorted(names) == ["das", "exc", "fix", "ides", "imaj", "mix"]
        for name in (*names, "rmaj:2"):
            with pytest.raises(WordNotPermutation) as err:
                stats.stat_vector((2, 1, 5), ["des", name])
            assert err.value.name == name

    @pytest.mark.parametrize("w", [(2, 5), (0, 1), (1, 3), (1, 1), (2, 1, 5), (-1, 1), (3, 1)])
    def test_every_permutation_check_rejects(self, w):
        """A letter out of 1..n (0, negative, too large) or repeated fails
        the check in each kernel, which names itself."""
        names = [name for name, (_, perm_only) in stats.REGISTRY.items() if perm_only]
        calls = [(name, stats.REGISTRY[name][0]) for name in names]
        calls += [("rmaj:2", stats.resolve_statistic("rmaj:2")[0]), ("rmaj", stats.rawlings)]
        for name, func in calls:
            with pytest.raises(WordNotPermutation) as err:
                func(w)
            assert err.value.name == name

    @pytest.mark.parametrize("w", [(1.0, 2.0), (2.0, 1), (1.5, 2), ("1", 2), (None,)])
    def test_letters_that_are_not_integers(self, w):
        """The inverse-based kernels raise WordNotPermutation, not TypeError,
        where no letter can index the inverse."""
        for name, func in [("imaj", stats.imaj), ("ides", stats.ides), ("rmaj", stats.rawlings),
                           ("rmaj:2", lambda p: stats.rawlings(p, 2))]:
            with pytest.raises(WordNotPermutation) as err:
                func(w)
            assert err.value.name == name

    def test_registry_holds_the_module_functions(self):
        """stat_vector reads REGISTRY and the claim engine the module
        attribute: both must name one function."""
        for name, (func, _) in stats.REGISTRY.items():
            assert func is getattr(stats, name)

    def test_every_permutation_check_is_is_permutation(self):
        names = [name for name, (_, perm_only) in stats.REGISTRY.items() if perm_only]
        calls = [stats.REGISTRY[name][0] for name in names]
        calls += [stats.resolve_statistic("rmaj:2")[0], stats.rawlings]
        for n in range(5):
            for w in itertools.product(range(-1, 5), repeat=n):
                for func in calls:
                    try:
                        func(w)
                    except WordNotPermutation:
                        assert not is_permutation(w)
                    else:
                        assert is_permutation(w)

    def test_empty_permutation(self):
        names = [name for name, (_, perm_only) in stats.REGISTRY.items() if perm_only]
        for name in names:
            assert stats.REGISTRY[name][0](()) == 0
        assert stats.resolve_statistic("rmaj:2")[0](()) == 0
        assert stats.rawlings(()) == ()

    def test_inverse_consistency(self):
        for n in range(6):
            for p in all_perms(n):
                assert stats.imaj(p) == stats.maj(inverse(p))
                assert stats.ides(p) == stats.des(inverse(p))
