import doctest

import pytest
from helpers import all_perms
from hypothesis import given
from hypothesis import strategies as hyp

from permstat import core, stats
from permstat.errors import DuplicateLetter, EmptyWord, NotAPermutation, ParseError


def distinct_words(max_len=5, max_letter=9):
    return hyp.lists(
        hyp.integers(min_value=1, max_value=max_letter),
        max_size=max_len,
        unique=True,
    ).map(tuple)


class TestConstruction:
    def test_make_word_empty(self):
        assert core.make_word([]) == ()

    def test_make_word_paper_example(self):
        assert core.make_word([2, 5, 8, 9, 6, 3, 7, 1, 4]) == (2, 5, 8, 9, 6, 3, 7, 1, 4)

    def test_make_word_duplicate(self):
        with pytest.raises(DuplicateLetter) as exc:
            core.make_word([3, 3])
        assert exc.value.letter == 3

    def test_make_word_rejects_zero(self):
        with pytest.raises(ParseError):
            core.make_word([0, 1])

    @pytest.mark.parametrize("letters", [[2.7, 1], [True, 2], ["3", 1], ["x"]])
    def test_make_word_rejects_a_letter_that_is_not_an_int(self, letters):
        with pytest.raises(ParseError, match="not an integer"):
            core.make_word(letters)


class TestInverse:
    def test_examples(self):
        assert core.inverse((3, 1, 2)) == (2, 3, 1)
        assert core.inverse((1, 2, 3, 4, 5)) == (1, 2, 3, 4, 5)
        assert core.inverse((3, 2, 1)) == (3, 2, 1)

    @pytest.mark.parametrize(
        "p", [(0, 1), (1, 1), (1, 5), (2, 1, 5), (-1, 1), (1.0, 2.0), (True,), (True, 2), ("1",)])
    def test_rejects_what_is_not_a_permutation(self, p):
        with pytest.raises(NotAPermutation):
            core.inverse(p)

    def test_involution_exhaustive(self):
        for n in range(7):
            for p in all_perms(n):
                assert core.inverse(core.inverse(p)) == p


class TestLeftToRightMaxima:
    def test_examples(self):
        assert core.left_to_right_maxima((3, 1, 2)) == core.LeftToRightMaxima((1,), (3,))
        n = 6
        assert core.left_to_right_maxima(tuple(range(1, n + 1))) == core.LeftToRightMaxima(
            tuple(range(1, n + 1)), tuple(range(1, n + 1))
        )
        assert core.left_to_right_maxima(tuple(range(n, 0, -1))) == core.LeftToRightMaxima(
            (1,), (n,)
        )

    def test_against_the_definition(self):
        for n in range(8):
            for p in all_perms(n):
                tops = [i for i in range(1, n + 1) if all(p[k] < p[i - 1] for k in range(i - 1))]
                expected = core.LeftToRightMaxima(tuple(tops), tuple(p[i - 1] for i in tops))
                assert core.left_to_right_maxima(p) == expected

    def test_letters_below_one(self):
        assert core.left_to_right_maxima((0, -1)) == core.LeftToRightMaxima((1,), (0,))
        expected = core.LeftToRightMaxima((1, 3), (-3, -1))
        assert core.left_to_right_maxima((-3, -5, -1, -2)) == expected

    @given(hyp.lists(hyp.integers(min_value=-20, max_value=3), max_size=8, unique=True).map(tuple))
    def test_standardization_oracle(self, w):
        # the maxima of a word of distinct integers sit where those of the
        # order-isomorphic permutation do, with the word's letters
        letters = sorted(w)
        lrm = core.left_to_right_maxima(tuple(letters.index(x) + 1 for x in w))
        expected = core.LeftToRightMaxima(lrm.positions, tuple(letters[x - 1] for x in lrm.values))
        assert core.left_to_right_maxima(w) == expected

    def test_permutation_always_has_first_position_and_max_value(self):
        for n in range(1, 7):
            for p in all_perms(n):
                lrm = core.left_to_right_maxima(p)
                assert lrm.positions[0] == 1
                assert lrm.values[-1] == n


class TestSubwordFlips:
    @given(distinct_words(), hyp.sets(hyp.integers(min_value=1, max_value=9)))
    def test_complement_is_involution(self, w, s):
        assert core.complement_subword_on(core.complement_subword_on(w, s), s) == w

    def test_complement_mirrors_values_in_place(self):
        assert core.complement_subword_on((4, 1, 3, 5, 2), {1, 2, 3}) == (4, 3, 1, 5, 2)


class TestParsing:
    def test_compact(self):
        assert core.parse_word("312") == (3, 1, 2)

    def test_spaced(self):
        assert core.parse_word("3 1 2") == (3, 1, 2)
        assert core.parse_word("10 2 1") == (10, 2, 1)

    def test_empty(self):
        assert core.parse_word("") == ()
        assert core.parse_word("   ") == ()

    def test_compact_zero_rejected(self):
        with pytest.raises(ParseError):
            core.parse_word("102")

    def test_garbage(self):
        # every letter is ASCII digits in both forms: no "1_0" or "+3" as
        # int() reads them, and no digits of another script
        for text in ("3,1,2", "1 x", "1_0 2", "+3 1 2", "\u0661 \u0662", "\u0661\u0662"):
            with pytest.raises(ParseError, match="cannot parse"):
                core.parse_word(text)

    def test_parse_permutation(self):
        assert core.parse_permutation("312") == (3, 1, 2)
        with pytest.raises(NotAPermutation):
            core.parse_permutation("31")

    def test_format_round_trip(self):
        for w in [(), (3, 1, 2), (10, 2, 1), (2, 5, 8, 9, 6, 3, 7, 1, 4)]:
            assert core.parse_word(core.format_word(w)) == w

    def test_format_compact_only_for_single_digits(self):
        assert core.format_word((3, 1, 2)) == "312"
        assert core.format_word((10, 2, 1)) == "10 2 1"


def test_first_letter_empty_word():
    with pytest.raises(EmptyWord):
        stats.ini(())


def test_the_module_examples_run():
    assert doctest.testmod(core) == (0, 2)  # (failed, attempted)
