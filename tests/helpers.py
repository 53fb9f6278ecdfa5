"""Enumerations the test modules share."""
import itertools


def all_perms(n):
    """S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def words_on(alphabet, max_len):
    """The distinct words of length <= max_len on alphabet, shortest first."""
    for length in range(max_len + 1):
        for combo in itertools.combinations(alphabet, length):
            yield from itertools.permutations(combo)
