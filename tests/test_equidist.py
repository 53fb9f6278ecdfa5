import itertools
import math

import pytest

from permstat import bijections, equidist, stats
from permstat.equidist import (
    all_permutations,
    distributions_equal,
    joint_distribution,
    verify_suite,
)
from permstat.errors import (
    InvalidR,
    InvalidSize,
    PermstatError,
    SizeCapExceeded,
    UnknownStatistic,
    WordNotPermutation,
)


class TestEnumeration:
    def test_counts(self):
        for n in range(7):
            assert sum(1 for _ in all_permutations(n)) == math.factorial(n)

    def test_lexicographic_order(self):
        perms = list(all_permutations(4))
        assert perms == sorted(perms)
        assert perms[0] == (1, 2, 3, 4)
        assert perms[-1] == (4, 3, 2, 1)

    def test_avoiding_source(self):
        for pattern in ("321", "312"):
            avoiders = [p for p in all_permutations(4) if bijections.avoids(p, pattern)]
            assert len(avoiders) == 14
            assert joint_distribution(avoiders, []) == {(): 14}

    def test_explicit_source(self):
        words = iter([(2, 5), (5, 2), (7,)])  # any words, consumed once
        assert joint_distribution(words, ["inv", "des"]) == {(0, 0): 2, (1, 1): 1}

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            list(all_permutations(11))

    def test_size_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("PERMSTAT_NMAX", "3")
        with pytest.raises(SizeCapExceeded):
            list(all_permutations(4))
        monkeypatch.setenv("PERMSTAT_NMAX", "11")
        assert next(all_permutations(11)) == tuple(range(1, 12))

    def test_negative_size(self):
        with pytest.raises(InvalidSize):
            all_permutations(-1)
        assert issubclass(InvalidSize, PermstatError)

    @pytest.mark.parametrize("n", [2.5, "3", None, 3.0, True, False])
    def test_garbage_size(self, n):
        with pytest.raises(InvalidSize, match="not an integer"):
            all_permutations(n)
        with pytest.raises(InvalidSize, match="not an integer"):
            verify_suite(n)

    @pytest.mark.parametrize("raw", ["abc", "-3"])
    def test_malformed_cap_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("PERMSTAT_NMAX", raw)
        with pytest.raises(InvalidSize, match="PERMSTAT_NMAX"):
            list(all_permutations(2))


class TestJointDistribution:
    def test_s3_descents(self):
        dist = joint_distribution(all_permutations(3), ["des"])
        assert dist == {(0,): 1, (1,): 4, (2,): 1}
        assert sum(dist.values()) == 6

    def test_empty_size(self):
        dist = joint_distribution(all_permutations(0), ["des", "aid"])
        assert dist == {(0, 0): 1}

    def test_accepts_plain_iterable(self):
        dist = joint_distribution([(2, 1), (1, 2)], ["inv"])
        assert dist == {(0,): 1, (1,): 1}

    def test_rmaj_family_shares_one_profile(self, monkeypatch):
        calls = []
        real = stats.rawlings
        monkeypatch.setattr(stats, "rawlings", lambda p, r=None: calls.append(r) or real(p, r))
        dist = joint_distribution(all_permutations(4), ["rmaj:1", "rmaj:2", "rmaj:9"])
        assert calls == [None] * 24
        assert dist == joint_distribution(all_permutations(4), ["maj", "rmaj:2", "inv"])

    @pytest.mark.parametrize(
        "name, error",
        [("inverse", UnknownStatistic), ("phi.des", UnknownStatistic),
         ("rmaj:n", UnknownStatistic), ("lrmax", UnknownStatistic), ("rmaj:0", InvalidR)],
    )
    def test_names_are_checked_before_the_pass(self, name, error):
        with pytest.raises(error):
            joint_distribution([], ["des", name])

    def test_permutation_only_statistic_on_a_word(self):
        with pytest.raises(WordNotPermutation):
            joint_distribution([(2, 5)], ["exc"])

    def test_rmaj_on_a_word_names_the_statistic(self):
        with pytest.raises(WordNotPermutation, match=r"^statistic 'rmaj:2' requires"):
            joint_distribution([(2, 5)], ["rmaj:2"])


class TestDistributionsEqual:
    def test_reflexive_symmetric_transitive(self):
        a = {(0,): 1, (1,): 4, (2,): 1}
        b = {(1,): 4, (2,): 1, (0,): 1}
        c = {(0,): 1, (1,): 4, (2,): 1}
        assert distributions_equal(a, a)[0]
        assert distributions_equal(a, b)[0] == distributions_equal(b, a)[0] is True
        assert distributions_equal(a, b)[0] and distributions_equal(b, c)[0]
        assert distributions_equal(a, c)[0]

    def test_witness_is_lexicographically_smallest(self):
        a = {(0, 5): 1, (1, 1): 2, (1, 3): 7}
        b = {(0, 5): 1, (1, 1): 3, (1, 3): 9}
        equal, witness = distributions_equal(a, b)
        assert not equal
        assert witness == ((1, 1), 2, 3)

    def test_missing_key_counts_as_zero(self):
        a = {(0,): 1}
        b = {(0,): 1, (2,): 4}
        equal, witness = distributions_equal(a, b)
        assert not equal
        assert witness == ((2,), 0, 4)
        assert distributions_equal({(0,): 1, (3,): 0}, {(0,): 1}) == (True, None)


class TestVerifySuite:
    def test_all_suites_pass_small(self):
        report = verify_suite(5, "all")
        assert report["schema"] == 3
        assert report["passed"] is True
        assert all(c["status"] == "pass" for c in report["claims"])
        assert all(c["witness"] is None for c in report["claims"])
        names = [c["claim"] for c in report["claims"]]
        assert len(names) == len(set(names))

    def test_single_suite(self):
        report = verify_suite(4, "psi")
        assert report["suite"] == "psi"
        assert report["passed"] is True
        assert len(report["claims"]) == 4

    def test_unknown_suite(self):
        for suite in ("bogus", None, ""):
            with pytest.raises(ValueError, match="unknown suite") as info:
                verify_suite(4, suite)
            assert isinstance(info.value, PermstatError)

    def test_cap_applies(self):
        with pytest.raises(SizeCapExceeded):
            verify_suite(11)

    def test_negative_size(self):
        with pytest.raises(InvalidSize):
            verify_suite(-1)

    def test_schema_2_fields(self):
        report = verify_suite(4, "all")
        assert report["cap"] == equidist.size_cap()
        assert report["python"].count(".") == 2
        assert report["seconds"] >= 0
        checked = {c["claim"]: c["checked"] for c in report["claims"]}
        perms = sum(math.factorial(n) for n in range(5))
        assert checked["eulerian des~exc"] == perms
        assert checked["theorem1 (ini,aix,des,aid) phi = (ini,pix,lec,inv)"] == perms - 1
        assert checked["lemma2 aid f(k,t) = aid t + |t<k|"] == len(list(equidist.lemma_words()))

    def test_schema_3_values(self):
        values = verify_suite(4, "kratt")["values"]
        assert list(values) == ["avoider321", "avoider312", "avoider321.psi"]
        assert values["avoider321"]["objects"] == sum(math.factorial(n) for n in range(5))
        # psi is computed on the 321-avoiders only
        assert values["avoider321.psi"]["objects"] == sum(equidist._catalan(n) for n in range(5))
        assert all(set(v) == {"objects", "seconds"} and v["seconds"] >= 0 for v in values.values())
        # f3 is None on the lemma words that have the letter 3, and aid is
        # computed only on the other rows of f3
        f3_aid = verify_suite(0, "lemmas-f")["values"]["f3.aid"]["objects"]
        assert f3_aid == sum(1 for w in equidist.lemma_words() if 3 not in w)

    def test_pointwise_checked_stops_at_the_witness(self, monkeypatch):
        real = bijections.psi
        monkeypatch.setattr(bijections, "psi", lambda p: (1, 2) if p == (2, 1) else real(p))
        claim = verify_suite(3, "psi")["claims"][0]
        # S_0, S_1, then (1,2) and the witness (2,1)
        assert claim["witness"] == {"perm": [2, 1]} and claim["checked"] == 4

    def test_claim_that_checked_nothing_fails(self):
        report = verify_suite(0, "classic")
        family = report["claims"][-1]
        assert family["claim"] == "mahonian inv~rmaj:r (all r)"
        assert family["checked"] == 0 and family["status"] == "fail"
        assert family["witness"] is None
        assert report["passed"] is False
        assert all(c["status"] == "pass" for c in report["claims"][:-1])

    def test_report_is_json_serializable(self):
        import json

        json.dumps(verify_suite(3, "kratt"))


class TestChunks:
    """The engine reads objects in chunks of equidist.CHUNK; nothing it
    reports may depend on where a chunk ends."""

    # (1, 2, 3, 4, 5) is the 35th permutation of size <= 5, and (8, 7, ..., 1)
    # the 46,234th and last of size <= 8
    @pytest.mark.parametrize("n, index, checked", [(5, 0, 35), (5, 33, 68), (8, 40319, 46234)])
    def test_witness_in_a_later_chunk(self, monkeypatch, n, index, checked):
        perm = list(all_permutations(n))[index]
        real = stats.maj
        monkeypatch.setattr(stats, "maj", lambda p: real(p) + (p == perm))
        claims = {c["claim"]: c for c in verify_suite(n, "rawlings")["claims"]}
        assert claims["rmaj:1 = maj"]["witness"] == {"perm": list(perm)}
        assert claims["rmaj:1 = maj"]["checked"] == checked

    @pytest.mark.parametrize("chunk", [1, 7, equidist.CHUNK])
    def test_filtered_tally_spans_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(equidist, "CHUNK", chunk)
        calls = []
        real = bijections.psi
        monkeypatch.setattr(bijections, "psi", lambda p: calls.append(p) or real(p))
        assert verify_suite(7, "kratt")["passed"]
        assert math.factorial(7) > 100 * chunk
        # psi is called on the 321-avoiders only, each once
        assert len(calls) == sum(equidist._catalan(n) for n in range(8)) == 626
        assert all(bijections.avoids(p, "321") for p in calls)

    def test_joint_distribution_of_a_one_shot_iterator_longer_than_a_chunk(self):
        assert math.factorial(6) > 3 * equidist.CHUNK
        perms = iter(all_permutations(6))
        assert joint_distribution(perms, ["inv"]) == mahonian(6)
        assert next(perms, None) is None
        assert joint_distribution(iter(all_permutations(6)), []) == {(): 720}


def eulerian(n):
    """{(k,): A(n, k)} by A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1)."""
    row = [1]
    for m in range(1, n + 1):
        row = [(k + 1) * (row[k] if k < len(row) else 0) + (m - k) * (row[k - 1] if k else 0)
               for k in range(m)]
    return {(k,): a for k, a in enumerate(row)}


def mahonian(n):
    """{(j,): [q^j] [1]_q [2]_q ... [n]_q}, where [i]_q = 1 + q + ... + q^(i-1)."""
    coeffs = [1]
    for i in range(1, n + 1):
        coeffs = [sum(coeffs[max(0, j - i + 1):j + 1]) for j in range(len(coeffs) + i - 1)]
    return {(j,): c for j, c in enumerate(coeffs)}


class TestClosedForms:
    """Marginals over S_n, n <= 7, against closed forms that share no code
    with the enumerator or the statistics."""

    def test_closed_forms_themselves(self):
        assert eulerian(4) == {(0,): 1, (1,): 11, (2,): 11, (3,): 1}
        assert mahonian(3) == {(0,): 1, (1,): 2, (2,): 2, (3,): 1}
        assert [sum(eulerian(n).values()) for n in range(8)] == [math.factorial(n) for n in range(8)]
        assert [sum(mahonian(n).values()) for n in range(8)] == [math.factorial(n) for n in range(8)]

    @pytest.mark.parametrize("name", ["des", "exc", "lec", "das"])
    def test_eulerian(self, name):
        for n in range(8):
            assert joint_distribution(all_permutations(n), [name]) == eulerian(n)

    @pytest.mark.parametrize("name", ["inv", "maj", "aid", "mix", "rmaj:2"])
    def test_mahonian(self, name):
        for n in range(8):
            assert joint_distribution(all_permutations(n), [name]) == mahonian(n)


class TestLemmaDomain:
    def test_lemma_words_are_distinct_and_bounded(self):
        words = list(equidist.lemma_words(max_len=3))
        assert len(words) == len(set(words))
        for w in words:
            assert len(w) <= 3
            assert len(set(w)) == len(w)
            assert all(1 <= x <= 7 for x in w)
        # 1 empty + 7 singletons + P(7,2) + P(7,3)
        assert len(words) == 1 + 7 + 42 + 210


def test_catalan_numbers():
    assert [equidist._catalan(n) for n in range(9)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430,
    ]
