import functools
import itertools
import json
import math
import random
import re
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter
from operator import itemgetter
from pathlib import Path

import pytest
from helpers import all_perms, words_on
from test_witnesses import plant_insertion, plant_statistic

from permstat import bijections, equidist, stats
from permstat.cli import main
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

#: the words the lemma claims run over
LEMMA_WORDS = [*words_on(equidist.LEMMA_ALPHABET, equidist.LEMMA_MAX_LEN)]


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

    @pytest.mark.parametrize("raw", ["abc", "-3", "٣", "８", "+3", "3_0"])
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

    def test_one_name_reads_zero_where_a_value_never_occurs(self):
        assert joint_distribution(all_permutations(3), ["des"])[(5,)] == 0

    def test_accepts_plain_iterable(self):
        dist = joint_distribution([(2, 1), (1, 2)], ["inv"])
        assert dist == {(0,): 1, (1,): 1}

    def test_rmaj_family_shares_one_profile(self, monkeypatch):
        calls = []
        real = stats.rawlings
        monkeypatch.setattr(stats, "rawlings", lambda p, *rest: calls.append(rest) or real(p, *rest))
        dist = joint_distribution(all_permutations(4), ["rmaj:1", "rmaj:2", "rmaj:9"])
        assert calls == [(None, 9)] * 24
        assert dist == joint_distribution(all_permutations(4), ["maj", "rmaj:2", "inv"])

    @pytest.mark.parametrize("names", [["rmaj:3", "des", "rmaj:2", "rmaj:9"],
                                       ["rmaj:3", "des", "rmaj:2"], ["des", "rmaj:2"]])
    def test_rmaj_beside_other_statistics(self, names):
        def direct(words):
            return Counter(tuple(stats.des(w) if name == "des" else stats.rawlings(w, int(name[5:]))
                                 for name in names) for w in words)

        for n in range(7):
            assert joint_distribution(all_permutations(n), names) == direct(all_permutations(n))
        words = [p for n in (4, 2, 6, 0, 3, 5, 1, 3)
                 for p in itertools.islice(all_permutations(n), 0, None, 5)]
        assert joint_distribution(words, names) == direct(words)

    @staticmethod
    def rawlings_calls(monkeypatch):
        """(the arguments after the word, the value) of each call the engine
        makes to rawlings, which it calls positionally."""
        calls = []
        real = stats.rawlings

        def recording(p, *rest):
            value = real(p, *rest)
            calls.append((rest, value))
            return value

        monkeypatch.setattr(stats, "rawlings", recording)
        return calls

    @pytest.mark.parametrize("names, rest, length", [
        (["rmaj:2", "rmaj:3"], (None, 3), 3), (["rmaj:3", "des", "rmaj:1"], (None, 3), 3),
        (["rmaj:2", "rmaj:5"], (None, 5), 5), (["rmaj:9", "des"], (None, 9), 5),
        (["rmaj:2"], (None, 2), 2), (["rmaj:2", "rmaj:02"], (None, 2), 2),
    ])
    def test_a_profile_stops_at_the_largest_r(self, monkeypatch, names, rest, length):
        """Every r named, in any spelling, is read off one profile per word
        that stops at the largest r, or at n once some r >= n."""
        expected = joint_distribution(all_permutations(5), names)
        calls = self.rawlings_calls(monkeypatch)
        assert joint_distribution(all_permutations(5), names) == expected
        assert [r for r, _ in calls] == [rest] * 120
        assert {len(value) for _, value in calls} == {length}

    @pytest.mark.parametrize("names, rest",
                             [(["rmaj:2"], (None, 2)), (["rmaj:3", "rmaj:2"], (None, 3))])
    def test_a_long_word_costs_o_n_r(self, monkeypatch, names, rest):
        w = list(range(1, 5001))
        random.Random(5000).shuffle(w)
        w = tuple(w)
        expected = {tuple(stats.rawlings(w, int(name[5:])) for name in names): 1}
        calls = self.rawlings_calls(monkeypatch)
        assert joint_distribution([w], names) == expected
        assert [r for r, _ in calls] == [rest]

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

    def test_rmaj_over_words_of_mixed_sizes(self):
        words = [(), (1,), (2, 1), (1, 3, 2), (3, 1, 2, 4)]
        counts = Counter(tuple(stats.rawlings(w, r) for r in (1, 3, 9)) for w in words)
        assert counts == {(0, 0, 0): 2, (1, 1, 1): 1, (2, 1, 1): 1, (1, 2, 2): 1}
        assert joint_distribution(words, ["rmaj:1", "rmaj:3", "rmaj:9"]) == counts

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
        assert checked["lemma2 aid f(k,t) = aid t + |t<k|"] == len(LEMMA_WORDS)

    def test_schema_3_values(self):
        values = verify_suite(4, "kratt")["values"]
        assert list(values) == ["avoider321", "avoider321.rank", "avoider312", "avoider312.rank",
                                "avoider321.psi", "avoider321.psi.rank"]
        # the avoiders' columns, and psi over them, hold the 23 avoiders of size <= 4
        avoiders = sum(equidist._catalan(n) for n in range(5))
        assert avoiders == 23
        assert values["avoider321"]["objects"] == values["avoider321.psi"]["objects"] == avoiders
        assert all(set(v) == {"objects", "seconds"} and v["seconds"] >= 0 for v in values.values())

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

    @pytest.mark.parametrize("chunk", [1, 7, 32, equidist.CHUNK])
    def test_filtered_tally_spans_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(equidist, "CHUNK", chunk)
        calls = []
        real = bijections.psi
        monkeypatch.setattr(bijections, "psi", lambda p: calls.append(p) or real(p))
        assert verify_suite(8, "kratt")["passed"]
        assert math.factorial(8) > 100 * chunk
        # psi is called on the 321-avoiders only, each once
        assert len(calls) == sum(equidist._catalan(n) for n in range(9)) == 2056
        assert all(bijections.avoids(p, "321") for p in calls)

    def test_joint_distribution_of_a_one_shot_iterator_longer_than_a_chunk(self):
        assert math.factorial(7) > 3 * equidist.CHUNK
        perms = iter(all_permutations(7))
        assert joint_distribution(perms, ["inv"]) == mahonian(7)
        assert next(perms, None) is None
        assert joint_distribution(iter(all_permutations(7)), []) == {(): 5040}

    def test_a_run_that_stops_fitting_a_byte_partway(self):
        """Rows are counted as bytes until ini reads 300 on a word in the
        middle of S_6's third chunk; from there on, and for what was counted
        before, the rows are tuples, and every object is counted once."""
        word = (300, 1, 2, 3, 4, 5)
        words = [*all_permutations(6), word, *all_permutations(6)]
        assert 720 > 2 * equidist.CHUNK and 720 % equidist.CHUNK
        counts = joint_distribution(iter(words), ["ini", "des"])
        assert counts == Counter((stats.ini(w), stats.des(w)) for w in words)
        assert sum(counts.values()) == 1441 and counts[300, 1] == 1
        assert {type(row) for row in counts} == {tuple}

    #: f(5, 4137) planted to insert 5 into 7143: the 301st lemma word of
    #: length 4 fails lemma2 and lemma4 at k = 5, and as sigma lemma 6 at
    #: l = 5, k = 8, in a later chunk at every width
    SIGMA, INSERTED = (4, 1, 3, 7), (7, 1, 4, 3)

    @pytest.mark.parametrize("planted", [False, True, "f_insert"])
    def test_claims_do_not_depend_on_the_width(self, monkeypatch, planted):
        if planted is True:  # the 601st permutation of S_6 lies in a later chunk at every width
            perm = list(all_permutations(6))[600]
            real = stats.maj
            monkeypatch.setattr(stats, "maj", lambda p: real(p) + (p == perm))
        elif planted:
            plant_insertion(monkeypatch, {(5, self.SIGMA): (5, self.INSERTED)})
        fields = itemgetter("claim", "status", "n_range", "checked", "witness")
        reports = []
        for chunk in (1, 7, 32, equidist.CHUNK):
            monkeypatch.setattr(equidist, "CHUNK", chunk)
            reports.append([fields(c) for c in verify_suite(6, "all")["claims"]])
        assert reports[1:] == reports[:1] * 3
        failed = {label: (checked, witness) for label, status, _, checked, witness in reports[0]
                  if status == "fail"}
        assert bool(failed) is bool(planted)
        if planted == "f_insert":
            word = LEMMA_WORDS.index(self.SIGMA) + 1
            assert word == 561 and [w for w in LEMMA_WORDS if len(w) == 4].index(self.SIGMA) == 300
            assert failed == {
                "lemma2 aid f(k,t) = aid t + |t<k|": (word, {"k": 5, "word": [4, 1, 3, 7]}),
                "lemma4 f (aix, des)": (
                    word, {"k": 5, "word": [4, 1, 3, 7], "before": [1, 1], "after": [2, 2]}),
                "lemma6 f (aix, des)": (word, {"k": 8, "l": 5, "sigma": [4, 1, 3, 7]}),
            }


class TestOneSizePerChunk:
    """A chunk holds objects of one size, so a run of sizes that alternates
    is cut wherever the size changes."""

    # runs of one size longer and shorter than a chunk of 3, then sizes that alternate
    WORDS = [*(w for n in (2, 0, 3, 1, 3, 4, 2) for w in all_perms(n)),
             (1,), (2, 1), (), (3, 1, 2, 4), (1, 2), (2, 1), (2, 1, 3), ()]

    def test_chunks_hold_one_size_in_order(self, monkeypatch):
        monkeypatch.setattr(equidist, "CHUNK", 3)
        chunks = list(equidist._chunks(iter(self.WORDS)))
        assert all(len({len(w) for w in chunk}) == 1 and len(chunk) <= 3 for chunk in chunks)
        assert [w for chunk in chunks for w in chunk] == self.WORDS
        # a chunk ends full or where the size changes
        assert all(len(a) == 3 or len(a[0]) != len(b[0]) for a, b in zip(chunks, chunks[1:]))

    def test_rmaj_and_inv_over_a_one_shot_iterator(self, monkeypatch):
        monkeypatch.setattr(equidist, "CHUNK", 3)
        counts = Counter(
            (*(stats.rawlings(w, r) for r in (1, 3, 9)), stats.inv(w)) for w in self.WORDS)
        names = ["rmaj:1", "rmaj:3", "rmaj:9", "inv"]
        assert joint_distribution(iter(self.WORDS), names) == counts


class TestMemo:
    """Over S_n the engine keeps every registry statistic a claim reads by
    lexicographic rank; a run computes each once per permutation and gives
    the reports that computing every image would give."""

    def test_rank_is_the_enumeration_index(self):
        for n in range(8):
            perms = list(all_permutations(n))
            assert equidist.Memo(n).ranks(perms) == list(range(len(perms)))

    @pytest.mark.parametrize("word", [(1, 2, 2, 4), (0, 2, 3, 4), (1, 2, 3, 5), (2, 4, 1),
                                      (2, 4, 1, 3, 5), (4, 4, 3, 1)])
    def test_a_word_outside_s_4_has_no_rank(self, word):
        memo = equidist.Memo(4)
        assert memo.ranks([word]) is None
        assert memo.ranks([(2, 4, 1, 3), word]) is None
        assert memo.ranks([(2, 4, 1, 3)]) == [list(all_permutations(4)).index((2, 4, 1, 3))]

    @pytest.mark.parametrize("n, word", [(0, (1,)), (1, ()), (1, (0,)), (1, (2,)), (2, (1, 1))])
    def test_small_sizes(self, n, word):
        assert equidist.Memo(n).ranks([word]) is None

    def test_an_image_outside_s_n_gives_the_same_witnesses(self, monkeypatch):
        # a planted phi sends (2, 4, 1, 3) to a word with a letter repeated
        # across the two halves; the witnesses are those of computing every
        # image directly
        real = bijections.phi
        monkeypatch.setattr(bijections, "phi", lambda p: (1, 2, 2, 4) if p == TARGET else real(p))
        fields = itemgetter("status", "checked", "witness")
        claims = [fields(c) for c in verify_suite(4, "theorem1")["claims"]]
        assert claims == [
            ("fail", 20, {"perm": [2, 4, 1, 3], "lhs": [1, 2, 0, 0], "rhs": [2, 1, 2, 3]}),
            ("fail", 20, {"perm": [2, 4, 1, 3]}),
            ("fail", 21, {"perm": [2, 4, 1, 3]}),
            ("pass", 34, None),
        ]

    PSI_CLAIMS = ("psi involution", "psi theorem (das,mix) psi = (des,inv)",
                  "psi swaps mix and inv", "psi preserves left-to-right maxima")

    def assert_reports(self, monkeypatch, n, images, psi_claims, kratt_witness=None):
        """With psi planted to send each key of images to its value, the psi
        suite reports psi_claims, (status, checked, witness) per claim. Under
        all, the psi claims report the same, the claim that psi maps
        321-avoiders onto 312-avoiders reports kratt_witness, where given,
        and every other claim what it reports with psi unplanted."""
        fields = itemgetter("status", "checked", "witness")
        want = {c["claim"]: fields(c) for c in verify_suite(n, "all")["claims"]}
        want.update(zip(self.PSI_CLAIMS, psi_claims))
        if kratt_witness is not None:
            onto = "psi maps 321-avoiders onto 312-avoiders"
            want[onto] = ("fail", want[onto][1], kratt_witness)
        real = bijections.psi
        monkeypatch.setattr(bijections, "psi", lambda p: images.get(p) or real(p))
        assert [fields(c) for c in verify_suite(n, "psi")["claims"]] == psi_claims
        assert {c["claim"]: fields(c) for c in verify_suite(n, "all")["claims"]} == want

    @pytest.mark.parametrize("chunk", [1, 7, 32, 256])
    def test_an_involution_broken_across_chunks(self, monkeypatch, chunk):
        # psi sends the 101st permutation of S_6 to the 601st, which lies in
        # a later chunk at every width and which psi does not send back
        monkeypatch.setattr(equidist, "CHUNK", chunk)
        perms = list(all_permutations(6))
        assert perms[100] == (1, 6, 2, 5, 3, 4) and bijections.psi(perms[600]) != perms[100]
        witness = {"perm": list(perms[100])}
        self.assert_reports(monkeypatch, 6, {perms[100]: perms[600]}, [
            ("fail", 255, witness), ("fail", 254, witness),
            ("fail", 254, witness), ("fail", 255, witness)])

    @pytest.mark.parametrize("back", [False, True])
    def test_a_psi_image_outside_s_n_gives_the_same_witnesses(self, monkeypatch, back):
        # psi sends TARGET to a permutation of S_5, which has no rank in S_4;
        # with back, psi sends that one to TARGET again, so the involution
        # holds at TARGET and fails at (2, 4, 3, 1), whose image is TARGET
        outside = (2, 4, 1, 3, 5)
        images = {TARGET: outside, **({outside: TARGET} if back else {})}
        witness = {"perm": list(TARGET)}
        involution = ("fail", 22, {"perm": [2, 4, 3, 1]}) if back else ("fail", 21, witness)
        self.assert_reports(monkeypatch, 4, images, [
            involution, ("fail", 20, witness), ("fail", 20, witness), ("fail", 21, witness)],
            {"n": 4, "missing": [[2, 4, 3, 1]]})

    def test_each_statistic_runs_once_per_permutation(self, monkeypatch):
        # exc, fix, maj and ides are read of p alone, and no other kernel calls them
        calls = Counter()
        for module, name in ((stats, "mix"), (stats, "das"), (bijections, "psi"), (stats, "ini"),
                             (bijections, "phi"), (stats, "exc"), (stats, "fix"),
                             (stats, "maj"), (stats, "ides")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda p, name=name, real=real: calls.update([name]) or real(p))
        assert verify_suite(6)["passed"]
        perms = sum(math.factorial(n) for n in range(7))
        # no claim reads ini at n = 0
        assert perms == 874 and calls == {"mix": perms, "das": perms, "psi": perms,
                                          "ini": perms - 1, "phi": perms, "exc": perms,
                                          "fix": perms, "maj": perms, "ides": perms}

    def test_each_statistic_read_is_one_byte_array_per_size(self, monkeypatch):
        """Over S_n the memo holds one array of n! signed bytes per registry
        statistic that a claim reads, of p, phi(p) or psi(p)."""
        memos = []

        class Recorded(equidist.Memo):
            def __init__(self, *args):
                super().__init__(*args)
                memos.append(self)

        monkeypatch.setattr(equidist, "Memo", Recorded)
        assert verify_suite(8)["passed"]
        read = {"des", "exc", "lec", "das", "inv", "maj", "aid", "mix", "ini", "aix", "pix",
                "fix", "ides"}
        assert len(memos) == 9 and set(memos[8]) == read and len(read) == 13
        for n, memo in enumerate(memos):
            assert all(a.typecode == "b" and len(a) == math.factorial(n) for a in memo.values())
        # a value past a signed byte is not held: the columns compute it directly
        assert equidist.Memo(3).statistic("inv", lambda p: 128) is None

    def test_what_the_memo_cannot_hold_is_computed_directly(self, monkeypatch):
        """maj planted to return 200 on (2, 3, 1), which no signed byte holds,
        at both names callers look it up by, fails the four claims that read
        maj at n = 3 with these witnesses, and no other claim changes."""
        fields = itemgetter("status", "checked", "witness")
        want = {c["claim"]: fields(c) for c in verify_suite(4)["claims"]}
        want.update({
            "mahonian inv~maj": ("fail", 10, {"n": 3, "value": [2], "counts": [2, 1]}),
            "triple (fix,exc,maj)~(pix,lec,inv)~(aix,des,aid)": (
                "fail", 10, {"n": 3, "tuple": "pix,lec,inv", "value": [0, 2, 2],
                             "counts": [0, 1]}),
            "rmaj:1 = maj": ("fail", 8, {"perm": [2, 3, 1]}),
            "(ides,rmaj:2)~(exc,maj)": ("fail", 10, {"n": 3, "value": [2, 2],
                                                     "counts": [1, 0]}),
        })
        real, perm_only = stats.REGISTRY["maj"]

        def planted(p):
            return 200 if p == (2, 3, 1) else real(p)

        monkeypatch.setattr(stats, "maj", planted)
        monkeypatch.setitem(stats.REGISTRY, "maj", (planted, perm_only))
        assert {c["claim"]: fields(c) for c in verify_suite(4)["claims"]} == want

    def test_a_statistic_of_p_is_a_slice_of_the_memo(self):
        """Over a chunk of S_n, a registry statistic of p is a slice of the
        memo's array, and one of an image is gathered at the image's ranks."""
        memo, perms = equidist.Memo(8), [*itertools.islice(all_permutations(8), 256)]
        plan = functools.cache(lambda key, size: equidist._plan(key, size, None, None))
        columns = equidist.Columns(perms, {}, plan, memo, 0)
        des = columns["des"]
        assert isinstance(des, array) and des.typecode == "b"
        assert des == memo["des"][:256] and list(des) == [*map(stats.des, perms)]
        phi_des = columns["phi.des"]
        assert type(phi_des) is list
        assert phi_des == [stats.des(bijections.phi(p)) for p in perms]

    @pytest.mark.parametrize("suite, calls", [("all", 874), ("kratt", 197)])
    def test_avoiders_read_psi_off_the_psi_column(self, monkeypatch, suite, calls):
        """Under all, psi of a 321-avoider is read off the psi column that
        the psi claims read first; kratt alone runs psi on the avoiders."""
        counted = []
        real = bijections.psi
        monkeypatch.setattr(bijections, "psi", lambda p: counted.append(p) or real(p))
        report = verify_suite(6, suite)
        avoiders = sum(equidist._catalan(n) for n in range(7))
        assert report["passed"] and len(counted) == calls and avoiders == 197
        assert report["values"]["avoider321.psi"]["objects"] == avoiders

    def test_no_value_outlives_a_run(self, monkeypatch):
        # theorem1 reads aid through the memo alone; the lemma suites would
        # call the planted aid on the word TARGET whatever the memo held
        assert verify_suite(5, "theorem1")["passed"]
        wrong = next(q for q in itertools.permutations(TARGET) if stats.aid(q) != stats.aid(TARGET))
        plant_statistic(monkeypatch, "aid", {TARGET: wrong})
        assert not verify_suite(5, "theorem1")["passed"]
        # nor does an insertion that the lemma run keeps for the next size
        monkeypatch.undo()
        verify_suite(0)
        real = bijections.f_insert
        wrong = (TARGET[1], TARGET[0], *TARGET[2:])
        monkeypatch.setattr(bijections, "f_insert",
                            lambda k, t: real(k, wrong if (k, t) == (5, TARGET) else t))
        assert not verify_suite(0, "lemmas-f")["passed"]

    def test_each_insertion_runs_once(self, monkeypatch):
        """verify_suite(0) calls f_insert once per distinct (k, t): lemma 6's
        f(k, f(l, sigma)) is row f(l, sigma)'s own f(k, .) at the next size."""
        calls = []
        real = bijections.f_insert
        monkeypatch.setattr(bijections, "f_insert", lambda k, t: calls.append((k, t)) or real(k, t))
        verify_suite(0)
        assert len(calls) == len(set(calls)) == 15898

    def test_insertions_are_planned_once_per_key_and_size(self, monkeypatch):
        """WordMemo.inserting binds f over the pairs once per insertion key
        (fk, fl.fk) and size of the lemma run, whatever the width of a chunk."""
        counts = []
        for chunk in (1, 32, 256):
            calls = []
            real = equidist.WordMemo.inserting
            monkeypatch.setattr(equidist, "CHUNK", chunk)
            monkeypatch.setattr(equidist.WordMemo, "inserting",
                                lambda memo, *args: calls.append(args) or real(memo, *args))
            values = verify_suite(0)["values"]
            monkeypatch.undo()
            counts.append(len(calls))
        inserting = [k for k in values if re.fullmatch(r"(f[kl]\.)?f[kl]", k)]
        assert inserting == ["fk", "fl.fk"]
        assert counts[0] == counts[1] == counts[2] <= 2 * (equidist.LEMMA_MAX_LEN + 1)

    def test_a_clean_run_keeps_no_image(self, monkeypatch):
        """Every image the column fl.fk keeps is taken out by its pair's own
        fk column at the next size."""
        memos = []

        class Recorded(equidist.WordMemo):
            def __init__(self):
                super().__init__()
                memos.append(self)

        monkeypatch.setattr(equidist, "WordMemo", Recorded)
        assert lemmas_pass(verify_suite(0))
        assert len(memos) == 1 and memos[0] == {}

    def test_the_lemma_run_holds_little(self, monkeypatch):
        """What outlives a chunk of the lemma run (the word memo and the
        insertions kept for the next size) stays small: a bound on the
        traced peak of one run, after a first run has warmed every cache,
        with f_insert as it is and planted to fail lemmas-f."""
        real = bijections.f_insert
        wrong = (TARGET[1], TARGET[0], *TARGET[2:])
        for planted in (False, True):
            if planted:
                monkeypatch.setattr(bijections, "f_insert",
                                    lambda k, t: real(k, wrong if (k, t) == (5, TARGET) else t))
            verify_suite(0)
            tracemalloc.start()
            try:
                report = verify_suite(0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * 2**20
            assert lemmas_pass(report) is not planted

    def test_a_run_keeps_nothing_per_choice_of_letters(self):
        """What a fresh interpreter still holds after verify_suite(0) and a
        gc.collect(), traced from just before the run: the compiled
        expressions, at most one per sub-expression of a row claim (its
        expression's nodes and its witness keys), and nothing per letter
        a lemma inserts."""
        code = ("import gc, sys, tracemalloc; sys.path.insert(0, sys.argv[1]); "
                "from permstat import equidist; tracemalloc.start(); equidist.verify_suite(0); "
                "gc.collect(); print(tracemalloc.get_traced_memory()[0], "
                "equidist._compiled.cache_info().currsize)")
        src = Path(equidist.__file__).resolve().parent.parent
        out = subprocess.run([sys.executable, "-c", code, str(src)],
                             capture_output=True, text=True, check=True).stdout
        retained, compiled = map(int, out.split())

        def nodes(expr):
            yield expr
            for arg in expr[1:] if isinstance(expr, tuple) else ():
                yield from nodes(arg)

        rows = [c for c in equidist.CLAIMS if isinstance(c, equidist.Pointwise)]
        parts = {e for c in rows for e in nodes(c.holds)}
        parts |= {k for c in rows for _, keys in c.shown
                  for k in (keys if isinstance(keys, tuple) else (keys,))}
        assert retained < 160 * 2**10
        assert compiled <= len(parts)

    def test_the_avoidance_tallies_hold_no_permutation(self):
        """The kratt tallies count ranks: a warmed verify_suite(8, "kratt"),
        traced in a fresh interpreter, peaks at about 814 KiB, 483 KiB of
        it the rank tables of S_8, against about 931 KiB when the tallies
        held the avoiders and psi's images as tuples (tracemalloc, Python
        3.11.7)."""
        code = ("import sys, tracemalloc; sys.path.insert(0, sys.argv[1]); "
                "from permstat import equidist; equidist.verify_suite(8, 'kratt'); "
                "tracemalloc.start(); report = equidist.verify_suite(8, 'kratt'); "
                "print(report['passed'], tracemalloc.get_traced_memory()[1])")
        src = Path(equidist.__file__).resolve().parent.parent
        out = subprocess.run([sys.executable, "-c", code, str(src)],
                             capture_output=True, text=True, check=True).stdout
        passed, peak = out.split()
        assert passed == "True"
        assert int(peak) <= 870 * 2**10

    @pytest.mark.parametrize("chunk", [1, 7, 32, 256])
    def test_an_insertion_counts_the_words_that_lack_its_letter(self, monkeypatch, chunk):
        """The report counts one row (t, k) per lemma word t and letter k
        that t lacks, and one row (sigma, l, k) per word sigma of lemma 6,
        letter l that sigma lacks and letter k that f(l, sigma) lacks,
        whatever the width of a chunk; the statistics of the words are
        computed once per word, not per row."""
        pairs = [(t, k) for t in LEMMA_WORDS for k in range(1, 9) if k not in t]
        triples = [(s, l, k) for s, l in pairs if len(s) <= equidist.LEMMA_MAX_LEN - 1
                   for k in range(1, 9) if k not in (l, *s)]
        assert (len(pairs), len(triples)) == (12279, 15890)
        monkeypatch.setattr(equidist, "CHUNK", chunk)
        values = {k: v["objects"] for k, v in verify_suite(0)["values"].items()}
        for key in ("fk", "fk.aid", "fk.des", "fk.aix", "gk", "gk.lec", "gk.pix"):
            assert values[key] == len(pairs)
        assert values["fl.fk"] == values["gl.gk"] == len(triples)
        # and S_0's one permutation
        assert values["aid"] == values["des"] == len(LEMMA_WORDS) + 1 == 3621


class TestCompiled:
    """A row claim compiles to a function of a whole table; its values, and
    those of each sub-expression, are the expression evaluated one row at a
    time, implications included."""

    @staticmethod
    def tables(over):
        """The chunk table of S_5, or the tables that over names (pairs or
        triples) of the lemma words of each length up to 3."""
        plan = functools.cache(lambda key, size: equidist._plan(key, size, None, None))
        if not over:
            return [equidist.Columns([*all_permutations(5)], {}, plan, equidist.Memo(5))]
        return [equidist._table({"": equidist.Columns([*equidist._words(n)], {}, plan)}, over)
                for n in range(4)]

    @staticmethod
    def at_row(expr, columns, i):
        if isinstance(expr, str):
            return columns[expr][i]
        if isinstance(expr, int):
            return expr
        op, *args = expr
        return op(*(TestCompiled.at_row(arg, columns, i) for arg in args))

    @pytest.mark.parametrize("claim", [c for c in equidist.CLAIMS
                                       if isinstance(c, equidist.Pointwise)],
                             ids=lambda c: c.label)
    def test_each_row_claim_matches_a_row_by_row_oracle(self, claim):
        def nodes(expr):
            yield expr
            for arg in expr[1:] if isinstance(expr, tuple) else ():
                yield from nodes(arg)

        rows = 0
        for columns in self.tables(claim.over):
            count = len(columns["p"])
            for expr in nodes(claim.holds):
                assert [*equidist._compiled(expr)(columns)] == [
                    self.at_row(expr, columns, i) for i in range(count)], expr
            rows += count
        # 8 - n letters k lack a word of length n, and 7 - n of them f(l, sigma)
        assert rows == {"": 120, "p": 8 + 49 + 252 + 1050,
                        "fl": 56 + 294 + 1260 + 4200, "gl": 56 + 294 + 1260 + 4200}[claim.over]

    def test_a_filtered_image_reads_its_own_words(self):
        """A statistic over a filtered column of p's words is p's, read on
        the rows it keeps; over a filtered column of images, it is the
        images' own."""
        columns = self.tables("")[0]
        perms, psi, inv = columns["p"], columns["psi"], columns["inv"]
        assert columns["avoider321.psi"] == [
            q for p, q in zip(perms, psi) if bijections.avoids(p, "321")]
        assert columns["avoider321.inv"] == [
            i for p, i in zip(perms, inv) if bijections.avoids(p, "321")]
        assert columns["psi.avoider312.inv"] == [
            stats.inv(q) for q in psi if bijections.avoids(q, "312")]
        assert set(columns.domains) == {"avoider321"}

    @staticmethod
    def s4_count(keys):
        """_count of keys over the one chunk of S_4, as a count map of tuples."""
        plan = functools.cache(lambda key, size: equidist._plan(key, size, None, None))
        counts = Counter()
        equidist._count(counts, equidist.Columns([*all_permutations(4)], {}, plan,
                                                 equidist.Memo(4)), keys)
        return equidist._keyed(counts, keys)

    @pytest.mark.parametrize("keys", [("avoider321.inv", "des"),
                                      ("avoider321.inv", "avoider312.inv"),
                                      ("psi.avoider312.inv", "des")])
    def test_a_tally_of_keys_on_different_rows_raises(self, keys):
        """14 rows against 24, or 14 avoiders of 321 against 14 of 312, or
        14 images against 24 rows: a tally would pair values of different
        permutations."""
        with pytest.raises(ValueError, match=re.escape(str(keys))):
            self.s4_count(keys)

    def test_a_tally_of_keys_on_one_domain_pairs_their_rows(self):
        avoiders = [p for p in all_permutations(4) if bijections.avoids(p, "321")]
        assert len(avoiders) == 14
        assert self.s4_count(("avoider321.inv", "avoider321.des")) == Counter(
            (stats.inv(p), stats.des(p)) for p in avoiders)

    def test_a_tally_of_keys_on_one_filtered_image_pairs_its_words(self):
        """psi.avoider312 keeps 14 images, which are no rows of p: both keys
        read its rows, named by its key."""
        images = [q for q in map(bijections.psi, all_permutations(4))
                  if bijections.avoids(q, "312")]
        assert len(images) == 14
        assert self.s4_count(("psi.avoider312.inv", "psi.avoider312.des")) == Counter(
            (stats.inv(q), stats.des(q)) for q in images)


def lemmas_pass(report):
    """Whether every claim of the lemma run passed."""
    return all(c["status"] == "pass" for c in report["claims"] if "len<=" in c["n_range"])


#: a permutation that neither phi nor psi fixes: on (1, 2, 3, 4), which phi
#: fixes, a wrong ini passes every claim
TARGET = (2, 4, 1, 3)
#: no claim reads imaj (aid = ai + des guards ai); only its oracle tests guard it
UNGUARDED = {"imaj"}


@pytest.mark.parametrize("name", [*stats.REGISTRY, "rawlings", "phi", "psi", "avoids", "f_insert"])
def test_every_kernel_verify_reads_fails_a_claim_when_wrong(monkeypatch, name):
    """One wrong value in a kernel fails some suite of verify_suite(4),
    but for the UNGUARDED statistic."""
    module = stats if hasattr(stats, name) else bijections
    real = getattr(module, name)
    if name == "f_insert":  # wrong on (5, TARGET) alone, a pair the lemmas insert
        def value(f, w):
            return f(5, w)

        def planted(k, t):
            return real(k, wrong if (k, t) == (5, TARGET) else t)
    else:  # tuple(w): ides and imaj call des and maj on a list
        def value(f, w):
            return (f(w, "321"), f(w, "312")) if name == "avoids" else f(w)

        def planted(w, *rest):
            return real(wrong if tuple(w) == TARGET else w, *rest)
    wrong = next(q for q in itertools.permutations(TARGET) if value(real, q) != value(real, TARGET))
    monkeypatch.setattr(module, name, planted)
    if name in stats.REGISTRY:
        monkeypatch.setitem(stats.REGISTRY, name, (planted, stats.REGISTRY[name][1]))
    assert value(planted, TARGET) != value(real, TARGET)
    suites = sorted(equidist.SUITES, key=lambda suite: suite.startswith("lemmas"))
    caught = any(not verify_suite(4, suite)["passed"] for suite in suites)
    assert caught is (name not in UNGUARDED)


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



@functools.cache
def q_binomial(n, k):
    """[n choose k]_q as coefficients of q^0, q^1, ..., by
    [n choose k]_q = [n-1 choose k-1]_q + q^k [n-1 choose k]_q."""
    if k in (0, n):
        return (1,)
    low, high = q_binomial(n - 1, k - 1), (0,) * k + q_binomial(n - 1, k)
    return tuple(map(sum, itertools.zip_longest(low, high, fillvalue=0)))


def shareshian_wachs(n):
    """{(fix, exc, maj): count} over S_n from A_0 = 1 and A_n = r^n +
    sum_{k=2..n} [n choose k]_q (tq + ... + (tq)^(k-1)) A_{n-k}, where
    A_n = sum q^maj t^exc r^fix (Shareshian & Wachs, 2007)."""
    rows = [Counter({(0, 0, 0): 1})]
    for m in range(1, n + 1):
        rows.append(Counter({(m, 0, 0): 1}))
        for k in range(2, m + 1):
            for (fix, exc, maj), count in rows[m - k].items():
                for i, c in enumerate(q_binomial(m, k)):
                    for j in range(1, k):
                        rows[m][fix, exc + j, maj + i + j] += count * c
    return dict(rows[n])


def stanley(n):
    """{(des, inv): count} over S_n from A_0 = 1 and A_n = t sum_{k=1..n}
    [n choose k]_q (1 - t)^(k-1) A_{n-k}, where A_n = sum t^(1+des) q^inv
    for n >= 1 (Stanley, 1976)."""
    rows = [Counter({(0, 0): 1})]
    for m in range(1, n + 1):
        rows.append(Counter())
        for k in range(1, m + 1):
            for (t, inv), count in rows[m - k].items():
                for i, c in enumerate(q_binomial(m, k)):
                    for j in range(k):
                        rows[m][t + 1 + j, inv + i] += count * c * math.comb(k - 1, j) * (-1) ** j
    if not n:
        return {(0, 0): 1}
    return {(t - 1, inv): count for (t, inv), count in rows[n].items() if count}


JOINT = [(("fix", "exc", "maj"), shareshian_wachs), (("pix", "lec", "inv"), shareshian_wachs),
         (("aix", "des", "aid"), shareshian_wachs), (("des", "inv"), stanley),
         (("das", "mix"), stanley)]
JOINT_IDS = [",".join(names) for names, _ in JOINT]


class TestJointClosedForms:
    """Joint distributions over S_n, n <= 8, against two recurrences with
    integer coefficients; the marginal oracles above cannot see a defect
    that moves values between permutations."""

    def test_recurrences_themselves(self):
        assert q_binomial(4, 2) == (1, 1, 2, 1, 1)
        assert shareshian_wachs(2) == {(2, 0, 0): 1, (0, 1, 1): 1}
        assert stanley(3) == {(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 1}
        for n in range(9):
            assert sum(shareshian_wachs(n).values()) == sum(stanley(n).values()) == math.factorial(n)

    @pytest.mark.parametrize("names,oracle", JOINT, ids=JOINT_IDS)
    def test_joint_distribution(self, names, oracle):
        for n in range(9):
            assert joint_distribution(all_permutations(n), names) == oracle(n)

    @pytest.mark.parametrize("names,oracle", JOINT, ids=JOINT_IDS)
    def test_table_rows(self, capsys, names, oracle):
        for n in range(9):
            assert main(["table", "--n", str(n), "--stats", ",".join(names), "--format", "json"]) == 0
            rows = json.loads(capsys.readouterr().out)["rows"]
            assert {tuple(value): count for value, count in rows} == oracle(n)

    def test_a_defect_that_keeps_the_marginals(self, monkeypatch):
        # swap the maj values of two permutations that differ in exc and maj
        p, q = (1, 2, 3, 4, 5), (2, 1, 3, 4, 5)
        assert (stats.exc(p), stats.maj(p)) != (stats.exc(q), stats.maj(q))
        plant_statistic(monkeypatch, "maj", {p: q, q: p})
        perms = list(all_permutations(5))
        assert joint_distribution(perms, ["maj"]) == mahonian(5)
        assert joint_distribution(perms, ["exc"]) == eulerian(5)
        assert joint_distribution(perms, ["fix", "exc", "maj"]) != shareshian_wachs(5)

class TestLemmaDomain:
    def test_lemma_words_are_distinct_and_bounded(self):
        words = [w for w in LEMMA_WORDS if len(w) <= 3]
        assert max(map(len, LEMMA_WORDS)) == equidist.LEMMA_MAX_LEN
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
