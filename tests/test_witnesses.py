"""Planted defects: each test breaks one map or statistic on chosen
permutations or words and pins the exact witness every claim of a real
suite reports.

A planted function evaluates the real one on substitute arguments (a
permutation or word with the same letters, or for f_insert a (k, t) pair
with the same letters), so it keeps the real function's signature and
return type.
"""
from permstat import bijections, stats
from permstat.equidist import verify_suite


def substituting(real, chosen):
    def planted(p, *rest):
        return real(chosen.get(p, p), *rest)

    return planted


def plant_map(monkeypatch, name, chosen):
    monkeypatch.setattr(bijections, name, substituting(getattr(bijections, name), chosen))


def plant_statistic(monkeypatch, name, chosen):
    """Patch a registry statistic at both names callers look it up by."""
    func, perm_only = stats.REGISTRY[name]
    planted = substituting(func, chosen)
    monkeypatch.setattr(stats, name, planted)
    monkeypatch.setitem(stats.REGISTRY, name, (planted, perm_only))


def witnesses(n_max, suite):
    report = verify_suite(n_max, suite)
    assert report["passed"] is False
    return {c["claim"]: c["witness"] for c in report["claims"]}


def test_pointwise_witness_is_smallest_failing_permutation_at_smallest_n(monkeypatch):
    # (1,2,4,3) is lexicographically smallest but lies in S_4.
    chosen = {(2, 3, 1): (2, 1, 3), (3, 1, 2): (1, 2, 3), (1, 2, 4, 3): (4, 3, 2, 1)}
    plant_map(monkeypatch, "phi", chosen)
    assert witnesses(4, "theorem1") == {
        "theorem1 (ini,aix,des,aid) phi = (ini,pix,lec,inv)": {
            "perm": [2, 3, 1],
            "lhs": [2, 0, 1, 1],
            "rhs": [2, 1, 1, 2],
        },
        "lemma1 ini phi = ini": {"perm": [3, 1, 2]},
        "lemma3 aid phi = inv": {"perm": [2, 3, 1]},
        "triple (fix,exc,maj)~(pix,lec,inv)~(aix,des,aid)": None,
    }


def test_psi_suite_witnesses(monkeypatch):
    plant_map(monkeypatch, "psi", {(3, 1, 2): (3, 2, 1), (1, 2, 4, 3): (1, 2, 3, 4)})
    assert witnesses(4, "psi") == {
        "psi involution": {"perm": [3, 2, 1]},
        "psi theorem (das,mix) psi = (des,inv)": {"perm": [3, 1, 2]},
        "psi swaps mix and inv": {"perm": [3, 1, 2]},
        "psi preserves left-to-right maxima": {"perm": [1, 2, 4, 3]},
    }


def test_distribution_pair_witness(monkeypatch):
    plant_statistic(monkeypatch, "das", {(1, 2, 3): (3, 1, 2)})
    got = witnesses(4, "classic")
    assert got.pop("eulerian des~das") == {"n": 3, "value": [0], "counts": [1, 0]}
    assert set(got.values()) == {None}


def test_rmaj_witness_names_first_failing_r(monkeypatch):
    # maj agrees on the two permutations, so r = 1 holds and r = 2 fails.
    monkeypatch.setattr(stats, "rawlings", substituting(stats.rawlings, {(2, 3, 1): (1, 3, 2)}))
    got = witnesses(4, "classic")
    assert got.pop("mahonian inv~rmaj:r (all r)") == {
        "n": 3,
        "r": 2,
        "value": [1],
        "counts": [2, 3],
    }
    assert set(got.values()) == {None}


def test_triple_witness_names_pix_lec_inv_first(monkeypatch):
    # fix sits on the base side, so both other tuples differ from it.
    plant_statistic(monkeypatch, "fix", {(1, 3, 2): (1, 2, 3)})
    got = witnesses(4, "theorem1")
    assert got.pop("triple (fix,exc,maj)~(pix,lec,inv)~(aix,des,aid)") == {
        "n": 3,
        "tuple": "pix,lec,inv",
        "value": [1, 1, 2],
        "counts": [0, 1],
    }
    assert set(got.values()) == {None}


def test_kratt_missing_images(monkeypatch):
    plant_map(monkeypatch, "psi", {(2, 3, 1): (1, 2, 3), (1, 3, 4, 2): (1, 2, 3, 4)})
    assert witnesses(4, "kratt") == {
        "avoidance classes have Catalan size": None,
        "psi maps 321-avoiders onto 312-avoiders": {"n": 3, "missing": [[2, 3, 1]]},
    }


def test_kratt_missing_images_are_the_three_smallest(monkeypatch):
    # psi is planted on five 321-avoiders of S_4: two go to the identity,
    # two to psi(24135) = 24315, outside S_4, and one to psi(4321) = 4123,
    # which contains 312; the witness is the first three of their own
    # images in lexicographic order
    outside = (2, 4, 1, 3, 5)
    plant_map(monkeypatch, "psi", {(4, 1, 2, 3): outside, (3, 4, 1, 2): (1, 2, 3, 4),
                                   (3, 1, 2, 4): (4, 3, 2, 1), (2, 4, 1, 3): outside,
                                   (1, 4, 2, 3): (1, 2, 3, 4)})
    assert witnesses(4, "kratt") == {
        "avoidance classes have Catalan size": None,
        "psi maps 321-avoiders onto 312-avoiders": {
            "n": 4, "missing": [[1, 4, 3, 2], [2, 4, 3, 1], [3, 2, 1, 4]]},
    }


# -- word-level lemmas -------------------------------------------------------------

WORDS = "words len<=5 on {1..7}, k<=8"
SIGMAS = "sigma len<=4 on {1..7}, k,l<=8"


def lemma_results(suite, n_max=0):
    """claim -> (checked, witness) of a lemma suite."""
    report = verify_suite(n_max, suite)
    return {c["claim"]: (c["checked"], c["witness"]) for c in report["claims"]}


def plant_insertion(monkeypatch, chosen):
    """f_insert(k, t) evaluates the real map on substitute arguments."""
    real = bijections.f_insert
    monkeypatch.setattr(bijections, "f_insert", lambda k, t: real(*chosen.get((k, t), (k, t))))


def test_lemmas_f_witnesses_under_a_planted_insertion(monkeypatch):
    # f(3, 12) = 312 instead of 321; f(3, 21) = 123 instead of 312;
    # f(2, 31) = 213 instead of 231.
    plant_insertion(monkeypatch, {(3, (1, 2)): (3, (2, 1)), (3, (2, 1)): (1, (2, 3)),
                                  (2, (3, 1)): (2, (1, 3))})
    assert lemma_results("lemmas-f") == {
        "lemma2 aid f(k,t) = aid t + |t<k|": (9, {"k": 3, "word": [1, 2]}),
        "monotonicity f (aix, des)": (10, {"k": 3, "word": [2, 1]}),
        "lemma4 f (aix, des)": (
            9, {"k": 3, "word": [1, 2], "before": [0, 2], "after": [1, 1]}),
        "lemma5 f (aix, des)": (10, {"k": 3, "word": [2, 1], "after": [0, 3]}),
        "lemma6 f (aix, des)": (2, {"k": 2, "l": 3, "sigma": [1]}),
    }


def test_lemmas_f_witnesses_under_an_insertion_that_gains_a_letter(monkeypatch):
    # f(5, 12) = 5312 instead of 521: the image has 3, so lemma 6 must not
    # insert 3 into it, though sigma = 12 lacks 3
    plant_insertion(monkeypatch, {(5, (1, 2)): (5, (3, 1, 2))})
    results = lemma_results("lemmas-f")
    assert results.pop("lemma2 aid f(k,t) = aid t + |t<k|") == (9, {"k": 5, "word": [1, 2]})
    assert len(results) == 4 and all(witness is None for _, witness in results.values())


def test_lemmas_f_witnesses_under_a_planted_aix(monkeypatch):
    plant_statistic(monkeypatch, "aix", {(2, 7, 1, 5): (2, 5, 7, 1)})
    assert lemma_results("lemmas-f") == {
        "lemma2 aid f(k,t) = aid t + |t<k|": (3620, None),
        "monotonicity f (aix, des)": (3620, None),
        "lemma4 f (aix, des)": (
            133, {"k": 2, "word": [7, 1, 5], "before": [1, 1], "after": [1, 0]}),
        "lemma5 f (aix, des)": (463, {"k": 3, "word": [2, 7, 1, 5], "after": [2, 0]}),
        "lemma6 f (aix, des)": (16, {"k": 2, "l": 7, "sigma": [5, 1]}),
    }


def test_lemmas_g_witnesses_under_a_planted_lec(monkeypatch):
    plant_statistic(monkeypatch, "lec", {(5, 2, 4, 1, 3): (1, 2, 3, 4, 5)})
    expected = {
        "monotonicity g (pix, lec)": (271, {"k": 5, "word": [2, 4, 1, 3]}),
        "lemma4 g (pix, lec)": (
            271, {"k": 5, "word": [2, 4, 1, 3], "before": [2, 1], "after": [0, 0]}),
        "lemma5 g (pix, lec)": (1207, {"k": 6, "word": [5, 2, 4, 1, 3], "after": [3, 1]}),
        "lemma6 g (pix, lec)": (85, {"k": 5, "l": 2, "sigma": [4, 1, 3]}),
    }
    assert lemma_results("lemmas-g") == expected
    assert lemma_results("lemmas-g", n_max=3) == expected  # the lemma words ignore n


def test_claims_and_ranges_of_the_whole_run():
    report = verify_suite(0, "all")
    perms = "n<=0"
    assert [(c["claim"], c["n_range"]) for c in report["claims"]] == [
        ("eulerian des~exc", perms),
        ("eulerian des~lec", perms),
        ("eulerian des~das", perms),
        ("mahonian inv~maj", perms),
        ("mahonian inv~aid", perms),
        ("mahonian inv~mix", perms),
        ("mahonian inv~rmaj:r (all r)", perms),
        ("theorem1 (ini,aix,des,aid) phi = (ini,pix,lec,inv)", perms),
        ("lemma1 ini phi = ini", perms),
        ("lemma3 aid phi = inv", perms),
        ("triple (fix,exc,maj)~(pix,lec,inv)~(aix,des,aid)", perms),
        ("lemma2 aid f(k,t) = aid t + |t<k|", WORDS),
        ("monotonicity f (aix, des)", WORDS),
        ("lemma4 f (aix, des)", WORDS),
        ("lemma5 f (aix, des)", WORDS),
        ("lemma6 f (aix, des)", SIGMAS),
        ("monotonicity g (pix, lec)", WORDS),
        ("lemma4 g (pix, lec)", WORDS),
        ("lemma5 g (pix, lec)", WORDS),
        ("lemma6 g (pix, lec)", SIGMAS),
        ("psi involution", perms),
        ("psi theorem (das,mix) psi = (des,inv)", perms),
        ("psi swaps mix and inv", perms),
        ("psi preserves left-to-right maxima", perms),
        ("rmaj:1 = maj", perms),
        ("rmaj:n = inv", perms),
        ("|Inv_2| = ides", perms),
        ("(ides,rmaj:2)~(exc,maj)", perms),
        ("avoidance classes have Catalan size", perms),
        ("psi maps 321-avoiders onto 312-avoiders", perms),
    ]


def test_the_lemma_suites_check_the_surgery_that_phi_folds(monkeypatch):
    # _insert swaps the letters of nodes 1 and 2 after inserting 5 into
    # 2413 alone, so f(5, 2413) = 52413 where it should be 54213
    real = bijections._insert

    def planted(val, kids, first, *rest):
        real(val, kids, first, *rest)
        if first == len(val) - 1 and val[1:] == [2, 4, 1, 3, 5]:
            val[1], val[2] = val[2], val[1]

    monkeypatch.setattr(bijections, "_insert", planted)
    assert lemma_results("lemmas-f") == {
        "lemma2 aid f(k,t) = aid t + |t<k|": (271, {"k": 5, "word": [2, 4, 1, 3]}),
        "monotonicity f (aix, des)": (3620, None),
        "lemma4 f (aix, des)": (
            271, {"k": 5, "word": [2, 4, 1, 3], "before": [1, 2], "after": [2, 1]}),
        "lemma5 f (aix, des)": (3620, None),
        "lemma6 f (aix, des)": (271, {"k": 6, "l": 5, "sigma": [2, 4, 1, 3]}),
    }
