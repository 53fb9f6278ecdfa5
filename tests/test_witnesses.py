"""Planted defects: each test breaks one map or statistic on chosen
permutations and pins the exact witness every claim of a real suite reports.

A planted function evaluates the real one on a substitute permutation of
the same size, so it keeps the real function's signature and return type.
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
