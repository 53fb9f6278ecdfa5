"""End-to-end acceptance checks, one per headline claim of the library.

Each test prints a single "ACCEPT pass|fail <name>" line so a plain
`pytest -s tests/test_acceptance.py` reads as a checklist.
"""
import csv
import io

from helpers import all_perms, words_on

from permstat import bijections, stats
from permstat.cli import main
from permstat.equidist import distributions_equal, joint_distribution, verify_suite
from test_stats import identity, inv_set_r

N_MAX = 8


def report(name, ok):
    print(f"ACCEPT {'pass' if ok else 'fail'} {name}")
    assert ok, name


def test_01_theorem_quadruple_pointwise():
    ok = True
    for n in range(1, N_MAX + 1):
        for p in all_perms(n):
            q = bijections.phi(p)
            left = (stats.ini(q), stats.aix(q), stats.des(q), stats.aid(q))
            right = (stats.ini(p), stats.pix(p), stats.lec(p), stats.inv(p))
            if left != right:
                ok = False
                break
        if not ok:
            break
    report("theorem: (ini,aix,des,aid) phi = (ini,pix,lec,inv), n<=8", ok)


def test_02_psi_involution_and_transfer():
    ok = True
    for n in range(N_MAX + 1):
        for p in all_perms(n):
            q = bijections.psi(p)
            if bijections.psi(q) != p:
                ok = False
            elif p and (stats.das(q), stats.mix(q)) != (stats.des(p), stats.inv(p)):
                ok = False
            elif p and stats.inv(q) != stats.mix(p):
                ok = False
            if not ok:
                break
        if not ok:
            break
    report("psi involution with (das,mix) psi = (des,inv) and mix<->inv, n<=8", ok)


def test_03_triple_equidistribution():
    ok = True
    for n in range(N_MAX + 1):
        base = joint_distribution(all_perms(n), ["fix", "exc", "maj"])
        for names in (["pix", "lec", "inv"], ["aix", "des", "aid"]):
            other = joint_distribution(all_perms(n), names)
            if not distributions_equal(base, other)[0]:
                ok = False
                break
        if not ok:
            break
    report("(fix,exc,maj) ~ (pix,lec,inv) ~ (aix,des,aid) on S_n, n<=8", ok)


def test_04_insertion_lemmas():
    f_report = verify_suite(0, "lemmas-f")
    g_report = verify_suite(0, "lemmas-g")
    ok = f_report["passed"] and g_report["passed"]
    report("insertion lemmas for f (aix,des) and g (pix,lec) on bounded words", ok)


def test_05_aix_bound():
    ok = True
    for w in words_on(range(1, 8), 5):
        if stats.aix(w) > 1 + stats.pix(w):
            ok = False
            break
    report("aix <= 1 + pix on bounded words", ok)


def test_06_rawlings_family():
    ok = True
    for n in range(1, N_MAX + 1):
        for p in all_perms(n):
            if stats.rawlings(p, 1) != stats.maj(p):
                ok = False
            elif stats.rawlings(p, n) != stats.inv(p):
                ok = False
            elif len(inv_set_r(p, 2)) != stats.ides(p):
                ok = False
            if not ok:
                break
        if ok:
            a = joint_distribution(all_perms(n), ["ides", "rmaj:2"])
            b = joint_distribution(all_perms(n), ["exc", "maj"])
            ok = distributions_equal(a, b)[0]
        if not ok:
            break
    report("rawlings: rmaj:1=maj, rmaj:n=inv, |Inv_2|=ides, (ides,rmaj:2)~(exc,maj), n<=8", ok)


def test_07_hook_factorization_unique():
    def is_hook(w):
        return len(w) >= 2 and w[0] > w[1] and all(a <= b for a, b in zip(w[1:], w[2:]))

    def candidates(w):
        def hooks_of(rest):
            if not rest:
                yield ()
                return
            for cut in range(2, len(rest) + 1):
                if is_hook(rest[:cut]):
                    for tail in hooks_of(rest[cut:]):
                        yield (rest[:cut],) + tail

        found = []
        for split in range(len(w) + 1):
            pi0 = w[:split]
            if any(pi0[i] > pi0[i + 1] for i in range(len(pi0) - 1)):
                continue
            found.extend((pi0, hooks) for hooks in hooks_of(w[split:]))
        return found

    ok = True
    for w in words_on(range(1, 8), 6):
        hf = stats.hook_factorization(w)
        if hf.pi0 + sum(hf.hooks, ()) != w or candidates(w) != [(hf.pi0, hf.hooks)]:
            ok = False
            break
    report("hook factorization exists, reconstructs, and is unique (words len<=6)", ok)


def test_08_psi_on_pattern_classes():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    ok = True
    for n in range(N_MAX + 1):
        avoid321 = {p for p in all_perms(n) if bijections.avoids(p, 321)}
        avoid312 = {p for p in all_perms(n) if bijections.avoids(p, 312)}
        if len(avoid321) != catalan[n] or len(avoid312) != catalan[n]:
            ok = False
        elif {bijections.psi(p) for p in avoid321} != avoid312:
            ok = False
        elif {bijections.psi(p) for p in avoid312} != avoid321:
            ok = False
        if not ok:
            break
    report("psi exchanges 321- and 312-avoiders; classes have Catalan size, n<=8", ok)


def test_09_round_trips(capsys):
    ok = True
    for n in range(N_MAX + 1):
        for p in all_perms(n):
            if bijections.phi_inverse(bijections.phi(p)) != p:
                ok = False
            elif bijections.phi(bijections.phi_inverse(p)) != p:
                ok = False
            if not ok:
                break
        if not ok:
            break
    if ok:
        code = main(["table", "--n", "6", "--stats", "des,inv,maj", "--format", "csv"])
        csv_text = capsys.readouterr().out
        header, *rows = csv.reader(io.StringIO(csv_text))
        rebuilt = {tuple(int(x) for x in row[:-1]): int(row[-1]) for row in rows}
        direct = joint_distribution(all_perms(6), ["des", "inv", "maj"])
        ok = code == 0 and header[:-1] == ["des", "inv", "maj"]
        ok = ok and distributions_equal(rebuilt, direct)[0]
    with capsys.disabled():
        report("phi/phi_inverse round trips n<=8; table CSV round trip lossless", ok)


def test_10_mix_of_identity():
    ok = all(stats.mix(identity(n)) == 0 for n in range(11))
    report("mix(identity_n) = 0 for n <= 10", ok)


def test_full_verification_suite(verify_8):
    ok = verify_8["n_max"] == N_MAX and verify_8["suite"] == "all" and verify_8["passed"]
    report("verify_suite n<=8: every claim in every suite passes", ok)
