"""Self-tests of the benchmark: oracles against brute force, traced against
untraced passes, and the result line.

    python3 -m pytest bench
"""
from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from collections import Counter
from math import factorial
from types import SimpleNamespace

import pytest

import oracles
import run
import tracing

permstat = run.load_permstat()
stats, bijections, cli = permstat.stats, permstat.bijections, permstat.cli


def perms(n):
    return itertools.permutations(range(1, n + 1))


def brute_inv(w):
    return sum(1 for a, b in itertools.combinations(w, 2) if a > b)


def brute_des(w):
    return sum(1 for a, b in zip(w, w[1:]) if a > b)


def brute_ai(w):
    n = len(w)
    return sum(
        1
        for i, j in itertools.combinations(range(n), 2)
        if w[i] > w[j]
        and ((j + 1 < n and w[j] < w[j + 1]) or any(w[k] < w[j] for k in range(i + 1, j)))
    )


def brute_mix(w):
    return sum(
        1
        for i, j in itertools.combinations(range(len(w)), 2)
        if (w[i] > w[j] and all(w[k] < w[i] for k in range(i)))
        or (w[i] < w[j] and any(w[k] > w[j] for k in range(i)))
    )


def brute_rmaj(w, r):
    return sum(i + 1 for i in range(len(w) - 1) if w[i] - w[i + 1] >= r) + sum(
        1 for a, b in itertools.combinations(w, 2) if 0 < a - b < r
    )


def brute_contains(w, pattern):
    order = sorted(range(3), key=lambda i: pattern[i])
    return any(t[order[0]] < t[order[1]] < t[order[2]] for t in itertools.combinations(w, 3))


@pytest.mark.parametrize("n", range(7))
def test_closed_forms_match_brute_force(n):
    assert oracles.eulerian(n) == Counter(brute_des(p) for p in perms(n))
    assert oracles.mahonian(n) == Counter(brute_inv(p) for p in perms(n))
    fixed = Counter(sum(1 for i, x in enumerate(p, 1) if x == i) for p in perms(n))
    assert oracles.rencontres(n) == fixed


@pytest.mark.parametrize("n", range(1, 7))
def test_statistics_match_brute_force_and_permstat(n):
    for p in perms(n):
        got = oracles.statistics(p)
        assert got["inv"] == brute_inv(p)
        assert got["des"] == brute_des(p)
        assert got["ai"] == brute_ai(p)
        assert got["mix"] == brute_mix(p)
        assert got["rmaj:2"] == brute_rmaj(p, 2) and got["rmaj:3"] == brute_rmaj(p, 3)
        assert oracles.contains_321(p) == brute_contains(p, (3, 2, 1))
        assert oracles.contains_312(p) == brute_contains(p, (3, 1, 2))
        assert got == dict(stats.stat_vector(p, run.TABLE_STATS))


@pytest.mark.parametrize("n", range(1, 9))
def test_decreasing_closed_forms(n):
    w = tuple(range(n, 0, -1))
    closed = oracles.decreasing_closed_forms(n)
    assert closed == {k: v for k, v in oracles.statistics(w).items() if k in closed}
    assert closed == {k: v for k, v in stats.stat_vector(w, list(closed))}


@pytest.mark.parametrize("n", range(1, 7))
def test_identities_hold_on_permstat_maps(n):
    for p in perms(n):
        s = oracles.statistics(p)
        phi, pre, psi = bijections.phi(p), bijections.phi_inverse(p), bijections.psi(p)
        assert oracles.phi_identity(s, oracles.statistics(phi))
        assert oracles.phi_identity(oracles.statistics(pre), s)
        assert oracles.psi_identity(p, psi, s, oracles.statistics(psi))


def table_csv(n, names):
    rc, text = run.capture(cli.main, ["table", "--n", str(n), "--stats", ",".join(names), "--format", "csv"])
    assert rc == 0
    return text


def test_table_oracle_accepts_permstat_and_rejects_a_changed_count():
    text = table_csv(5, run.TABLE_STATS)
    assert oracles.check_table(text, 5) == []
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    cells[-1] = str(int(cells[-1]) + 1)
    assert oracles.check_table("\n".join([header, ",".join(cells), *rest]), 5)


def test_phi_inverse_probe_gives_the_recursion_error_or_ok():
    # f_uninsert recurses once per letter on a decreasing word, so a recursive
    # implementation raises RecursionError here; an iterative one gives "ok".
    assert run.probe_phi_inverse(permstat) in {"RecursionError", "ok"}


def fake_permstat(phi, phi_inverse):
    return SimpleNamespace(bijections=SimpleNamespace(phi=phi, phi_inverse=phi_inverse))


def raises(exc):
    def f(w):
        raise exc
    return f


@pytest.mark.parametrize("phi_inverse, outcome", [
    (lambda w: w, "ok"),
    (raises(RecursionError()), "RecursionError"),
    (lambda w: tuple(reversed(w)), "wrong"),
    (raises(ValueError("bad word")), "ValueError"),
])
def test_phi_inverse_probe_names_each_outcome(phi_inverse, outcome):
    fake = fake_permstat(lambda w: w, phi_inverse)
    assert run.probe_phi_inverse(fake, 6) == outcome


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(run, "N", 5)
    monkeypatch.setattr(run, "RANDOM_SIZE", 60)
    monkeypatch.setattr(run, "DECREASING_SIZE", 30)


def test_longword_check_flags_a_wrong_image(small):
    workload = run.Longword(permstat, seed=3)
    _, outputs = run.run_pass(workload.ops())
    verdicts, problems = workload.check(outputs)
    assert all(verdicts) and not problems
    bad = list(outputs)
    i = workload.op_names.index("random60:phi")
    bad[i] = tuple(reversed(bad[i]))
    verdicts, _ = workload.check(bad)
    assert verdicts.count(False) == 1 and not verdicts[i]


@pytest.mark.parametrize("name", ["verify", "table", "longword"])
def test_traced_pass_matches_untraced_and_restores_permstat(small, name):
    workload = run.WORKLOADS[name](permstat, seed=5)
    _, untraced = run.run_pass(workload.ops())
    before = {
        (mod.__name__, attr): getattr(mod, attr)
        for mod in (cli, permstat.core, permstat.equidist, stats, bijections)
        for attr in dir(mod)
    }
    registry = dict(stats.REGISTRY)
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(permstat)
        wall, traced = run.run_pass(workload.traced_ops(tracer))
    assert traced == untraced
    assert all(workload.check(traced)[0])
    assert stats.REGISTRY == registry
    assert before == {key: getattr(sys.modules[key[0]], key[1]) for key in before}
    metrics = tracer.metrics(wall, 0.0, workload.domain)
    layer_self = sum(v for k, (v, _) in metrics.items() if k.endswith("self_s") and k.count(".") == 1)
    assert layer_self <= wall and metrics["trace.unattributed_s"][0] < 0.05 * wall + 0.01


def test_enum_ratio_is_one_on_table_and_above_one_on_verify(small):
    ratios = {}
    for name in ("table", "verify"):
        workload = run.WORKLOADS[name](permstat, seed=1)
        workload.domain = sum(factorial(n) for n in range(6)) if name == "verify" else factorial(5)
        tracer = tracing.Tracer()
        with tracer:
            tracer.install(permstat)
            wall, _ = run.run_pass(workload.traced_ops(tracer))
        ratios[name] = tracer.metrics(wall, 0.0, workload.domain)["equidist.enum_ratio"][0]
    assert ratios["table"] == 1.0 and ratios["verify"] > 1.0


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_result_line_names_every_declared_metric(small, capsys):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "longword", "--seed", "2", "--seconds", "0", "--trace", str(trace)]) == 0
        result = last_json(capsys.readouterr().out)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert [m["name"] for m in declared[key]] == list(result["metrics"])
        assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared[key])


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
