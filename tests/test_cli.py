import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest
from helpers import all_perms

from permstat import bijections, equidist, stats
from permstat.cli import main
from permstat.equidist import all_permutations, distributions_equal, joint_distribution


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table_csv(text):
    """The header and the count map of a table printed with --format csv."""
    header, *rows = csv.reader(io.StringIO(text))
    return header, {tuple(int(x) for x in row[:-1]): int(row[-1]) for row in rows}


class TestStatsCommand:
    def test_named_stats(self, capsys):
        code, out, _ = run(capsys, "stats", "312", "--names", "ini,pix,lec,inv")
        assert code == 0
        assert out == "ini=3 pix=0 lec=2 inv=2\n"

    def test_aix_example(self, capsys):
        code, out, _ = run(capsys, "stats", "258963714", "--names", "aix")
        assert code == 0
        assert out == "aix=2\n"

    def test_default_names_permutation(self, capsys):
        code, out, err = run(capsys, "stats", "321")
        assert code == 0
        assert err == ""
        pairs = dict(item.split("=") for item in out.split())
        assert pairs["des"] == "2" and pairs["inv"] == "3" and pairs["exc"] == "1"

    def test_default_names_empty_word(self, capsys):
        code, out, err = run(capsys, "stats", "")
        assert (code, err) == (0, "")
        assert out == ("des=0 exc=0 inv=0 maj=0 fix=0 imaj=0 ides=0 ai=0 aid=0"
                       " lec=0 pix=0 aix=0 mix=0 das=0\n")

    def test_default_names_word_skips_permutation_only(self, capsys):
        code, out, err = run(capsys, "stats", "2 5 9")
        assert code == 0
        assert "not a permutation" in err
        names = {item.split("=")[0] for item in out.split()}
        assert "des" in names and "aid" in names
        assert names.isdisjoint({"exc", "fix", "imaj", "ides", "mix", "das"})

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "stats", "312", "--names", "des,inv", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"word": "312", "stats": {"des": 1, "inv": 2}}

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "stats", "312", "--names", "des,inv", "--format", "csv")
        assert code == 0
        assert out == "des,inv\n1,2\n"

    def test_rmaj_name(self, capsys):
        code, out, _ = run(capsys, "stats", "312", "--names", "rmaj:2")
        assert code == 0
        assert out == "rmaj:2=2\n"

    def test_unknown_name_is_usage_error(self, capsys):
        code, _, err = run(capsys, "stats", "312", "--names", "bogus")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("names", ["", ",,", " , "])
    def test_empty_name_list_is_usage_error(self, capsys, names):
        code, out, err = run(capsys, "stats", "312", "--names", names)
        assert code == 1 and out == ""
        assert err == f"error: no statistic name in {names!r}\n"

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "stats", "3,1,2")
        assert code == 1
        assert "error" in err

    def test_letters_are_ascii_digits(self, capsys):
        # int() would read "1_0" as 10
        code, out, err = run(capsys, "stats", "1_0 2", "--names", "inv,des")
        assert (code, out) == (1, "")
        assert "cannot parse" in err

    def test_digit_that_is_not_decimal_is_parse_error(self, capsys):
        # "\u00b2".isdigit() holds, but int() cannot read it
        code, _, err = run(capsys, "stats", "1\u00b2")
        assert code == 1
        assert "cannot parse" in err


class TestMapCommand:
    def test_phi(self, capsys):
        code, out, _ = run(capsys, "map", "--phi", "312")
        assert code == 0
        assert out == "321\n"

    def test_phi_inverse(self, capsys):
        code, out, _ = run(capsys, "map", "--phi-inverse", "321")
        assert code == 0
        assert out == "312\n"

    def test_psi(self, capsys):
        code, out, _ = run(capsys, "map", "--psi", "321")
        assert code == 0
        assert out == "312\n"

    def test_phi_trace(self, capsys):
        # byte for byte: every rule, the b/c overlap on one letter, and a
        # two-digit letter
        expected = {
            "312": "insert 2: base\ninsert 1: d\ninsert 3: b,b,base\n321\n",
            "52143": "insert 3: base\ninsert 4: b,base\ninsert 1: d\ninsert 2: b,d\n"
            "insert 5: c\n51243\n",
            "4213756": "insert 6: base\ninsert 5: d\ninsert 7: b,b,base\ninsert 3: d\n"
            "insert 1: d\ninsert 2: b,d\ninsert 4: c\n4123765\n",
            "7654321": "insert 1: base\ninsert 2: b,base\ninsert 3: c\ninsert 4: a,b,base\n"
            "insert 5: a,c\ninsert 6: a,a,b,base\ninsert 7: a,a,c\n7563412\n",
            "10 2 1 3 4 5 6 7 8 9": "insert 9: base\ninsert 8: d\ninsert 7: d\ninsert 6: d\n"
            "insert 5: d\ninsert 4: d\ninsert 3: d\ninsert 1: d\ninsert 2: b,d\n"
            "insert 10: c\n10 1 2 3 4 5 6 7 8 9\n",
        }
        for perm, out in expected.items():
            assert run(capsys, "map", "--phi", perm, "--trace")[:2] == (0, out)

    def test_psi_trace(self, capsys):
        # byte for byte: one maximum, sets of one letter, an empty set in
        # the middle of the chain, and a two-digit maximum
        expected = {
            "312": "mirror {1,2}\n321\n",
            "2413": "mirror {1,3}\nmirror {1}\nmirror {1}\n2431\n",
            "21543": "mirror {3,4}\nmirror {}\nmirror {1}\n21534\n",
            "4213756": "mirror {5,6}\nmirror {}\nmirror {1,2,3}\n4231765\n",
            "10 2 1 3 4 5 6 7 8 9": "mirror {1,2,3,4,5,6,7,8,9}\n10 8 9 7 6 5 4 3 2 1\n",
        }
        for perm, out in expected.items():
            assert run(capsys, "map", "--psi", perm, "--trace")[:2] == (0, out)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "map", "--phi", "312", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"input": "312", "output": "321"}

    def test_json_trace(self, capsys):
        # the whole of stdout is one JSON object, the trace inside it
        code, out, _ = run(capsys, "map", "--phi", "321", "--trace", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"input": "321", "output": "312",
                                   "trace": [["base"], ["b", "base"], ["c"]]}
        code, out, _ = run(capsys, "map", "--psi", "2413", "--trace", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"input": "2413", "output": "2431",
                                   "trace": [[1, 3], [1], [1]]}
        code, out, _ = run(capsys, "map", "--phi-inverse", "321", "--trace", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"input": "321", "output": "312",
                                   "trace": [["base"], ["d"], ["b", "b", "base"]]}

    def test_phi_inverse_trace(self, capsys):
        # the traces of the fold that rebuilds the input from its preimage,
        # so the same insert lines as --phi on that preimage
        assert run(capsys, "map", "--phi-inverse", "321", "--trace")[:2] == (
            0, "insert 2: base\ninsert 1: d\ninsert 3: b,b,base\n312\n")
        for p in (p for n in range(1, 5) for p in all_permutations(n)):
            perm = "".join(map(str, p))
            _, forward, _ = run(capsys, "map", "--phi", perm, "--trace")
            *lines, image = forward.splitlines()
            _, back, _ = run(capsys, "map", "--phi-inverse", image, "--trace")
            assert back.splitlines() == [*lines, perm]
            _, forward, _ = run(capsys, "map", "--phi", perm, "--trace", "--format", "json")
            _, back, _ = run(capsys, "map", "--phi-inverse", image, "--trace", "--format", "json")
            assert json.loads(back)["trace"] == json.loads(forward)["trace"]

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_a_phi_inverse_trace_whose_fold_misses_the_input_fails(self, capsys, monkeypatch, fmt):
        # the peeling planted to rotate its output: the preimage of 31524 is
        # 51423, whose fold ends at 52431, so no trace of it is printed
        real = bijections._uninsert
        monkeypatch.setattr(bijections, "_uninsert",
                            lambda kids, count: (lambda out: out[1:] + out[:1])(real(kids, count)))
        code, out, err = run(capsys, "map", "--phi-inverse", "31524", "--trace", "--format", fmt)
        assert (code, out) == (3, "")
        assert err == "error: the preimage 51423 folds to 52431, not to the input 31524\n"

    def test_exactly_one_direction_required(self, capsys):
        code, _, _ = run(capsys, "map", "312")
        assert code == 1
        code, _, _ = run(capsys, "map", "--phi", "--psi", "312")
        assert code == 1

    def test_requires_permutation(self, capsys):
        code, _, err = run(capsys, "map", "--phi", "2 5 9")
        assert code == 1
        assert "error" in err


class TestVerifyCommand:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "psi")
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)
        assert lines[0] == "PASS psi involution [n<=4] checked=34"

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "kratt", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True and report["schema"] == 3

    def test_cap_exceeded_exit_2(self, capsys, monkeypatch):
        monkeypatch.delenv("PERMSTAT_NMAX", raising=False)
        code, _, err = run(capsys, "verify", "--n", "11", "--suite", "psi")
        assert code == 2
        assert err == "error: n=11 exceeds the cap 10 (raise PERMSTAT_NMAX to override)\n"

    @pytest.mark.parametrize("argv", [(), ("--n", "11")])
    def test_an_unknown_suite_is_a_usage_error_that_lists_the_suites(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv, "--suite", "bogus")
        assert code == 1 and out == ""
        assert "'bogus'" in err
        assert all(repr(suite) in err for suite in equidist.SUITES)

    def test_env_raises_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PERMSTAT_NMAX", "3")
        code, _, _ = run(capsys, "verify", "--n", "4", "--suite", "psi")
        assert code == 2
        monkeypatch.setenv("PERMSTAT_NMAX", "4")
        code, _, _ = run(capsys, "verify", "--n", "4", "--suite", "psi")
        assert code == 0

    def test_failing_claim_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            equidist,
            "verify_suite",
            lambda n, suite: {
                "schema": 3,
                "suite": suite,
                "n_max": n,
                "cap": 10,
                "python": "3.11.7",
                "seconds": 0.0,
                "passed": False,
                "claims": [
                    {
                        "claim": "planted failure",
                        "status": "fail",
                        "n_range": "n<=1",
                        "checked": 2,
                        "witness": {"perm": [1]},
                    }
                ],
                "values": {"des": {"objects": 2, "seconds": 0.0}},
            },
        )
        code, out, _ = run(capsys, "verify", "--n", "1")
        assert code == 3
        assert out == 'FAIL planted failure [n<=1] checked=2 witness={"perm": [1]}\n'

    def test_negative_n_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "-1")
        assert code == 1 and out == ""
        assert "n=-1" in err

    @pytest.mark.parametrize("raw", ["abc", "-3", "٣", "８"])
    def test_malformed_cap_is_usage_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("PERMSTAT_NMAX", raw)
        code, out, err = run(capsys, "verify", "--n", "2", "--suite", "psi")
        assert code == 1 and out == ""
        assert f"PERMSTAT_NMAX={raw!r}" in err

    @pytest.mark.parametrize("argv", [("verify", "--suite", "psi"), ("table", "--stats", "des")])
    @pytest.mark.parametrize("raw", ["٣", "８", "1_1", "+3", "- 3", "3.0", ""])
    def test_n_is_ascii_digits(self, capsys, argv, raw):
        code, out, err = run(capsys, *argv, "--n", raw)
        assert code == 1 and out == ""
        assert f"n={raw!r} is not a non-negative integer" in err


class TestTableCommand:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "3", "--stats", "des")
        assert code == 0
        assert out == "0 -> 1\n1 -> 4\n2 -> 1\n"

    def test_n_zero_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "0", "--stats", "inv")
        assert code == 0
        assert out == "0 -> 1\n"

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n", "5", "--stats", "des,inv", "--format", "csv"
        )
        assert code == 0
        header, rebuilt = parse_table_csv(out)
        assert header == ["des", "inv", "count"]
        direct = joint_distribution(all_permutations(5), ["des", "inv"])
        equal, witness = distributions_equal(rebuilt, direct)
        assert equal and witness is None
        assert sum(rebuilt.values()) == 120

    def test_avoiding_source(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n", "4", "--stats", "inv", "--source", "avoid321",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["total"] == 14

    @pytest.mark.parametrize("source", ["avoid321", "avoid312"])
    def test_avoiding_sources_have_catalan_totals(self, capsys, source):
        for n in range(8):
            code, out, _ = run(capsys, "table", "--n", str(n), "--stats", "des",
                               "--source", source, "--format", "json")
            assert code == 0
            assert json.loads(out)["total"] == math.comb(2 * n, n) // (n + 1)

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_rmaj_rows_against_a_direct_count(self, capsys, fmt):
        """Each format prints, in sorted value order, the rows of a count of
        rawlings(p, r) and inv(p) made per permutation, not by columns."""
        names = ["rmaj:3", "inv", "rmaj:2", "rmaj:9"]
        counts = Counter(
            (stats.rawlings(p, 3), stats.inv(p), stats.rawlings(p, 2), stats.rawlings(p, 9))
            for p in all_perms(5)
        )
        rows = sorted(counts.items())
        if fmt == "json":
            expected = json.dumps({"stats": names, "n": 5, "source": "all",
                                   "rows": [[list(v), c] for v, c in rows], "total": 120}) + "\n"
        elif fmt == "csv":
            expected = "".join(",".join(map(str, row)) + "\n"
                               for row in [names + ["count"]] + [[*v, c] for v, c in rows])
        else:
            expected = "".join(" ".join(map(str, v)) + f" -> {c}\n" for v, c in rows)
        code, out, _ = run(capsys, "table", "--n", "5", "--stats", ",".join(names), "--format", fmt)
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("value", [-1, 256])
    def test_a_value_outside_a_byte_prints_the_rows_of_a_direct_count(
            self, capsys, monkeypatch, value):
        """des planted to return value on 31524, which no bytes row holds:
        the table counts tuples and prints them sorted, as from a tuple per
        permutation."""
        real = stats.des

        def planted(p):
            return value if p == (3, 1, 5, 2, 4) else real(p)

        monkeypatch.setattr(stats, "des", planted)
        monkeypatch.setitem(stats.REGISTRY, "des", (planted, False))
        counts = Counter((planted(p), stats.inv(p), stats.maj(p)) for p in all_perms(5))
        expected = "des,inv,maj,count\n" + "".join(
            ",".join(map(str, (*v, c))) + "\n" for v, c in sorted(counts.items()))
        code, out, _ = run(capsys, "table", "--n", "5", "--stats", "des,inv,maj", "--format", "csv")
        assert code == 0
        assert out == expected and f"\n{value}," in out

    def test_json_rows_sorted(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "4", "--stats", "maj", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        values = [tuple(v) for v, _ in rows]
        assert values == sorted(values)

    def test_cap_exceeded(self, capsys):
        code, _, _ = run(capsys, "table", "--n", "11", "--stats", "des")
        assert code == 2

    def test_negative_n_is_usage_error(self, capsys):
        code, out, err = run(capsys, "table", "--n", "-2", "--stats", "des")
        assert code == 1 and out == ""
        assert "n=-2" in err

    @pytest.mark.parametrize(
        "name", ["foo", "inverse", "phi.des", "rmaj:n", "rmaj:x", "rmaj: 2", "rmaj:+2", "rmaj:\u0662"]
    )
    def test_unknown_statistic_is_usage_error(self, capsys, name):
        code, out, err = run(capsys, "table", "--n", "3", "--stats", f"des,{name}")
        assert code == 1 and out == ""
        assert err == f"error: unknown statistic {name!r}\n"

    def test_rmaj_zero_is_usage_error(self, capsys):
        code, out, err = run(capsys, "table", "--n", "3", "--stats", "rmaj:0")
        assert code == 1 and out == ""
        assert err == "error: r must be >= 1\n"

    def test_empty_names(self, capsys):
        for names in ("", ",,", " , "):
            error = f"error: no statistic name in {names!r}\n"
            assert run(capsys, "table", "--n", "3", "--stats", names) == (1, "", error)
        _, expected, _ = run(capsys, "table", "--n", "3", "--stats", "des,inv")
        assert run(capsys, "table", "--n", "3", "--stats", "des,,inv") == (0, expected, "")

    def test_ini_of_the_empty_permutation_is_usage_error(self, capsys):
        code, out, err = run(capsys, "table", "--n", "0", "--stats", "ini")
        assert code == 1 and out == ""
        assert "empty word" in err

    def test_deterministic_output(self, capsys):
        outputs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "table", "--n", "5", "--stats", "des,maj,inv",
                            "--format", "csv")
            outputs.add(out)
        assert len(outputs) == 1


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1


@pytest.mark.parametrize("argv", [["map", "--psi", "312"], ["verify", "--n", "2"]])
def test_csv_only_on_commands_that_print_rows(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 1 and out == ""
    assert "invalid choice: 'csv'" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0


def test_import_leaves_dataclasses_out():
    # -S skips site, whose own imports could pull dataclasses in; building the
    # parser loads no statistic, bijection or engine either
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import permstat.cli; "
            "permstat.cli.build_parser(); print(sorted({'dataclasses', 'permstat.equidist', "
            "'permstat.stats', 'permstat.bijections'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("argv", [[], ["stats", "312"], ["map", "--phi", "312"]],
                         ids=["parser", "stats", "map"])
def test_a_light_start_loads_no_json_csv_or_typing(argv):
    # under -S, as above: with no argv the child only builds the parser; stats
    # and map print plain output, so neither needs the engine
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import permstat.cli; "
            "permstat.cli.main(sys.argv[2:]) if sys.argv[2:] else permstat.cli.build_parser(); "
            "print(sorted({'json', 'csv', 'typing', 'permstat.equidist'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src), *argv],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_the_package_exports_each_name_from_its_home_module():
    import permstat
    from permstat import bijections

    homes = {"REGISTRY": stats, "verify_suite": equidist}
    starred = {}
    exec("from permstat import *", starred)
    for name in permstat.__all__:
        exported = getattr(permstat, name)
        if isinstance(exported, types.ModuleType):
            assert exported is importlib.import_module(f"permstat.{name}")
        else:
            assert exported is getattr(homes.get(name, bijections), name), name
        assert starred[name] is exported
    for name in ("bogus", "cli.bogus", "a.b", "."):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(permstat, name)


@pytest.mark.parametrize("argv, nmax, code", [
    (["verify", "--n", "3", "--suite", "classic"], None, 0),
    (["stats", "0"], None, 1),
    (["verify", "--n", "3"], "2", 2),
    (["verify", "--n", "0", "--suite", "theorem1"], None, 3),
])
def test_the_module_exits_with_mains_code(argv, nmax, code):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    env.pop("PERMSTAT_NMAX", None)
    if nmax is not None:
        env["PERMSTAT_NMAX"] = nmax
    done = subprocess.run([sys.executable, "-m", "permstat.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == code, done.stderr
