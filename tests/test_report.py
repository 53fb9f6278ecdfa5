"""The reports of verify_suite(0) and verify_suite(8), pinned: every
claim's label, status, range, checked count and witness, and every values
key with its objects. At n = 0 the permutation claims see S_0 alone, so
that report is mostly the lemma run, which does not depend on n. The
report of verify_suite(0) is pinned under a few planted defects too, and
the table over the benchmark's 17 statistics by its md5 and its traced
peak.

A change that moves these reports on purpose regenerates the fixtures with
`PYTHONPATH=src python tests/test_report.py` and lists the diff.
"""
import contextlib
import hashlib
import json
import os
import tracemalloc
from pathlib import Path

import pytest
from test_witnesses import plant_insertion, plant_statistic

from permstat.cli import main
from permstat.equidist import verify_suite

FIELDS = ("claim", "status", "n_range", "checked", "witness")

#: label -> (statistic or None for f_insert, {argument: substitute}); a
#: planted map evaluates the real one on the substitute arguments
PLANTED = {
    "f_insert (5, 2413)": (None, {(5, (2, 4, 1, 3)): (5, (4, 2, 1, 3))}),
    "f_insert (3, 1)": (None, {(3, (1,)): (1, (3,))}),
    # a tie between two letters of one word: lemma2's witness names k = 5
    "f_insert (5, 12) and (8, 12)": (None, {(5, (1, 2)): (5, (2, 1)), (8, (1, 2)): (8, (2, 1))}),
    "aix 2715": ("aix", {(2, 7, 1, 5): (2, 5, 7, 1)}),
}

#: the table the benchmark prints, at n = 7
TABLE = ["table", "--n", "7", "--format", "csv", "--stats",
         "des,exc,inv,maj,fix,imaj,ides,ini,ai,aid,lec,pix,aix,mix,das,rmaj:2,rmaj:3"]


def fixture(name):
    return Path(__file__).with_name(f"{name}.json")


def pinned(report):
    return {"claims": [{f: c[f] for f in FIELDS} for c in report["claims"]],
            "values": {k: v["objects"] for k, v in report["values"].items()}}


def plant(monkeypatch, label):
    name, chosen = PLANTED[label]
    if name is None:
        plant_insertion(monkeypatch, chosen)
    else:
        plant_statistic(monkeypatch, name, chosen)


def planted_reports():
    reports = {}
    for label in PLANTED:
        with pytest.MonkeyPatch.context() as monkeypatch:
            plant(monkeypatch, label)
            reports[label] = pinned(verify_suite(0))
    return reports


@pytest.mark.parametrize("n, keys", [(0, 38), (8, 52)])
def test_the_report_matches_the_pinned_one(request, n, keys):
    want = json.loads(fixture(f"verify_{n}").read_text())
    got = pinned(request.getfixturevalue("verify_8") if n == 8 else verify_suite(n))
    assert got["claims"] == want["claims"]
    assert got["values"] == want["values"]
    assert len(got["values"]) == keys


@pytest.mark.parametrize("label", PLANTED)
def test_a_planted_report_matches_the_pinned_one(monkeypatch, label):
    want = json.loads(fixture("verify_0_planted").read_text())[label]
    plant(monkeypatch, label)
    got = pinned(verify_suite(0))
    assert got["claims"] == want["claims"]
    assert got["values"] == want["values"]
    assert any(c["witness"] for c in got["claims"])


def test_the_table_matches_the_pinned_md5(capsys):
    assert main(TABLE) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == "b4472f34fd6794ff6901fc26bb566241"


def test_the_table_holds_less_than_a_tuple_per_row():
    """A warmed pass of the n = 7 table, 5,040 rows, peaks at about 620 KiB
    traced with a bytes row per permutation, against about 890 KiB with a
    tuple (tracemalloc, Python 3.11.7)."""
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        assert main(TABLE) == 0
        tracemalloc.start()
        try:
            assert main(TABLE) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 750 * 2**10


if __name__ == "__main__":
    for n in (0, 8):
        fixture(f"verify_{n}").write_text(json.dumps(pinned(verify_suite(n)), indent=1) + "\n")
    fixture("verify_0_planted").write_text(json.dumps(planted_reports(), indent=1) + "\n")
