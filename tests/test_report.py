"""The reports of verify_suite(0) and verify_suite(8), pinned: every
claim's label, status, range, checked count and witness, and every values
key with its objects. At n = 0 the permutation claims see S_0 alone, so
that report is mostly the lemma run, which does not depend on n.

A change that moves these reports on purpose regenerates the fixtures with
`PYTHONPATH=src python tests/test_report.py` and lists the diff.
"""
import json
from pathlib import Path

import pytest

from permstat.equidist import verify_suite

FIELDS = ("claim", "status", "n_range", "checked", "witness")


def fixture(n):
    return Path(__file__).with_name(f"verify_{n}.json")


def pinned(report):
    return {"claims": [{f: c[f] for f in FIELDS} for c in report["claims"]],
            "values": {k: v["objects"] for k, v in report["values"].items()}}


@pytest.mark.parametrize("n, keys", [(0, 378), (8, 392)])
def test_the_report_matches_the_pinned_one(request, n, keys):
    want = json.loads(fixture(n).read_text())
    got = pinned(request.getfixturevalue("verify_8") if n == 8 else verify_suite(n))
    assert got["claims"] == want["claims"]
    assert got["values"] == want["values"]
    assert len(got["values"]) == keys


if __name__ == "__main__":
    for n in (0, 8):
        fixture(n).write_text(json.dumps(pinned(verify_suite(n)), indent=1) + "\n")
