"""Command-line front end: statistics, bijections, verification, tables.

Exit codes: 0 success, 1 usage or parse error, 2 enumeration cap exceeded,
3 verification failure. Data goes to stdout, diagnostics to stderr.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

from . import bijections, equidist, stats
from .core import format_word, is_permutation, parse_permutation, parse_word
from .equidist import SUITES, joint_distribution, size_cap, verify_suite
from .errors import ParseError, PermstatError, SizeCapExceeded

FORMATS = ("plain", "json")  # and "csv" for the commands that print rows


def _default_names(word) -> list[str]:
    """The registry statistics that apply to word, in registry order."""
    perm = is_permutation(word)
    return [
        name for name, (_, perm_only) in stats.REGISTRY.items()
        if (perm or not perm_only) and (word or name != "ini")
    ]


def _names(text: str) -> list[str]:
    """The statistic names of a comma-separated list; there must be one."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise ParseError(f"no statistic name in {text!r}")
    return names


def cmd_stats(args) -> int:
    word = parse_word(args.perm)
    if args.names is not None:
        names = _names(args.names)
    else:
        names = _default_names(word)
        if not is_permutation(word):
            print("note: input is not a permutation of 1..n; "
                  "permutation-only statistics omitted", file=sys.stderr)
    vector = stats.stat_vector(word, names)
    if args.format == "json":
        print(json.dumps({"word": format_word(word), "stats": dict(vector)}))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow([name for name, _ in vector])
        writer.writerow([value for _, value in vector])
    else:
        print(" ".join(f"{name}={value}" for name, value in vector))
    return 0


def cmd_map(args) -> int:
    p = parse_permutation(args.perm)
    trace, lines = None, []  # --trace: the rules of each insertion, or the mirrored sets
    if args.phi:
        if args.trace:
            image, traces = bijections.phi_with_traces(p)
            trace = [list(rules) for rules in traces]
            lines = [f"insert {k}: {','.join(rules)}" for k, rules in zip(reversed(p), traces)]
        else:
            image = bijections.phi(p)
    elif args.phi_inverse:
        image = bijections.phi_inverse(p)
    else:
        if args.trace:
            trace = [sorted(letters) for letters in bijections.psi_chain(p)]
            lines = ["mirror {" + ",".join(map(str, letters)) + "}" for letters in trace]
        image = bijections.psi(p)
    if args.format == "json":
        out = {"input": format_word(p), "output": format_word(image)}
        if trace is not None:
            out["trace"] = trace
        print(json.dumps(out))
    else:
        print(*lines, format_word(image), sep="\n")
    return 0


def cmd_verify(args) -> int:
    report = verify_suite(args.n, args.suite)
    if args.format == "json":
        print(json.dumps(report))
    else:
        for claim in report["claims"]:
            line = (
                f"{claim['status'].upper():4s} {claim['claim']} [{claim['n_range']}]"
                f" checked={claim['checked']}"
            )
            if claim["witness"] is not None:
                line += f" witness={json.dumps(claim['witness'])}"
            print(line)
    return 0 if report["passed"] else 3


_SOURCES = {"all": None, "avoid321": "321", "avoid312": "312"}


def cmd_table(args) -> int:
    names = _names(args.stats)
    perms = equidist.all_permutations(args.n)
    pattern = _SOURCES[args.source]
    if pattern is not None:
        perms = (p for p in perms if bijections.avoids(p, pattern))
    counts = joint_distribution(perms, names)
    rows = sorted(counts.items())
    if args.format == "json":
        print(json.dumps({
            "stats": names, "n": args.n, "source": args.source,
            "rows": [[list(value), count] for value, count in rows],
            "total": sum(counts.values()),
        }))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(names + ["count"])
        for value, count in rows:
            writer.writerow(list(value) + [count])
    else:
        for value, count in rows:
            print(" ".join(str(v) for v in value) + f" -> {count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permstat",
        description="Permutation statistics, bijections, and exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="evaluate statistics on one word")
    p_stats.add_argument("perm", help="one-line notation: '3 1 2' or compact '312'")
    p_stats.add_argument("--names", help="comma-separated statistic names")
    p_stats.add_argument("--format", choices=FORMATS + ("csv",), default="plain")
    p_stats.set_defaults(func=cmd_stats)

    p_map = sub.add_parser("map", help="apply phi, its inverse, or psi")
    which = p_map.add_mutually_exclusive_group(required=True)
    which.add_argument("--phi", action="store_true")
    which.add_argument("--phi-inverse", action="store_true")
    which.add_argument("--psi", action="store_true")
    p_map.add_argument("perm")
    p_map.add_argument("--trace", action="store_true", help="print the rule trace or B-set chain")
    p_map.add_argument("--format", choices=FORMATS, default="plain")
    p_map.set_defaults(func=cmd_map)

    p_verify = sub.add_parser("verify", help="run the exhaustive verification suites")
    p_verify.add_argument("--n", type=int, default=8, help="largest permutation size")
    p_verify.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p_verify.add_argument("--format", choices=FORMATS, default="plain")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="joint distribution table over S_n")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--stats", required=True, help="comma-separated statistic names")
    p_table.add_argument("--source", choices=sorted(_SOURCES), default="all")
    p_table.add_argument("--format", choices=FORMATS + ("csv",), default="plain")
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except SizeCapExceeded as exc:
        print(f"error: {exc} (raise PERMSTAT_NMAX to override, cap={size_cap()})", file=sys.stderr)
        return 2
    except PermstatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
