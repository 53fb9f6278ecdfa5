"""Command-line front end: statistics, bijections, verification, tables.

Exit codes: 0 success, 1 usage or parse error, 2 enumeration cap exceeded,
3 verification failure (a claim, or a `map --phi-inverse --trace` fold
that misses the input). Data goes to stdout, diagnostics to stderr.

Building the parser loads `argparse`, `core` and `errors` only. A command
imports what it runs, and reads its names there at call time: `stats` for
stats, `bijections` for map, the engine (`equidist`, which checks --suite)
for verify and table, and `json` or `csv` for the formats that print with them.
"""
from __future__ import annotations

import argparse
import sys

from .core import format_word, is_permutation, parse_permutation, parse_word
from .errors import ParseError, PermstatError, SizeCapExceeded

FORMATS = ("plain", "json")  # and "csv" for the commands that print rows


def _names(text: str) -> list[str]:
    """The statistic names of a comma-separated list; there must be one."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise ParseError(f"no statistic name in {text!r}")
    return names


def _size(text: str) -> int:
    """A size --n in ASCII digits, after a "-" that the size check refuses."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"n={text!r} is not a non-negative integer")
    return int(text)


def cmd_stats(args) -> int:
    from . import stats

    word = parse_word(args.perm)
    if args.names is not None:
        names = _names(args.names)
    else:  # the registry statistics that apply to word, in registry order
        perm = is_permutation(word)
        names = [name for name, (_, perm_only) in stats.REGISTRY.items()
                 if (perm or not perm_only) and (word or name != "ini")]
        if not perm:
            print("note: input is not a permutation of 1..n; "
                  "permutation-only statistics omitted", file=sys.stderr)
    vector = stats.stat_vector(word, names)
    if args.format == "json":
        import json
        print(json.dumps({"word": format_word(word), "stats": dict(vector)}))
    elif args.format == "csv":
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow([name for name, _ in vector])
        writer.writerow([value for _, value in vector])
    else:
        print(" ".join(f"{name}={value}" for name, value in vector))
    return 0


def cmd_map(args) -> int:
    from . import bijections

    p = parse_permutation(args.perm)
    trace, lines = None, []  # --trace: the rules of each insertion, or the mirrored sets
    if args.psi:
        if args.trace:
            trace = [sorted(letters) for letters in bijections.psi_chain(p)]
            lines = ["mirror {" + ",".join(map(str, letters)) + "}" for letters in trace]
        image = bijections.psi(p)
    elif args.trace:  # the insertions of the fold from the preimage to the image
        source = bijections.phi_inverse(p) if args.phi_inverse else p
        folded, traces = bijections.phi_with_traces(source)
        if args.phi_inverse and folded != p:  # the trace would be of another fold
            print(f"error: the preimage {format_word(source)} folds to {format_word(folded)}, "
                  f"not to the input {format_word(p)}", file=sys.stderr)
            return 3
        image = source if args.phi_inverse else folded
        trace = [list(rules) for rules in traces]
        lines = [f"insert {k}: {','.join(rules)}" for k, rules in zip(reversed(source), traces)]
    else:
        image = (bijections.phi_inverse if args.phi_inverse else bijections.phi)(p)
    if args.format == "json":
        import json
        out = {"input": format_word(p), "output": format_word(image)}
        if trace is not None:
            out["trace"] = trace
        print(json.dumps(out))
    else:
        print(*lines, format_word(image), sep="\n")
    return 0


def cmd_verify(args) -> int:
    import json

    from . import equidist

    report = equidist.verify_suite(args.n, args.suite)
    if args.format == "json":
        print(json.dumps(report))
    else:
        for claim in report["claims"]:
            line = (f"{claim['status'].upper():4s} {claim['claim']} [{claim['n_range']}]"
                    f" checked={claim['checked']}")
            if claim["witness"] is not None:
                line += f" witness={json.dumps(claim['witness'])}"
            print(line)
    return 0 if report["passed"] else 3


_SOURCES = {"all": None, "avoid321": "321", "avoid312": "312"}


def cmd_table(args) -> int:
    """Several names print from their rows as counted (count_rows): a bytes
    row iterates and sorts as its tuple would, so none is decoded. One
    name's few values print from joint_distribution's 1-tuples."""
    from . import bijections, equidist

    names = _names(args.stats)
    perms = equidist.all_permutations(args.n)
    pattern = _SOURCES[args.source]
    if pattern is not None:
        perms = (p for p in perms if bijections.avoids(p, pattern))
    counts = (equidist.count_rows if len(names) > 1 else equidist.joint_distribution)(perms, names)
    values = sorted(counts)  # distinct, so sorting (value, count) pairs would order the same
    if args.format == "json":
        import json
        print(json.dumps({
            "stats": names, "n": args.n, "source": args.source,
            "rows": [[list(value), counts[value]] for value in values],
            "total": sum(counts.values()),
        }))
    elif args.format == "csv":
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(names + ["count"])
        writer.writerows([*value, counts[value]] for value in values)
    else:
        for value in values:
            print(" ".join(str(v) for v in value) + f" -> {counts[value]}")
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
    p_verify.add_argument("--n", type=_size, default=8, help="largest permutation size")
    p_verify.add_argument("--suite", default="all",
                          help="one suite, or all; an unknown name lists the suites")
    p_verify.add_argument("--format", choices=FORMATS, default="plain")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="joint distribution table over S_n")
    p_table.add_argument("--n", type=_size, required=True)
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
        print(f"error: {exc} (raise PERMSTAT_NMAX to override)", file=sys.stderr)
        return 2
    except PermstatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def __getattr__(name):
    # bench/tracing.py patches this name until ROADMAP item 1 retargets it
    if name == "joint_distribution":
        from . import equidist

        return equidist.joint_distribution
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
