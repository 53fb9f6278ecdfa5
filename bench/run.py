"""The permstat benchmark: three workloads, checked against permstat-free oracles.

    python3 bench/run.py --workload {verify,table,longword} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; permstat is imported from the
checkout's ``src/`` and from nowhere else, so without ``src/`` the command
fails before measuring. Each workload is a closed loop in one process and
one thread: every call starts after the previous one returns, and passes
repeat while another one fits in ``--seconds`` (at least one runs).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``setup_s`` (median over fresh interpreters of the
time to import permstat and build the CLI parser), ``wall_s`` (median pass
time), both rescaled to reference speed by speed.py, and ``peak_rss_mb``;
``failed / attempted`` in the same object is the failed share. With ``--trace 1`` the passes are followed by one traced pass and the
JSON holds the per-layer metrics of bench/tracing.py instead. The lines
before it say the same for a reader. See bench/README.md for why each
workload exists and what it should show.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracles
import speed
from tracing import STAT_NAMES, SUITES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

N = 8
TABLE_STATS = STAT_NAMES + ("rmaj:2", "rmaj:3")
VERIFY_CLAIMS = 30
RANDOM_SIZE = 1000
DECREASING_SIZE = 500
PROBE_SIZE = 2000  # phi_inverse on this decreasing word exceeds the default recursion limit
SETUP_RUNS = 11
SETUP_BRACKET = 5  # reference timings on each side of a setup child
SETUP_CODE = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "from permstat import cli; cli.build_parser(); print(time.perf_counter() - t0)"
)


def load_permstat():
    """Import permstat from this checkout's src/ and return the package."""
    sys.path.insert(0, str(SRC))
    import permstat
    import permstat.cli  # noqa: F401  (not imported by the package itself)

    if Path(permstat.__file__).resolve().parent != SRC / "permstat":
        raise ImportError(f"permstat was found at {permstat.__file__}, not under {SRC}")
    return permstat


@dataclass(frozen=True)
class Raised:
    """An operation's exception, kept in place of its result."""

    error: str


def capture(main, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


class Verify:
    """permstat verify --n 8 --suite all, in process."""

    domain = sum(math.factorial(n) for n in range(N + 1))

    def __init__(self, permstat, seed):
        self.permstat = permstat
        self.argv = ["verify", "--n", str(N), "--suite", "all", "--format", "json"]
        self.op_names = ["verify"]

    def ops(self):
        def verify():
            rc, text = capture(self.permstat.cli.main, self.argv)
            return rc, json.loads(text)["claims"] if rc in (0, 3) else text

        return [verify]

    def traced_ops(self, tracer):
        """The same work as --suite all, one verify_suite call per suite."""
        equidist = self.permstat.equidist

        def verify():
            reports = [
                tracer.span(f"equidist.verify_suite.{suite}", equidist.verify_suite)(N, suite)
                for suite in SUITES
            ]
            rc = 0 if all(r["passed"] for r in reports) else 3
            return rc, [claim for r in reports for claim in r["claims"]]

        return [verify]

    def check(self, outputs):
        out = outputs[0]
        ok = (
            isinstance(out, tuple)
            and out[0] == 0
            and len(out[1]) == VERIFY_CLAIMS
            and all(claim["status"] == "pass" for claim in out[1])
        )
        return [ok], [] if ok else ["verify did not report all claims as passing"]


class Table:
    """permstat table --n 8 over the 15 fixed statistics and rmaj:2, rmaj:3,
    in a column order drawn from the seed."""

    domain = math.factorial(N)

    def __init__(self, permstat, seed):
        self.permstat = permstat
        names = list(TABLE_STATS)
        random.Random(seed).shuffle(names)
        self.names = names
        self.argv = ["table", "--n", str(N), "--stats", ",".join(names), "--format", "csv"]
        self.op_names = ["table"]

    def ops(self):
        return [lambda: capture(self.permstat.cli.main, self.argv)]

    def traced_ops(self, tracer):
        return self.ops()

    def check(self, outputs):
        out = outputs[0]
        if not isinstance(out, tuple) or out[0] != 0:
            return [False], []
        text = out[1]
        header_ok = text.split("\n", 1)[0] == ",".join(self.names + ["count"])
        problems = oracles.check_table(text, N)
        return [header_ok and not problems], problems


class Longword:
    """The public API on a seeded random permutation of size 1000 and on the
    decreasing permutation of size 500: every statistic through
    stat_vector, phi, phi_inverse, psi and avoids 321/312."""

    domain = 0

    def __init__(self, permstat, seed):
        self.permstat = permstat
        letters = list(range(1, RANDOM_SIZE + 1))
        random.Random(seed).shuffle(letters)
        self.words = {
            f"random{RANDOM_SIZE}": tuple(letters),
            f"decreasing{DECREASING_SIZE}": tuple(range(DECREASING_SIZE, 0, -1)),
        }
        self.op_names = [
            f"{label}:{op}"
            for label in self.words
            for op in TABLE_STATS + ("phi", "phi_inverse", "psi", "avoids321", "avoids312")
        ]

    def ops(self):
        stats, bij = self.permstat.stats, self.permstat.bijections
        out = []
        for w in self.words.values():
            out += [lambda w=w, name=name: stats.stat_vector(w, [name]) for name in TABLE_STATS]
            out += [
                lambda w=w: bij.phi(w),
                lambda w=w: bij.phi_inverse(w),
                lambda w=w: bij.psi(w),
                lambda w=w: bij.avoids(w, 321),
                lambda w=w: bij.avoids(w, 312),
            ]
        return out

    def traced_ops(self, tracer):
        return self.ops()

    def check(self, outputs):
        """Per-op verdicts from oracles.py, plus the round trips
        phi_inverse(phi(w)) = w, phi(phi_inverse(w)) = w and psi(psi(w)) = w."""
        bij = self.permstat.bijections
        got = dict(zip(self.op_names, outputs))
        ok, problems = {}, []

        def same_letters(image, w):
            return isinstance(image, tuple) and sorted(image) == sorted(w)

        def round_trip(func, image, w):
            try:
                return func(image) == w
            except Exception:
                return False

        for label, w in self.words.items():
            s = oracles.statistics(w)
            if label.startswith("decreasing"):
                closed = oracles.decreasing_closed_forms(len(w))
                if any(s[name] != value for name, value in closed.items()):
                    problems.append(f"oracle statistics disagree with closed forms on {label}")
            for name in TABLE_STATS:
                ok[f"{label}:{name}"] = got[f"{label}:{name}"] == ((name, s[name]),)
            image = got[f"{label}:phi"]
            ok[f"{label}:phi"] = (
                same_letters(image, w)
                and oracles.phi_identity(s, oracles.statistics(image))
                and round_trip(bij.phi_inverse, image, w)
            )
            pre = got[f"{label}:phi_inverse"]
            ok[f"{label}:phi_inverse"] = (
                same_letters(pre, w)
                and oracles.phi_identity(oracles.statistics(pre), s)
                and round_trip(bij.phi, pre, w)
            )
            image = got[f"{label}:psi"]
            ok[f"{label}:psi"] = (
                same_letters(image, w)
                and oracles.psi_identity(w, image, s, oracles.statistics(image))
                and round_trip(bij.psi, image, w)
            )
            ok[f"{label}:avoids321"] = got[f"{label}:avoids321"] == (not oracles.contains_321(w))
            ok[f"{label}:avoids312"] = got[f"{label}:avoids312"] == (not oracles.contains_312(w))
        problems += [f"wrong or failed: {name}" for name in self.op_names if not ok[name]]
        return [ok[name] for name in self.op_names], problems


WORKLOADS = {"verify": Verify, "table": Table, "longword": Longword}


def probe_phi_inverse(permstat, n: int = PROBE_SIZE) -> str:
    """phi_inverse on the decreasing word of size n: "ok" if phi maps the
    answer back, "wrong" if not, else the name of the exception raised."""
    w = tuple(range(n, 0, -1))
    try:
        pre = permstat.bijections.phi_inverse(w)
    except Exception as exc:
        return type(exc).__name__
    return "ok" if permstat.bijections.phi(pre) == w else "wrong"


def run_pass(ops) -> tuple[float, list]:
    outputs = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            outputs.append(op())
        except Exception as exc:
            outputs.append(Raised(f"{type(exc).__name__}: {exc}"))
    return time.perf_counter() - t0, outputs


def measure_setup() -> tuple[float, float]:
    """Median (rescaled, raw) time for a fresh interpreter to import permstat
    and build the CLI parser, timed inside the child. The reference is timed
    just before and after each child, on the same processor. One unmeasured
    start first writes the bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    rescaled, raw = [], []
    for i in range(SETUP_RUNS + 1):
        before = [speed.reference() for _ in range(SETUP_BRACKET)]
        child = subprocess.run(
            cmd, cwd=ROOT, check=True, stdin=subprocess.DEVNULL, capture_output=True, text=True
        )
        after = [speed.reference() for _ in range(SETUP_BRACKET)]
        if i:
            seconds = float(child.stdout)
            raw.append(seconds)
            rescaled.append(seconds * speed.speed(before + after))
    return statistics.median(rescaled), statistics.median(raw)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        permstat = load_permstat()
    except ImportError as exc:
        print(f"bench: cannot import permstat from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](permstat, args.seed)
    speed.pin_to_one_cpu()
    setup_s, setup_raw = measure_setup() if not args.trace else (None, None)

    ops = workload.ops()
    walls, rescaled, passes = [], [], []
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + walls[-1] <= args.seconds:
            mark = sampler.mark()
            wall, outputs = run_pass(ops)
            walls.append(wall)
            rescaled.append(sampler.rescale(wall, mark))
            passes.append(outputs)
            if len(passes) > 1 and passes[-1] == passes[0]:
                passes.pop()  # keep only distinct outputs; equal ones share a verdict
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall_s = statistics.median(rescaled)
        n_passes = len(walls)

        layer_metrics = {}
        if args.trace:
            tracer = Tracer()
            mark = sampler.mark()
            with tracer:
                tracer.install(permstat)
                traced_wall, traced_outputs = run_pass(workload.traced_ops(tracer))
            traced_rescaled = sampler.rescale(traced_wall, mark)
            layer_metrics = tracer.metrics(traced_wall, traced_rescaled - wall_s, workload.domain)
            n_passes += 1
            if traced_outputs != passes[0]:
                passes.append(traced_outputs)

    # Verdicts: the first pass is checked by the oracles; a pass whose
    # outputs differ from it is checked on its own.
    verdicts, problems = workload.check(passes[0])
    failed = (n_passes - len(passes) + 1) * verdicts.count(False)
    for outputs in passes[1:]:
        more, _ = workload.check(outputs)
        failed += more.count(False)
        problems.append("outputs differ between passes")
    attempted = n_passes * len(workload.op_names)
    probe = probe_phi_inverse(permstat) if args.workload == "longword" else None

    print(
        f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} passes={n_passes} ops={attempted}"
    )
    if setup_s is not None:
        print(
            f"  setup_s      {setup_s:.4f} s   (median of {SETUP_RUNS} fresh interpreters; "
            f"raw {setup_raw:.4f} s)"
        )
    print(
        f"  wall_s       {wall_s:.4f} s   (median over untraced passes: {len(walls)}; "
        f"raw {statistics.median(walls):.4f} s; too few passes for a tail percentile "
        "with ten samples beyond it)"
    )
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  failed_share {failed / attempted:.4f}   ({failed} of {attempted} ops)")
    if probe is not None:
        print(f"  probe phi_inverse(decreasing {PROBE_SIZE}): {probe}   (outside the measured ops)")
    for problem in problems:
        print(f"  problem: {problem}")

    if args.trace:
        metrics = layer_metrics
    else:
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    correct = failed == 0 and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
