"""Record a baseline: every workload, untraced and traced, in one JSON file.

    python3 bench/record.py --label seed

Runs bench/run.py RUNS times per workload with seeds 1..RUNS and tracing
off, then once with tracing on, each for BENCHMARK.json's run_seconds. It
writes bench/BENCH_<label>.json with each run's result line, the median of
each end-to-end metric, and the machine: processor count, Python version
and git commit. For `table`,
it adds µs per permutation of each statistic from the traced pass.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "table", "longword")
RUNS = 3


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return {"seed": seed, "trace": trace, "summary": lines[:-1], "result": json.loads(lines[-1])}


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    out = {
        "label": args.label,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seconds": seconds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [run(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        traced = run(workload, 1, seconds, 1)
        names = runs[0]["result"]["metrics"]
        entry = {
            "median": {
                name: statistics.median(r["result"]["metrics"][name]["value"] for r in runs)
                for name in names
            },
            "runs": runs,
            "traced": traced,
        }
        if workload == "table":
            layer = traced["result"]["metrics"]
            perms = layer["equidist.perms_yielded"]["value"]
            entry["traced_us_per_perm"] = {
                key[len("stats."):-len(".s")]: 1e6 * m["value"] / perms
                for key, m in layer.items()
                if key.startswith("stats.") and key.endswith(".s") and not key.endswith("self_s")
            }
        out["workloads"][workload] = entry
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
