#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics across seeds.

    python3 perfbench/spread.py --workload edge-n30 --seeds 1-10 [--trace 0]

Runs perfbench/run.py once per seed (sequentially: parallel runs would
measure each other) and prints, for every metric, its median, its
interquartile range as a share of the median (quartiles as Python's
statistics.quantiles(values, n=4) gives them), and, for the end-to-end
metrics, whether that spread stays below a third of the metric's bound in
BENCHMARK.json. Exit status 1 when any bounded spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values):
    """First quartile, median and third quartile (statistics.quantiles,
    exclusive method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median; 0 when every value is
    equal, infinite when the median is 0 and the values differ."""
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    if q3 == q1:
        return 0.0
    return float("inf") if med == 0 else (q3 - q1) / abs(med)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(spec["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              check=False, cwd=ROOT)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result["metrics"])

    within_bounds = True
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        s = spread(values)
        line = (f"{name:34s} median {statistics.median(values):14.6g} "
                f"spread {s:7.3%}")
        if name in bounds:
            ok = s < bounds[name] / 3
            line += f"  bound/3 {bounds[name] / 3:6.2%} {'ok' if ok else 'WIDE'}"
            if s > bounds[name]:
                within_bounds = False
        print(line)
        print("    " + " ".join(f"{v:.5g}" for v in values))
    return 0 if within_bounds else 1


if __name__ == "__main__":
    sys.exit(main())
