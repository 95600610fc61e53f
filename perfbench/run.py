#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles libdolbie from
src/) under .bench_build/; later calls rebuild incrementally. The program's
report lines are passed through, and the last line printed is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are BENCHMARK.json's end_to_end list; with --trace 1 they are
its per_layer list, from a traced process of the same workload and seed
(plus one untraced process, the base of <engine>.obs.trace_overhead).

Exit status: 0 when every correctness check passed, 1 when a check failed
or the program could not be built or run, 2 on bad arguments.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPEC = ROOT / "BENCHMARK.json"

BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 175
ENGINES = ("mw", "fd")
TRACED_P50 = "{}.obs.traced_round_us_p50"
TRACE_OVERHEAD = "{}.obs.trace_overhead"


class BenchError(Exception):
    pass


def load_spec(path=SPEC):
    spec = json.loads(Path(path).read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j4"])
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return BUILD / "perfbench"


def parse_output(stdout):
    """Split the program's output into report lines and the result object."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError("the program printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        raise BenchError(f"last line is not JSON: {err}") from err
    return lines[:-1], result


def validate(result, expected_units):
    """Check the result object against the result schema and the metric
    list: exactly the expected names, each with its unit and a finite
    number."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise BenchError(f"{key} is not a whole number")
    if result["attempted"] < 1 or result["failed"] < 0:
        raise BenchError("attempted must be >= 1 and failed >= 0")
    metrics = result["metrics"]
    if set(metrics) != set(expected_units):
        missing = sorted(set(expected_units) - set(metrics))
        extra = sorted(set(metrics) - set(expected_units))
        raise BenchError(f"metric names differ: missing {missing}, "
                         f"unexpected {extra}")
    for name, unit in expected_units.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            raise BenchError(f"{name}: expected unit {unit}, got {m}")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or \
                v != v or v in (float("inf"), float("-inf")):
            raise BenchError(f"{name}: value {v!r} is not a finite number")


def with_trace_overhead(traced, untraced):
    """Replace the traced p50s with traced p50 / untraced p50 per engine."""
    metrics = dict(traced["metrics"])
    for e in ENGINES:
        p50 = metrics.pop(TRACED_P50.format(e))["value"]
        base = untraced["metrics"][f"{e}.round_us_p50"]["value"]
        metrics[TRACE_OVERHEAD.format(e)] = {"value": p50 / base,
                                             "unit": "ratio"}
    return {
        "correct": traced["correct"] and untraced["correct"],
        "attempted": traced["attempted"] + untraced["attempted"],
        "failed": traced["failed"] + untraced["failed"],
        "metrics": metrics,
    }


def run_program(binary, args, trace, deadline):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for the run")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=remaining, check=False)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"timed out after {remaining:.0f} s") from err
    sys.stderr.write(done.stderr)
    if done.returncode not in (0, 1):
        raise BenchError(f"program exited with status {done.returncode}")
    return parse_output(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        if args.workload not in spec["workloads"]:
            parser.error(f"unknown workload {args.workload}; "
                         f"choose from {spec['workloads']}")
        if not 1 <= args.seconds <= 60:
            parser.error("--seconds must be in 1..60")
        binary = build()
        deadline = time.monotonic() + RUN_BUDGET_S
        report, untraced = run_program(binary, args, 0, deadline)
        validate(untraced, spec["end_to_end"])
        if args.trace:
            validate_names = dict(spec["per_layer"])
            for e in ENGINES:
                validate_names.pop(TRACE_OVERHEAD.format(e))
                validate_names[TRACED_P50.format(e)] = "us"
            traced_report, traced = run_program(binary, args, 1, deadline)
            validate(traced, validate_names)
            report = traced_report
            result = with_trace_overhead(traced, untraced)
            validate(result, spec["per_layer"])
        else:
            result = untraced
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    for line in report:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
