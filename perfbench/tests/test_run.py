"""Unit tests of the Python side of the benchmark: run.py's result schema
validation and trace-overhead merge, and spread.py's quartile spread.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import spread  # noqa: E402

UNITS = {"latency_ms": "ms", "setup_s": "s"}


def result(**overrides):
    r = {
        "correct": True,
        "attempted": 1000,
        "failed": 0,
        "metrics": {
            "latency_ms": {"value": 1.2034, "unit": "ms"},
            "setup_s": {"value": 0.8127, "unit": "s"},
        },
    }
    r.update(overrides)
    return r


class Validate(unittest.TestCase):
    def test_accepts_the_contract_example(self):
        run.validate(result(), UNITS)

    def test_rejects_extra_or_missing_keys(self):
        bad = result()
        bad["extra"] = 1
        with self.assertRaises(run.BenchError):
            run.validate(bad, UNITS)
        bad = result()
        del bad["failed"]
        with self.assertRaises(run.BenchError):
            run.validate(bad, UNITS)

    def test_rejects_metric_set_mismatch(self):
        bad = result()
        del bad["metrics"]["setup_s"]
        with self.assertRaises(run.BenchError):
            run.validate(bad, UNITS)
        bad = result()
        bad["metrics"]["other"] = {"value": 1, "unit": "s"}
        with self.assertRaises(run.BenchError):
            run.validate(bad, UNITS)

    def test_rejects_wrong_unit_and_bad_values(self):
        bad = result()
        bad["metrics"]["setup_s"]["unit"] = "ms"
        with self.assertRaises(run.BenchError):
            run.validate(bad, UNITS)
        for v in (float("nan"), float("inf"), "1.0", True, None):
            bad = result()
            bad["metrics"]["setup_s"]["value"] = v
            with self.assertRaises(run.BenchError, msg=repr(v)):
                run.validate(bad, UNITS)

    def test_rejects_bad_counts(self):
        for overrides in ({"attempted": 0}, {"failed": -1},
                          {"attempted": 1.5}, {"correct": "yes"},
                          {"failed": False}):
            with self.assertRaises(run.BenchError, msg=repr(overrides)):
                run.validate(result(**overrides), UNITS)

    def test_parse_output_takes_the_last_line(self):
        report, parsed = run.parse_output(
            "perfbench-report {}\n\n" + json.dumps(result()) + "\n")
        self.assertEqual(report, ["perfbench-report {}"])
        self.assertEqual(parsed, result())
        with self.assertRaises(run.BenchError):
            run.parse_output("")
        with self.assertRaises(run.BenchError):
            run.parse_output("not json\n")


class TraceOverhead(unittest.TestCase):
    def test_divides_traced_by_untraced_p50(self):
        traced = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "mw.obs.traced_round_us_p50": {"value": 12.0, "unit": "us"},
            "fd.obs.traced_round_us_p50": {"value": 30.0, "unit": "us"},
            "env.round_us": {"value": 1.0, "unit": "us"}}}
        untraced = {"correct": True, "attempted": 10, "failed": 1,
                    "metrics": {"mw.round_us_p50": {"value": 10.0, "unit": "us"},
                                "fd.round_us_p50": {"value": 20.0, "unit": "us"}}}
        merged = run.with_trace_overhead(traced, untraced)
        self.assertEqual(merged["attempted"], 20)
        self.assertEqual(merged["failed"], 1)
        self.assertEqual(set(merged["metrics"]), {
            "env.round_us", "mw.obs.trace_overhead", "fd.obs.trace_overhead"})
        self.assertEqual(merged["metrics"]["mw.obs.trace_overhead"]["value"],
                         1.2)
        self.assertEqual(merged["metrics"]["fd.obs.trace_overhead"]["value"],
                         1.5)


class Spec(unittest.TestCase):
    def test_benchmark_json_names_every_metric_the_program_prints(self):
        spec = run.load_spec()
        self.assertEqual(spec["workloads"],
                         ["edge-n30", "lossy-n30", "tcp-n30"])
        self.assertIn("setup_s", spec["end_to_end"])
        for e in run.ENGINES:
            self.assertIn(run.TRACE_OVERHEAD.format(e), spec["per_layer"])


class Spread(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [10, 11, 9, 12, 10.5, 9.5, 11.5, 10.2, 9.8, 10.1]
        self.assertEqual(spread.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread.spread(values), (q3 - q1) / 5.5)
        self.assertEqual(spread.spread([4.0] * 10), 0.0)
        self.assertEqual(spread.spread([0.0] * 7 + [1.0] * 3), float("inf"))

    def test_seed_lists(self):
        self.assertEqual(spread.parse_seeds("1-3,7"), [1, 2, 3, 7])


if __name__ == "__main__":
    unittest.main()
