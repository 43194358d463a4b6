"""Tests of the benchmark's own code: the tail rule, metric names, the
result line, pooling, and a toy-size smoke run of every workload.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke tests build the benchmark on first use (about a minute).
"""

import json
import os
import random
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import metrics  # noqa: E402


class TailRuleTest(unittest.TestCase):
    def test_ten_samples_lie_beyond(self):
        samples = list(range(1, 101))
        random.Random(7).shuffle(samples)
        percentile, value, beyond = metrics.tail(samples)
        self.assertEqual(value, 90)
        self.assertEqual(percentile, 90.0)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_eleven_samples_give_the_minimum(self):
        percentile, value, _ = metrics.tail([5.0] + [9.0] * 10)
        self.assertEqual(value, 5.0)
        self.assertAlmostEqual(percentile, 100.0 / 11)

    def test_percentile_rises_with_sample_count(self):
        self.assertAlmostEqual(metrics.tail(list(range(20000)))[0], 99.95)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            metrics.tail(list(range(10)))


class MetricNameTest(unittest.TestCase):
    def all_metrics(self):
        return ([(n, u) for n, u, _, _ in metrics.END_TO_END] +
                [(n, u) for n, u, _, _ in metrics.PER_LAYER] +
                [(n, u) for n, u, _ in metrics.LAYER_DETAIL] + list(metrics.REPORTED))

    def test_names_and_units_are_valid_and_unique(self):
        names = [n for n, _ in self.all_metrics()]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in self.all_metrics():
            self.assertRegex(name, metrics.NAME_RE)
            self.assertRegex(unit, metrics.UNIT_RE)

    def test_result_line_times_are_measured_on_every_workload(self):
        for name, unit, _, workloads in metrics.PER_LAYER:
            if unit in metrics.TIME_UNITS:
                self.assertEqual(set(workloads), set(metrics.WORKLOADS), name)

    def test_name_rule_rejects_outsiders(self):
        for bad in ("", "-x", "core.store_history_ms@50000", "a b", "x" * 65):
            self.assertIsNone(metrics.NAME_RE.match(bad), bad)

    def test_benchmark_json_mirrors_the_definitions(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(metrics.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]], list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [(n, u, b) for n, u, b, _ in metrics.PER_LAYER])


class ResultLineTest(unittest.TestCase):
    def test_exact_keys_and_types(self):
        line = metrics.result_line(True, 12, 0, {"query_p50_ms": (1.25, "ms")})
        parsed = json.loads(line)
        self.assertEqual(set(parsed), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(parsed["metrics"], {"query_p50_ms": {"value": 1.25, "unit": "ms"}})
        self.assertIs(parsed["correct"], True)

    def test_rejects_what_the_contract_forbids(self):
        for args in ((True, 0, 0, {}),
                     (True, 1, 0, {"bad name": (1.0, "ms")}),
                     (True, 1, 0, {"x": (1.0, "m s")}),
                     (True, 1, 0, {"x": (float("nan"), "ms")}),
                     (True, 1.5, 0, {})):
            with self.assertRaises(ValueError):
                metrics.result_line(*args)


class PoolTest(unittest.TestCase):
    def raw(self, latencies, wall, rss):
        phase = {"wall_s": wall, "attempted": len(latencies), "failed": 0, "wrong": 0,
                 "latencies_ms": latencies, "errors": [], "extra": {"ingest_events_per_s": wall}}
        return {"build_type": "Release", "compiler": "c", "setup_s": [wall],
                "peak_rss_mb": rss, "invariant_checks": 1, "invariant_failures": [],
                "layers": {}, "phases": {"untraced": phase}}

    def test_pools_processes(self):
        merged = metrics.pool([self.raw([1.0, 2.0], 1.0, 10), self.raw([3.0], 3.0, 30),
                               self.raw([4.0], 2.0, 20)])
        phase = merged["phases"]["untraced"]
        self.assertEqual(phase["latencies_ms"], [1.0, 2.0, 3.0, 4.0])
        self.assertEqual(phase["wall_s"], 6.0)
        self.assertEqual(phase["attempted"], 4)
        self.assertEqual(phase["extra"]["ingest_events_per_s"], 2.0)
        self.assertEqual(merged["peak_rss_mb"], 10)
        self.assertEqual(merged["setup_s"], [1.0, 3.0, 2.0])
        self.assertEqual(merged["invariant_checks"], 3)


def run_benchmark(workload, trace, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=900)


class SmokeTest(unittest.TestCase):
    """Every workload at toy size, untraced and traced: correct answers and
    every declared metric by name."""

    def check(self, workload, trace, expected, printed=()):
        out = run_benchmark(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"], out.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(expected))
        shown = {line.split()[0] for line in lines[:-1] if line.strip()}
        for name in printed:
            self.assertIn(name, shown)

    def test_end_to_end_metrics(self):
        for workload in metrics.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, [n for n, _, _, _ in metrics.END_TO_END])

    def test_per_layer_metrics(self):
        for workload in metrics.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, [n for n, _, _, _ in metrics.PER_LAYER],
                           [n for n, _, w in metrics.LAYER_DETAIL if workload in w])

    def test_refuses_configuration_overrides(self):
        env = dict(os.environ, BIGDAWG_CAST_CACHE="0")
        out = run_benchmark("icu_interactive", 0, env)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
