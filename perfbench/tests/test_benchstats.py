"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import benchstats  # noqa: E402
import run  # noqa: E402


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fake_report():
    """A harness report holding every key the reductions read."""
    samples = {k: [1.0, 2.0, 3.0] for k in benchstats.LAYER_MEDIANS}
    samples.update({
        "setup_s": [0.03, 0.04, 0.05],
        "train_s": [5.0, 5.5, 6.0],
        "emulate_fields_per_s": [800.0, 810.0],
        "open_latency_ms": [float(i) for i in range(1, 101)],
        "serve_cpu_us_per_sample": [280.0, 290.0, 285.0],
        "serve_samples_per_s": [6000.0, 7000.0, 8000.0, 2000.0, 7500.0],
        "bench.gen_lag_ms": [0.1] * 100,
    })
    values = {k: 4.0 for k in benchstats.LAYER_VALUES}
    values.update({"storage_ratio": 7.1, "peak_rss_mb": 130.0,
                   "serve_slo_ratio": 1.0})
    return {"samples": samples, "values": values, "attempted": 200,
            "failed": 2, "checks": {"a": True}, "errors": []}


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation_on_known_samples(self):
        values = [7, 1, 10, 4, 2, 9, 3, 8, 6, 5]
        self.assertAlmostEqual(benchstats.percentile(values, 50), 5.5)
        self.assertAlmostEqual(benchstats.percentile(values, 25), 3.25)
        self.assertAlmostEqual(benchstats.percentile(values, 75), 7.75)
        self.assertAlmostEqual(benchstats.percentile(values, 0), 1)
        self.assertAlmostEqual(benchstats.percentile(values, 100), 10)
        self.assertAlmostEqual(benchstats.percentile([4.0], 99), 4.0)

    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertIsNone(benchstats.tail_percentile(19))
        self.assertEqual(benchstats.tail_percentile(20), 50.0)
        self.assertEqual(benchstats.tail_percentile(100), 90.0)
        self.assertEqual(benchstats.tail_percentile(999), 95.0)
        self.assertEqual(benchstats.tail_percentile(1000), 99.0)
        self.assertEqual(benchstats.tail_percentile(10000), 99.9)

    def test_summary_keeps_quartiles_and_count(self):
        s = benchstats.summarize([float(i) for i in range(1, 101)])
        self.assertEqual(s["n"], 100)
        self.assertAlmostEqual(s["median"], 50.5)
        self.assertAlmostEqual(s["q1"], 25.75)
        self.assertAlmostEqual(s["q3"], 75.25)
        self.assertEqual(s["tail_p"], 90.0)
        self.assertAlmostEqual(s["tail"], 90.1)


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = benchstats.poisson_schedule(7, 2000.0, 1.0)
        b = benchstats.poisson_schedule(7, 2000.0, 1.0)
        self.assertEqual(a, b)
        self.assertNotEqual(a, benchstats.poisson_schedule(8, 2000.0, 1.0))

    def test_arrivals_are_increasing_within_the_phase_at_the_rate(self):
        a = benchstats.poisson_schedule(3, 2000.0, 2.0)
        self.assertTrue(all(x < y for x, y in zip(a, a[1:])))
        self.assertTrue(0.0 < a[0] and a[-1] < 2.0)
        # 4000 expected; Poisson sd is ~63.
        self.assertLess(abs(len(a) - 4000), 300)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_and_outside_spans_ignored(self):
        def ev(i, parent, name, ts, dur):
            return {"name": name, "ts": ts, "dur": dur,
                    "args": {"id": i, "parent": parent, "count": 0}}
        events = [
            ev(0, -1, "climate.load", 0, 5e6),
            ev(1, -1, "bench.workload", 5e6, 10e6),
            ev(2, 1, "core.train", 5e6, 6e6),
            ev(3, 2, "stats.fit_trend", 5e6, 2e6),
            ev(4, 1, "core.emulate", 11e6, 3e6),
        ]
        layers = benchstats.self_time_by_layer(events, "bench.workload")
        self.assertEqual(set(layers), {"core", "stats"})
        self.assertAlmostEqual(layers["core"], 4.0 + 3.0)
        self.assertAlmostEqual(layers["stats"], 2.0)


class ResultTest(unittest.TestCase):
    def check_line(self, trace):
        section = declared()["per_layer" if trace else "end_to_end"]
        report = fake_report()
        metrics = (benchstats.per_layer_metrics(report) if trace
                   else benchstats.end_to_end_metrics(report))
        line = run.result_line([("w", report, metrics)], section)
        parsed = json.loads(line)
        self.assertEqual(set(parsed),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(parsed["metrics"]),
                         {m["name"] for m in section})
        units = {m["name"]: m["unit"] for m in section}
        for name, m in parsed["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], units[name])
            self.assertIsInstance(m["value"], (int, float))
        self.assertTrue(parsed["correct"])
        self.assertEqual(parsed["attempted"], 200)
        self.assertEqual(parsed["failed"], 2)
        return parsed

    def test_untraced_result_names_every_end_to_end_metric(self):
        parsed = self.check_line(trace=0)
        self.assertAlmostEqual(parsed["metrics"]["success_ratio"]["value"],
                               0.99)
        self.assertAlmostEqual(parsed["metrics"]["train_s"]["value"], 5.5)
        # Upper quartile of the pooled slice rates, not their median.
        self.assertAlmostEqual(
            parsed["metrics"]["serve_samples_per_s"]["value"], 7500.0)

    def test_traced_result_names_every_per_layer_metric(self):
        self.check_line(trace=1)

    def test_a_failed_check_makes_the_result_incorrect(self):
        report = fake_report()
        report["checks"]["served draws byte-equal"] = False
        section = declared()["end_to_end"]
        line = run.result_line(
            [("w", report, benchstats.end_to_end_metrics(report))], section)
        self.assertFalse(json.loads(line)["correct"])

    def test_declared_workloads_are_the_runnable_ones(self):
        self.assertEqual({w["name"] for w in declared()["workloads"]},
                         set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
