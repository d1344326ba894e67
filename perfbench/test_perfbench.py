#!/usr/bin/env python3
"""The benchmark's own tests.

  python3 perfbench/test_perfbench.py

Covers metric-name validation, the quartile and spread helpers, the metric
lists against BENCHMARK.json, and a 2-PoD smoke of every workload
run: the simulated-output digest repeats across two runs, every
end-to-end metric is emitted with its unit, and a traced run emits every
per-layer metric. The smoke builds perfbench_sim first (as run.py does).
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402
import run  # noqa: E402


def benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


class MetricNames(unittest.TestCase):
    def test_accepts_dotted_names(self):
        for name in ["setup_s", "sim.events.bringup", "net.frames.bfd.run",
                     "9lives", "a-b", "x" * 64]:
            self.assertTrue(benchlib.valid_metric_name(name), name)

    def test_rejects_bad_names(self):
        for name in ["", ".x", "_x", "-x", "a b", "a/b", "a:b", "x" * 65,
                     "café", None, 3]:
            self.assertFalse(benchlib.valid_metric_name(name), repr(name))

    def test_units(self):
        for unit in ["ms", "s", "1/s", "count", "%", "MiB", "ns"]:
            self.assertTrue(benchlib.valid_unit(unit), unit)
        for unit in ["", "a b", "x" * 17, None]:
            self.assertFalse(benchlib.valid_unit(unit), repr(unit))

    def test_runner_refuses_invalid_metrics(self):
        with self.assertRaises(run.BenchError):
            run.summarize({"bad name": [1.0]}, {"bad name": "s"})
        with self.assertRaises(run.BenchError):
            run.summarize({"ok": [1.0]}, {"ok": "bad unit"})

    def test_declared_metrics_are_valid(self):
        bj = benchmark_json()
        names = [m["name"] for m in bj["end_to_end"] + bj["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for m in bj["end_to_end"] + bj["per_layer"]:
            self.assertTrue(benchlib.valid_metric_name(m["name"]), m["name"])
            self.assertTrue(benchlib.valid_unit(m["unit"]), m["unit"])


class OrderStatistics(unittest.TestCase):
    def test_quartiles_match_statistics_module(self):
        values = [7.0, 1.0, 4.0, 10.0, 2.0, 9.0, 3.0, 8.0, 5.0, 6.0]
        self.assertEqual(benchlib.quartiles(values), (2.75, 5.5, 8.25))
        self.assertEqual(benchlib.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(benchlib.quartiles([3.0, 1.0, 2.0])[1], 2.0)
        self.assertEqual(benchlib.quartiles([4.2]), (4.2, 4.2, 4.2))
        with self.assertRaises(ValueError):
            benchlib.quartiles([])

    def test_lower_quartile(self):
        values = [7.0, 1.0, 4.0, 10.0, 2.0, 9.0, 3.0, 8.0, 5.0, 6.0]
        self.assertEqual(benchlib.lower_quartile(values), 2.75)
        self.assertEqual(benchlib.lower_quartile([5.0, 3.0, 4.0]), 3.0)
        self.assertEqual(benchlib.lower_quartile([5.0, 4.0]), 4.0)
        self.assertEqual(benchlib.lower_quartile([4.2]), 4.2)

    def test_relative_spread(self):
        self.assertAlmostEqual(benchlib.relative_spread(
            [7.0, 1.0, 4.0, 10.0, 2.0, 9.0, 3.0, 8.0, 5.0, 6.0]), 5.5 / 5.5)
        self.assertEqual(benchlib.relative_spread([2.0, 2.0, 2.0]), 0.0)

    def test_end_to_end_derivation(self):
        ref = benchlib.CALIBRATION_REF_S
        rec = {"phases": {"setup_s": 0.5, "bringup_s": 1.0, "run_s": 2.0,
                          "total_s": 4.0},
               "sim": {"run_router_s": 1000.0, "run_packets": 4000},
               "calibration_s": [ref, ref, ref],
               "peak_rss_kib": 2048}
        m = benchlib.end_to_end(rec)
        self.assertEqual(set(m), set(benchlib.END_TO_END))
        self.assertAlmostEqual(m["run_ns_per_router_s"], 2e6)
        self.assertAlmostEqual(m["ns_per_packet"], 5e5)
        self.assertEqual(m["peak_rss_mib"], 2.0)
        # A host twice as slow around the run phase halves its scaled cost.
        rec["calibration_s"] = [ref, 2 * ref, 2 * ref]
        m = benchlib.end_to_end(rec)
        self.assertAlmostEqual(m["run_ns_per_router_s"], 1e6)
        self.assertAlmostEqual(m["setup_s"], 0.5 / 1.5)
        self.assertAlmostEqual(m["total_s"], 4.0 * 3 / 5)


class BenchmarkDefinition(unittest.TestCase):
    def test_end_to_end_metrics_match(self):
        bj = benchmark_json()
        self.assertEqual({m["name"]: m["unit"] for m in bj["end_to_end"]},
                         benchlib.END_TO_END)
        setup = [m for m in bj["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bj["end_to_end"]))

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in benchmark_json()["workloads"]],
                         run.WORKLOADS)


class Smoke(unittest.TestCase):
    """2-PoD versions of every workload."""

    SEED = 7

    @classmethod
    def setUpClass(cls):
        run.build()

    def test_digest_repeats_across_runs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = run.run_rep(workload, self.SEED, smoke=True)
                second = run.run_rep(workload, self.SEED, smoke=True)
                self.assertEqual(first["digest"], second["digest"])
                self.assertEqual(first["outputs"], second["outputs"])
                self.assertEqual(
                    benchlib.rep_failures(first, first["digest"]), [])

    def test_every_end_to_end_metric_has_a_unit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = run.run_workload(workload, self.SEED, 0,
                                             traced=False, smoke=True)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], run.MIN_REPS)
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    benchlib.END_TO_END)
                for v in result["metrics"].values():
                    self.assertGreater(v["value"], 0)

    def test_traced_run_emits_every_per_layer_metric(self):
        declared = {m["name"]: m["unit"]
                    for m in benchmark_json()["per_layer"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = run.run_workload(workload, self.SEED, 0,
                                             traced=True, smoke=True)
                self.assertTrue(result["correct"])
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    declared)
                trace = json.loads(
                    (run.OUT_DIR /
                     f"trace_{workload}_seed{self.SEED}.json").read_text())
                names = {e["name"] for e in trace["traceEvents"]}
                self.assertIn("run_until", names)
                self.assertIn("harness::Deployment::converged", names)


if __name__ == "__main__":
    unittest.main()
