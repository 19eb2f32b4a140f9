#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

  python3 perfbench/test_perfbench.py

They build perfbench like run.py does and run it on short windows.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

SHORT = ["--window", "20000", "--warmup", "10000", "--windows", "1", "--seconds", "0"]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        cls.bench = run.load_benchmark(ROOT)
        _, cls.binary = run.build(ROOT)

    def perfbench(self, workload, seed, trace=0, extra=SHORT):
        rate = run.offered_rate(self.bench, workload)
        cmd = [self.binary, "--workload", workload, "--seed", str(seed), "--rate", rate,
               "--trace", str(trace)] + extra
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    def test_same_seed_gives_identical_simulated_fields(self):
        for workload in ("gc_churn", "tenant_burst"):
            a = self.perfbench(workload, 11)
            b = self.perfbench(workload, 11)
            self.assertTrue(a["correct"], a["failures"])
            self.assertEqual(a["detail"]["sim"], b["detail"]["sim"])
            for name in ("sim_p50_us", "sim_tail_us", "victim_tail_us", "write_amp",
                         "sim_capacity_rps", "served_fraction"):
                self.assertEqual(a["metrics"][name], b["metrics"][name], name)

    def test_held_out_seed_runs_and_differs(self):
        a = self.perfbench("gc_churn", 11)
        b = self.perfbench("gc_churn", 12)
        self.assertTrue(b["correct"], b["failures"])
        self.assertNotEqual(a["detail"]["sim"]["digest"], b["detail"]["sim"]["digest"])
        self.assertNotEqual(a["metrics"]["sim_p50_us"], b["metrics"]["sim_p50_us"])

    def test_every_end_to_end_metric_is_emitted_with_its_unit(self):
        for w in self.bench["workloads"]:
            result = self.perfbench(w["name"], 3)
            self.assertTrue(result["correct"], (w["name"], result["failures"]))
            self.assertEqual(run.check_metrics(self.bench, result, 0), [], w["name"])
            self.assertEqual(result["failed"], 0, w["name"])

    def test_every_per_layer_metric_is_emitted_with_its_unit(self):
        result = self.perfbench("gc_churn", 3, trace=1, extra=SHORT[:4])
        self.assertTrue(result["correct"], result["failures"])
        self.assertEqual(run.check_metrics(self.bench, result, 1), [])
        m = result["metrics"]
        self.assertGreater(m["ladder.explained_fraction"]["value"], 0.0)
        self.assertGreater(m["ftl.write_page_ns"]["value"], 0.0)
        self.assertGreater(m["ftl.gc_share"]["value"], 0.0)

    def test_tail_quantile_needs_ten_samples_beyond(self):
        r = subprocess.run([self.binary, "--selftest"], capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stderr)
        result = self.perfbench("tenant_burst", 5)
        for key in ("tail", "victim_tail"):
            tail = result["detail"]["sim"][key]
            self.assertTrue(tail["valid"])
            self.assertGreaterEqual(tail["samples_beyond"], 10.0)
            # The next quantile up would have fewer than ten beyond it.
            if tail["quantile"] < 0.9999:
                self.assertLess(tail["samples"], 10 / (1.0 - tail["quantile"]) * 10)
        # 20000 samples support p99.9 (20 beyond) but not p99.99 (2 beyond).
        self.assertEqual(result["detail"]["sim"]["tail"]["quantile"], 0.999)

    def test_window_too_short_for_a_tail_fails_the_run(self):
        # 500 samples support no quantile with ten beyond it: the gate fails,
        # the result is still printed, and the exit code is nonzero.
        rate = run.offered_rate(self.bench, "gc_churn")
        r = subprocess.run([self.binary, "--workload", "gc_churn", "--seed", "3", "--rate", rate,
                            "--window", "500", "--warmup", "1000", "--windows", "1",
                            "--seconds", "0"], capture_output=True, text=True)
        self.assertEqual(r.returncode, 1, r.stderr)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertIn("too few samples for any tail quantile", result["failures"])

    def test_first_window_is_always_repeated(self):
        # --seconds 0 has passed before any repeat; the same-seed check runs anyway.
        result = self.perfbench("lookup_skew", 4)
        self.assertTrue(result["correct"], result["failures"])
        self.assertEqual(result["detail"]["repeats_of_first_window"], 1)
        self.assertEqual(result["attempted"], 2 * result["detail"]["sim"]["offered"])

    def test_rate_comes_from_benchmark_json(self):
        for w in self.bench["workloads"]:
            self.assertGreater(float(run.offered_rate(self.bench, w["name"])), 0.0)


if __name__ == "__main__":
    unittest.main()
