"""Tests of the benchmark itself.

Run from the root of a checkout (builds perfbench on first use):

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They use the cheapest paper mimic (bfs) as the only item, so they check
the benchmark's plumbing and checks, not its numbers.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ITEM = "bfs"
CACHE_DIR = os.path.join(run.ROOT, ".bench_build", "test-cache")


def measure(seed, trace, workload="cold_compiler_only", passes=2):
    args = ["measure", "--workload", workload, "--seed", str(seed),
            "--passes", str(passes), "--setup-reps", "1", "--items", ITEM,
            "--cache-dir", CACHE_DIR]
    try:
        return run.perfbench(*args, *(["--trace"] if trace else []))
    finally:
        shutil.rmtree(CACHE_DIR, ignore_errors=True)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.traced = measure(seed=1, trace=True)

    def test_benchmark_json_names_every_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, unit, better) for name, unit, better, _ in run.PER_LAYER])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))

    def test_traced_run_emits_every_layer_metric_with_a_unit(self):
        metrics = run.layer_metrics(self.traced["layers"])
        for name, unit, _, _ in run.PER_LAYER:
            self.assertIn(name, metrics)
            self.assertEqual(metrics[name]["unit"], unit)
            self.assertIsInstance(metrics[name]["value"], float)
        self.assertEqual(metrics["profile.replays"]["value"], 1.0)
        self.assertGreater(metrics["profile.full_s"]["value"], 0.0)
        self.assertGreater(metrics["report.cache_publish_s"]["value"], 0.0)
        self.assertEqual(self.traced["layers"]["obs.threads_traced"], 1)

    def test_untraced_run_reports_end_to_end_and_passes_its_checks(self):
        measured = measure(seed=1, trace=False)
        self.assertGreater(run.normalised_wall_seconds(
            measured["pass_secs"], measured["probe_secs"]), 0.0)
        self.assertGreater(run.normalised_setup_seconds(measured), 0.0)
        for key in ("peak_rss_mb", "build_s"):
            self.assertGreater(measured[key], 0.0)
        self.assertEqual(measured["max_threads"], 1)
        self.assertEqual(run.check_cells(measured["cells"]), (1, 0, []))
        for key in ("nproc", "cpu_model", "build_type", "compiler"):
            self.assertIn(key, measured["provenance"])
        self.assertIn(measured["provenance"]["build_type"],
                      ("Release", "RelWithDebInfo"))

    def test_times_are_rescaled_by_the_probes_around_them(self):
        nominal = run.PROBE_NOMINAL_S
        self.assertEqual(run.rescaled([2.0, 3.0], [0.5, 1.5, 0.5]),
                         [2.0 * nominal, 3.0 * nominal])
        self.assertEqual(
            run.normalised_wall_seconds([[1.0], [3.0], [2.0]],
                                        [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]),
            1.0 * nominal)
        with self.assertRaises(run.BenchError):
            run.rescaled([1.0, 1.0], [1.0, 1.0])

    def test_exact_counts_repeat_for_a_seed_and_differ_for_another(self):
        def exact(measured):
            metrics = run.layer_metrics(measured["layers"])
            return {name: metrics[name]["value"] for name in run.EXACT}

        again = measure(seed=1, trace=True)
        self.assertEqual(exact(self.traced), exact(again))
        other = measure(seed=2, trace=True)
        self.assertNotEqual(exact(self.traced), exact(other))

    def test_check_fails_on_a_tampered_digest(self):
        passes = self.traced["cells"]
        reference = copy.deepcopy(passes[0])
        self.assertEqual(run.check_cells(passes, reference)[1], 0)

        tampered = copy.deepcopy(passes)
        tampered[1][0]["digest"] = "0" * 16
        attempted, failed, reasons = run.check_cells(tampered)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertIn("digest differs between passes", reasons[0])

        bad_reference = copy.deepcopy(reference)
        bad_reference[0]["digest"] = "f" * 16
        self.assertEqual(run.check_cells(passes, bad_reference)[1], 1)

        mismatched = copy.deepcopy(passes)
        mismatched[0][0]["recompute_mismatches"] = 1
        self.assertEqual(run.check_cells(mismatched)[1], 1)

    def test_fails_without_a_result_outside_a_full_checkout(self):
        bare = os.path.join(run.ROOT, ".bench_build", "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(run.ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "cold_repro", "--seed", "1", "--seconds", "30",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
