#!/usr/bin/env python3
"""The sweep-cell benchmark's own tests.

Run from the repository root (builds the benchmark first if needed):

    python3 -m unittest cellbench/test_cellbench.py -v

Each test runs a few cells for one pass, so the suite takes seconds once
the benchmark is built.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(workload, seed, trace, *extra):
    """Runs a one-pass, few-cell benchmark; returns (result, stderr)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--max-passes", "1",
           *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise AssertionError("benchmark failed (%d):\n%s" %
                             (out.returncode, out.stderr[-4000:]))
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stderr


def digest(stderr):
    return re.search(r"results_digest=([0-9a-f]{16})", stderr).group(1)


class BenchmarkContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def assert_metrics(self, result, declared):
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_workloads_match(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, ["bin1_sweep", "bin2_sweep", "replay_degraded"])

    def test_end_to_end_names_and_units(self):
        result, _ = bench("bin2_sweep", 1, 0, "--limit-cells", "2")
        self.assert_metrics(result, self.spec["end_to_end"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for m in result["metrics"].values():
            self.assertGreater(m["value"], 0)

    def test_per_layer_names_and_units(self):
        result, _ = bench("replay_degraded", 1, 1, "--limit-cells", "2")
        self.assert_metrics(result, self.spec["per_layer"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


class Oracle(unittest.TestCase):
    def test_perturbed_expected_value_fails_the_cell(self):
        for seed in (1, 9):  # committed reference, then a self-derived one
            result, err = bench("bin1_sweep", seed, 0, "--limit-cells", "2",
                                "--perturb")
            self.assertFalse(result["correct"], seed)
            self.assertEqual(result["failed"], 1, seed)
            self.assertIn("FAIL", err)

    def test_unperturbed_cells_pass_against_committed_csv(self):
        result, _ = bench("bin1_sweep", 1, 0, "--limit-cells", "3")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"], 6)  # reference + timed pass

    def test_traced_results_equal_timed_results(self):
        for workload, seed in (("bin2_sweep", 1), ("replay_degraded", 4)):
            timed, timed_err = bench(workload, seed, 0, "--limit-cells", "3")
            traced, traced_err = bench(workload, seed, 1, "--limit-cells", "3")
            self.assertTrue(timed["correct"] and traced["correct"], workload)
            self.assertEqual(digest(timed_err), digest(traced_err), workload)


class Packaging(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        build_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "cellbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            out = subprocess.run(
                [sys.executable, "cellbench/run.py", "--workload",
                 "bin1_sweep", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
