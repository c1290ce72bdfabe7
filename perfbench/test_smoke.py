#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced, checked against the output schema and BENCHMARK.json.

    python3 perfbench/test_smoke.py

Run from the root of a checkout; the first run builds the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig1-sweep", "large-cover", "serve-replay"]


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")]
                          + args, capture_output=True, text=True, cwd=cwd,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, workload, trace):
        proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke"])
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 0)

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 1)

    def test_fails_without_sources(self):
        # A directory holding only the benchmark cannot build the program:
        # the run must fail and print no result.
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", "fig1-sweep", "--seed", "1", "--seconds", "1"],
                   cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
